//! The paper's tables: I (parallelism levels), II (volatility terms),
//! III (monitors/controllers), V (evaluated requests), VI (schemes).

use mlp_cluster::ControllerTool;
use mlp_core::parallelism::ParallelismLevel;
use mlp_engine::report;
use mlp_engine::PAPER_SCHEMES;
use mlp_model::{RequestCatalog, ResourceKind};

/// Table I — ILP vs TLP vs MLP vs RLP.
pub fn table1() -> String {
    let rows: Vec<Vec<String>> = ParallelismLevel::ALL
        .iter()
        .map(|p| {
            vec![
                p.name().to_string(),
                p.scheduling_level().to_string(),
                p.granularity().to_string(),
                p.key_approach().to_string(),
            ]
        })
        .collect();
    report::table(
        "Table I — ILP vs TLP vs MLP vs RLP",
        &["parallelism", "scheduling level", "granularity", "key opti. approach"],
        &rows,
    )
}

/// Table II — selection range of volatility terms.
pub fn table2() -> String {
    let rows = vec![
        vec!["I".into(), "1 (low) – 3 (high)".into(), "Inner Logic Variability".into()],
        vec!["S".into(), "1 (low) – 3 (high)".into(), "Sensitivity to Resource".into()],
        vec!["C".into(), "1–3: Var(RTT) from 100 to 400".into(), "Communication Overhead".into()],
    ];
    report::table(
        "Table II — selection range of volatility terms",
        &["abbr", "range", "description"],
        &rows,
    )
}

/// Table III — resource monitors and controllers.
pub fn table3() -> String {
    let rows: Vec<Vec<String>> = ResourceKind::ALL
        .iter()
        .map(|&k| {
            vec![
                format!("{k:?}"),
                "dockerstats".to_string(),
                ControllerTool::for_kind(k).name().to_string(),
            ]
        })
        .collect();
    report::table(
        "Table III — resource monitors and controllers",
        &["resource", "monitor", "controller"],
        &rows,
    )
}

/// Table V — evaluated requests with their computed volatility.
pub fn table5() -> String {
    let catalog = RequestCatalog::paper();
    let rows: Vec<Vec<String>> = catalog
        .requests
        .iter()
        .map(|r| {
            vec![
                format!("{:?} V_r", r.class()),
                r.name.clone(),
                format!("{:?}", r.benchmark),
                format!("{:.2}", r.volatility),
                format!("{} services", r.dag.len()),
                format!("SLO {:.0} ms", r.slo_ms),
            ]
        })
        .collect();
    report::table(
        "Table V — evaluated request types",
        &["category", "request", "benchmark", "V_r", "DAG size", "SLO"],
        &rows,
    )
}

/// Table VI — evaluated scheduling schemes.
pub fn table6() -> String {
    let rows: Vec<Vec<String>> = PAPER_SCHEMES
        .into_iter()
        .map(|name| {
            let (cat, d) = match name {
                "FairSched" => ("Simple", "FCFS, allocate equal resource"),
                "CurSched" => ("Simple", "FCFS, allocate by current load"),
                "PartProfile" => ("Advanced", "Prior., allocate by performance profile"),
                "FullProfile" => ("Advanced", "Prior., allocate by overall profile"),
                "v-MLP" => ("MLP Scheme", "Our proposal (v-MLP)"),
                other => unreachable!("{other} is not a Table VI scheme"),
            };
            vec![cat.to_string(), name.to_string(), d.to_string()]
        })
        .collect();
    report::table("Table VI — evaluated schemes", &["category", "scheme", "description"], &rows)
}

/// All tables concatenated.
pub fn all() -> String {
    [table1(), table2(), table3(), table5(), table6()].join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let t = all();
        for needle in [
            "Table I",
            "Table II",
            "Table III",
            "Table V",
            "Table VI",
            "Microservice",
            "cgroups cpuset",
            "compose-post",
            "Our proposal",
        ] {
            assert!(t.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn table5_rows_match_paper_classes() {
        let t = table5();
        assert!(t.contains("High V_r"));
        assert!(t.contains("Mid V_r"));
        assert!(t.contains("Low V_r"));
        assert!(t.contains("getCheapest"));
        assert!(t.contains("read-user-timeline"));
    }
}
