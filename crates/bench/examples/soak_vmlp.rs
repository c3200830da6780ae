//! Profiling harness: one v-MLP soak leg (40k requests) and nothing else,
//! so a sampling profiler sees only the scheme under test. Not a figure.

use mlp_bench::{fig_soak, Scale};

fn main() {
    let scale = if std::env::args().any(|a| a == "--scale=paper") {
        Scale::paper()
    } else {
        Scale::small()
    };
    let requests = fig_soak::request_target(&scale);
    let (p, wall_ms) = fig_soak::data_point("vmlp", requests, 2022);
    let us_per_req = wall_ms / p.arrived.max(1) as f64 * 1000.0;
    println!("{}: {:.1} µs/req over {} arrivals", p.scheme, us_per_req, p.arrived);
}
