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
    let p = fig_soak::data_point("vmlp", requests, 2022);
    println!("{}: {:.1} µs/req over {} arrivals", p.scheme, p.wall_us_per_req, p.arrived);
}
