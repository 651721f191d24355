//! Regenerates Figure 3 of the Virtuoso paper (see README.md § "Reproducing the paper's figures").
//! Usage: `cargo run --release -p virtuoso_bench --bin fig03_ptw_variation [scale]`

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    println!(
        "{}",
        virtuoso_bench::experiments::fig03_ptw_variation(scale).render()
    );
}
