//! Regenerates Figure 2 of the Virtuoso paper (see README.md § "Reproducing the paper's figures").
//! Usage: `cargo run --release -p virtuoso_bench --bin fig02_mpf_distribution [scale]`

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    println!(
        "{}",
        virtuoso_bench::experiments::fig02_mpf_distribution(scale).render()
    );
}
