//! Regenerates Figure 21 of the Virtuoso paper (see README.md § "Reproducing the paper's figures").
//! Usage: `cargo run --release -p virtuoso_bench --bin fig21_rmm_conflicts [scale]`

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    println!(
        "{}",
        virtuoso_bench::experiments::fig21_rmm_conflicts(scale).render()
    );
}
