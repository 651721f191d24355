//! Regenerates Figure 16 of the Virtuoso paper (see README.md § "Reproducing the paper's figures").
//! Usage: `cargo run --release -p virtuoso_bench --bin fig16_llm_alloc_policies [scale]`

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    println!(
        "{}",
        virtuoso_bench::experiments::fig16_llm_alloc_policies(scale).render()
    );
}
