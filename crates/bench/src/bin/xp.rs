//! `xp` — the unified experiment CLI.
//!
//! ```text
//! xp list                                    # enumerate experiments
//! xp theorem1-weak --quick --threads 4 --out runs.jsonl
//! xp validate runs.jsonl                     # check emitted records
//! xp corpus build corpus-dir --quick         # persist a graph ensemble
//! xp theorem1-weak --quick --corpus corpus-dir
//! ```
//!
//! Subcommands share the engine flag set (`--quick`, `--threads`,
//! `--seed`, `--out`, `--format`, `--trials`, `--sizes`, `--corpus`);
//! run records are bit-identical for any `--threads` value with the
//! same seed. The `corpus` tool subcommands manage the persistent
//! graph-ensemble store (`nonsearch_corpus`); `xp bench` runs the
//! standardized engine benchmark suite (`BENCH_engine_suite.json`);
//! `xp chaos` is the deterministic fault-injection gate (byte-identical
//! cell records under injected faults, corpus self-heal, watchdog).

use nonsearch_alloc_counter::CountingAllocator;

// The counting allocator makes the `"type":"perf"` records' per-trial
// `allocations` field real for every `xp` run (it reads as zero in
// binaries that don't install the counter). Counting is a per-thread
// relaxed increment — noise-free for the deterministic paths.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("corpus") {
        std::process::exit(nonsearch_corpus::cli::main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("bench") {
        std::process::exit(nonsearch_bench::bench_suite::main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("lint") {
        std::process::exit(nonsearch_lint::cli::main(&args[1..]));
    }
    if args.first().map(String::as_str) == Some("chaos") {
        std::process::exit(nonsearch_bench::chaos::main(&args[1..]));
    }
    std::process::exit(nonsearch_bench::experiments::registry().main(&args));
}
