//! `xp` — the unified experiment CLI.
//!
//! ```text
//! xp help                                    # every subcommand
//! xp theorem1-weak --quick --threads 4 --out runs.jsonl
//! xp validate runs.jsonl                     # check emitted records
//! xp corpus build corpus-dir --quick         # persist a graph ensemble
//! xp theorem1-weak --quick --corpus corpus-dir
//! ```
//!
//! Every subcommand, experiment or tool, is an entry of the one command
//! table `nonsearch_bench::experiments::registry()`, and every one
//! scans its flags with the one grammar of `nonsearch_engine`'s
//! `ArgScanner`. Run records are bit-identical for any `--threads`
//! value with the same seed.

use nonsearch_alloc_counter::CountingAllocator;

// The counting allocator makes the `"type":"perf"` records' per-trial
// `allocations` field real for every `xp` run (it reads as zero in
// binaries that don't install the counter). Counting is a per-thread
// relaxed increment — noise-free for the deterministic paths.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(nonsearch_bench::experiments::registry().main(&args));
}
