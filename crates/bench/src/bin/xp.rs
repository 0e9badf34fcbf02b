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
    end_quietly_when_stdout_closes();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(nonsearch_bench::experiments::registry().main(&args));
}

/// A reader that closes `xp`'s stdout early (`xp kleinberg --quick |
/// head -1`) ends the run with status 0 and nothing on stderr. Rust
/// ignores SIGPIPE, so the next `println!` panics on the broken pipe;
/// this hook turns exactly that panic into a quiet exit, where a C
/// program would have died of the signal. Every other panic reaches the
/// default hook.
fn end_quietly_when_stdout_closes() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info.payload_as_str().is_some_and(|message| {
            message.starts_with("failed printing to stdout") && message.contains("Broken pipe")
        });
        if broken_pipe {
            std::process::exit(0);
        }
        default(info);
    }));
}
