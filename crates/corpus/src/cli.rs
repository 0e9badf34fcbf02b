//! The `xp corpus` subcommand family: `build`, `info`, `verify`.
//!
//! The `xp` binary dispatches `corpus ...` here before consulting the
//! experiment registry. Flags reuse the engine's shared set where they
//! apply (`--corpus DIR`, `--seed`, `--sizes`, `--trials`, `--quick`,
//! `--threads`) plus three builder-specific ones (`--model SPEC`,
//! `--variants K`, `--swaps N`). The corpus directory can also be given
//! as the first positional argument.

use crate::builder::{build, BuildSpec};
use crate::mmap::LoadMode;
use crate::model_spec::DEFAULT_MODEL_SPEC;
use crate::store::Corpus;
use nonsearch_engine::CliOptions;
use std::path::PathBuf;

/// The default size sweep — the `theorem1-weak` experiment's, so a
/// default build backs that experiment bit-identically (`--quick`
/// truncates it the same way the experiment does).
pub const DEFAULT_SIZES: &[usize] = &[512, 1024, 2048, 4096, 8192, 16384];
/// Default stored graphs per size (matches `theorem1-weak`'s trials).
pub const DEFAULT_TRIALS: usize = 12;
/// Default root seed (the `theorem1-weak` default seed).
pub const DEFAULT_SEED: u64 = 0xE1;

/// The `xp corpus` help text.
pub fn usage() -> String {
    format!(
        "xp corpus — persistent graph-ensemble store\n\
         \n\
         usage:\n\
         \x20 xp corpus build  [DIR] [flags]   generate and store an ensemble\n\
         \x20 xp corpus info   [DIR]           print the manifest summary\n\
         \x20 xp corpus verify [DIR]           recheck every file checksum\n\
         \n\
         the directory comes from the positional DIR or --corpus DIR.\n\
         \n\
         build flags (shared): --seed S, --sizes A,B,C, --trials N,\n\
         \x20 --quick, --threads N — defaults mirror theorem1-weak\n\
         \x20 (seed {DEFAULT_SEED} = {DEFAULT_SEED:#x}; --seed takes decimal,\n\
         \x20 sizes {DEFAULT_SIZES:?}, trials {DEFAULT_TRIALS}),\n\
         \x20 so a default-built corpus backs that experiment bit-identically.\n\
         build flags (corpus): --model SPEC (default {DEFAULT_MODEL_SPEC:?};\n\
         \x20 also ba:m=2, uniform:m=1, cooper-frieze:alpha=0.7,\n\
         \x20 power-law:k=2.5,dmin=1), --variants K (default 1 rewired\n\
         \x20 null model per graph), --swaps N (default 10 swaps/edge)\n\
         verify flag: --heal — quarantine corrupt blobs to quarantine/\n\
         \x20 and regenerate them from the manifest's model spec + seed,\n\
         \x20 re-checking against the original manifest checksums\n\
         --mmap is accepted and does nothing: every load maps the file\n\
         \x20 (or reads it into an aligned buffer where mapping is refused)\n"
    )
}

/// Runs `xp corpus <args>`. Returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let Some(subcommand) = args.first().map(String::as_str) else {
        print!("{}", usage());
        return 2;
    };
    if matches!(subcommand, "help" | "--help" | "-h") {
        print!("{}", usage());
        return 0;
    }

    // Peel the positional DIR and the builder-specific flags; everything
    // else goes through the engine's strict shared parser.
    let mut rest = &args[1..];
    let mut dir: Option<PathBuf> = None;
    if let Some(first) = rest.first() {
        if !first.starts_with("--") {
            dir = Some(PathBuf::from(first));
            rest = &rest[1..];
        }
    }
    let mut model_spec = DEFAULT_MODEL_SPEC.to_string();
    let mut variants = 1usize;
    let mut swaps = 10usize;
    let mut shared: Vec<String> = Vec::new();
    let mut iter = rest.iter().peekable();
    while let Some(arg) = iter.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            match &inline {
                Some(v) => Ok(v.clone()),
                None => match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        Ok(iter.next().expect("peeked value exists").clone())
                    }
                    _ => Err(format!("{name} requires a value")),
                },
            }
        };
        let outcome: Result<(), String> = match flag {
            "--model" => value("--model").map(|v| model_spec = v),
            "--variants" => value("--variants").and_then(|v| {
                v.parse()
                    .map(|n| variants = n)
                    .map_err(|e| format!("--variants: {e}"))
            }),
            "--swaps" => value("--swaps").and_then(|v| {
                v.parse()
                    .map(|n| swaps = n)
                    .map_err(|e| format!("--swaps: {e}"))
            }),
            _ => {
                shared.push(arg.clone());
                Ok(())
            }
        };
        if let Err(e) = outcome {
            eprintln!("xp corpus {subcommand}: {e}");
            return 2;
        }
    }
    let options = match CliOptions::from_args(shared) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("xp corpus {subcommand}: {e}");
            return 2;
        }
    };
    let Some(dir) = dir.or(options.corpus.clone()) else {
        eprintln!("xp corpus {subcommand}: no directory (give DIR or --corpus DIR)");
        return 2;
    };

    match subcommand {
        "build" => {
            let spec = BuildSpec {
                model_spec,
                seed: options.seed_or(DEFAULT_SEED),
                sizes: options.sweep(DEFAULT_SIZES),
                trials: options.trial_count(DEFAULT_TRIALS),
                variants,
                swaps_per_edge: swaps,
                threads: options.threads,
            };
            match build(&dir, &spec) {
                Ok(report) => {
                    println!(
                        "[corpus build] {} graphs ({} files, {} KiB) in {} ms -> {}",
                        report.graphs,
                        report.files,
                        report.bytes / 1024,
                        report.wall_ms,
                        report.manifest_path.display()
                    );
                    0
                }
                Err(e) => {
                    eprintln!("xp corpus build: {e}");
                    1
                }
            }
        }
        "info" => match Corpus::open(&dir) {
            Ok(corpus) => {
                let m = corpus.manifest();
                println!("corpus at {}", dir.display());
                println!("  model:    {} (spec {:?})", m.model, m.model_spec);
                println!("  seed:     {:#x}", m.seed);
                println!("  sizes:    {:?}", m.sizes);
                println!("  trials:   {} per size", m.trials);
                println!(
                    "  variants: {} per graph ({} swaps/edge)",
                    m.variants, m.swaps_per_edge
                );
                println!(
                    "  graphs:   {} originals, {} files total",
                    m.graphs.len(),
                    m.file_count()
                );
                if let Some(b) = &m.build {
                    println!(
                        "  built:    git {} / {} threads / {} ms",
                        b.git, b.threads, b.wall_ms
                    );
                }
                0
            }
            Err(e) => {
                eprintln!("xp corpus info: {e}");
                1
            }
        },
        "verify" => match Corpus::open_healing(&dir, LoadMode::Mmap, options.heal)
            .and_then(|c| c.verify())
        {
            Ok(report) => {
                let healed = if report.healed > 0 {
                    format!(
                        " ({} healed, {} quarantined)",
                        report.healed, report.quarantined
                    )
                } else {
                    String::new()
                };
                println!(
                    "[corpus verify] {}: {} files, {} KiB — OK{healed}",
                    dir.display(),
                    report.files,
                    report.bytes / 1024,
                );
                0
            }
            Err(e) => {
                eprintln!("xp corpus verify: {e}");
                1
            }
        },
        other => {
            eprintln!("xp corpus: unknown subcommand {other:?}");
            eprint!("{}", usage());
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> i32 {
        main(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("corpus_cli_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn help_and_errors_have_sane_exit_codes() {
        assert_eq!(run(&[]), 2);
        assert_eq!(run(&["help"]), 0);
        assert_eq!(run(&["info"]), 2); // no directory
        assert_eq!(run(&["frobnicate", "somewhere"]), 2);
        assert_eq!(run(&["build", "--model"]), 2); // missing value
        assert_eq!(run(&["build", "dir", "--wat"]), 2); // unknown shared flag
    }

    #[test]
    fn build_info_verify_lifecycle() {
        let dir = temp_dir("lifecycle");
        let dir_str = dir.to_str().unwrap();
        assert_eq!(
            run(&[
                "build",
                dir_str,
                "--sizes",
                "24,48",
                "--trials",
                "2",
                "--seed",
                "5",
                "--variants",
                "1",
                "--swaps",
                "3",
                "--threads",
                "1",
            ]),
            0
        );
        assert_eq!(run(&["info", dir_str]), 0);
        // --corpus works in place of the positional directory.
        assert_eq!(run(&["verify", "--corpus", dir_str]), 0);
        // --mmap is still accepted, and changes nothing.
        assert_eq!(run(&["verify", dir_str, "--mmap"]), 0);
        assert_eq!(run(&["info", dir_str, "--mmap"]), 0);

        // Corrupt a file: verify must now fail.
        let corpus = Corpus::open(&dir).unwrap();
        let victim = dir.join(&corpus.manifest().graphs[0].file);
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&victim, bytes).unwrap();
        assert_eq!(run(&["verify", dir_str]), 1);

        // --heal quarantines + regenerates, after which a plain verify
        // passes against the original manifest checksums.
        assert_eq!(run(&["verify", dir_str, "--heal"]), 0);
        assert!(dir.join(crate::store::QUARANTINE_DIR).is_dir());
        assert_eq!(run(&["verify", dir_str]), 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_on_missing_corpus_fails_cleanly() {
        let dir = temp_dir("missing");
        assert_eq!(run(&["info", dir.to_str().unwrap()]), 1);
    }
}
