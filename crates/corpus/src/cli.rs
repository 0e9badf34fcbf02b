//! The `xp corpus` subcommand family: `build`, `info`, `verify`.
//!
//! The corpus directory is the positional `DIR` or `--corpus DIR`.
//! Each subcommand reads only its own flags: `build` the engine's
//! shared build flags (`--seed`, `--sizes`, `--trials`, `--quick`,
//! `--threads`) plus three builder-specific ones (`--model SPEC`,
//! `--variants K`, `--swaps N`); `verify` `--heal` and the no-op
//! `--mmap`; `info` none.

use crate::builder::{build, BuildSpec};
use crate::mmap::LoadMode;
use crate::model_spec::DEFAULT_MODEL_SPEC;
use crate::store::Corpus;
use nonsearch_engine::{ArgScanner, CliOptions, ToolSpec};
use std::path::PathBuf;

/// The default size sweep — the `theorem1-weak` experiment's, so a
/// default build backs that experiment bit-identically (`--quick`
/// truncates it the same way the experiment does).
pub const DEFAULT_SIZES: &[usize] = &[512, 1024, 2048, 4096, 8192, 16384];
/// Default stored graphs per size (matches `theorem1-weak`'s trials).
pub const DEFAULT_TRIALS: usize = 12;
/// Default root seed (the `theorem1-weak` default seed).
pub const DEFAULT_SEED: u64 = 0xE1;

/// `xp corpus`: the persistent graph-ensemble store.
pub const TOOL: ToolSpec = ToolSpec {
    name: "corpus",
    summary: "persistent graph-ensemble store (build | info | verify DIR)",
    usage,
    main,
};

/// The `xp corpus` help text.
pub fn usage() -> String {
    format!(
        "xp corpus — persistent graph-ensemble store\n\
         \n\
         usage:\n\
         \x20 xp corpus build  DIR [flags]     generate and store an ensemble\n\
         \x20 xp corpus info   DIR             print the manifest summary\n\
         \x20 xp corpus verify DIR [--heal]    recheck every file checksum\n\
         \n\
         DIR is the positional directory or --corpus DIR; info reads no\n\
         other argument.\n\
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
         verify --mmap is accepted and does nothing: every load maps the file\n\
         \x20 (or reads it into an aligned buffer where mapping is refused)\n"
    )
}

/// Runs `xp corpus <args>`. Returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let (subcommand, rest) = args
        .split_first()
        .map_or(("", args), |(s, r)| (s.as_str(), r));
    // Each subcommand reads only its own flags.
    let shared: &[&str] = match subcommand {
        "build" => &["--seed", "--sizes", "--trials", "--quick", "--threads"],
        "verify" => &["--heal", "--mmap"],
        "info" => &[],
        other => return TOOL.usage_error(format!("unknown subcommand {other:?}")),
    };
    let builds = subcommand == "build";
    let mut options = CliOptions::default();
    let mut dir: Option<PathBuf> = None;
    let mut model_spec = DEFAULT_MODEL_SPEC.to_string();
    let (mut variants, mut swaps) = (1usize, 10usize);
    let scanned = ArgScanner::scan(rest, |arg, scan| {
        const COUNT: &str = "a non-negative integer";
        match arg {
            "--model" if builds => model_spec = scan.value("--model")?,
            "--variants" if builds => variants = scan.parse("--variants", COUNT)?,
            "--swaps" if builds => swaps = scan.parse("--swaps", COUNT)?,
            "--corpus" => dir = Some(scan.value("--corpus")?.into()),
            flag if shared.contains(&flag) => return options.accept(flag, scan),
            word if !word.starts_with("--") && dir.is_none() => dir = Some(word.into()),
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(e) = scanned {
        return TOOL.usage_error(e);
    }
    let Some(dir) = dir else {
        return TOOL.usage_error("no directory (give DIR or --corpus DIR)");
    };

    let done = match subcommand {
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
            build(&dir, &spec).map(|report| {
                format!(
                    "[corpus build] {} graphs ({} files, {} KiB) in {} ms -> {}",
                    report.graphs,
                    report.files,
                    report.bytes / 1024,
                    report.wall_ms,
                    report.manifest_path.display()
                )
            })
        }
        "info" => Corpus::open(&dir).map(|corpus| {
            let m = corpus.manifest();
            let mut text = format!(
                "corpus at {}\n  model:    {} (spec {:?})\n  seed:     {:#x}\n  \
                 sizes:    {:?}\n  trials:   {} per size\n  \
                 variants: {} per graph ({} swaps/edge)\n  \
                 graphs:   {} originals, {} files total",
                dir.display(),
                m.model,
                m.model_spec,
                m.seed,
                m.sizes,
                m.trials,
                m.variants,
                m.swaps_per_edge,
                m.graphs.len(),
                m.file_count()
            );
            if let Some(b) = &m.build {
                let line = format!("git {} / {} threads / {} ms", b.git, b.threads, b.wall_ms);
                text += &format!("\n  built:    {line}");
            }
            text
        }),
        _ => Corpus::open_healing(&dir, LoadMode::Mmap, options.heal)
            .and_then(|c| c.verify())
            .map(|report| {
                let healed = match report.healed {
                    0 => String::new(),
                    n => format!(" ({n} healed, {} quarantined)", report.quarantined),
                };
                format!(
                    "[corpus verify] {}: {} files, {} KiB — OK{healed}",
                    dir.display(),
                    report.files,
                    report.bytes / 1024,
                )
            }),
    };
    match done {
        Ok(text) => {
            println!("{text}");
            0
        }
        Err(e) => {
            eprintln!("xp corpus {subcommand}: {e}");
            1
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
        // `xp corpus --help` is answered by the xp command table.
        assert_eq!(run(&["help"]), 2);
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
        // --mmap is still accepted by verify, and changes nothing.
        assert_eq!(run(&["verify", dir_str, "--mmap"]), 0);
        // Each subcommand reads only its own flags; these used to exit 0
        // and drop every flag.
        let info = [
            "info",
            dir_str,
            "--seed",
            "5",
            "--profile",
            "--trace",
            "t.json",
        ];
        assert_eq!(run(&info), 2);
        assert_eq!(run(&["verify", dir_str, "--sizes", "64", "--quick"]), 2);
        assert_eq!(run(&["info", dir_str, "--mmap"]), 2);
        assert_eq!(run(&["verify", dir_str, "--model", "ba:m=2"]), 2);

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
