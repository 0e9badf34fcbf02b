//! The shared experiment command line, parsed strictly.
//!
//! Every `xp` experiment subcommand understands the same flags:
//!
//! | flag | meaning |
//! |------|---------|
//! | `--quick` | reduced sweep |
//! | `--threads N` | worker threads for the trial engine (0 = all cores) |
//! | `--seed S` | override the experiment's default root seed |
//! | `--out PATH` | write structured run records to `PATH` |
//! | `--format F` | `jsonl` (default), `csv`, or `both` |
//! | `--trials N` | override the per-cell trial count (`N ≥ 1`) |
//! | `--sizes A,B,C` | override the size sweep |
//! | `--corpus DIR` | serve trial graphs from a stored corpus instead of generating |
//! | `--mmap` | serve corpus graphs zero-copy from memory-mapped files |
//! | `--trust-checksums` | skip per-load payload checksums (run `corpus verify` first) |
//! | `--profile` | emit one `"type":"perf"` record per measured cell alongside cells |
//! | `--trace PATH` | record run/cell/trial spans and write Chrome Trace Event JSON to `PATH` |
//! | `--heal` | quarantine + regenerate corrupt corpus blobs instead of failing the load |
//!
//! Unknown arguments and malformed values are errors (`xp` exits 2).
//! `--quick`, `--mmap`, `--trust-checksums`, `--profile`, and `--heal`
//! are boolean flags: they take no value, and `--quick=...` is rejected
//! outright — silently treating `--quick=false` as *enabling* quick mode
//! was a real bug.

use std::fmt;
use std::path::PathBuf;

/// Which structured formats a run writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// JSON Lines: one self-describing object per record.
    #[default]
    Jsonl,
    /// Comma-separated values with a header row.
    Csv,
    /// JSON Lines at `--out`, CSV alongside with a `.csv` extension.
    Both,
}

impl OutputFormat {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Result<OutputFormat, OptionsError> {
        match s {
            "jsonl" | "json" => Ok(OutputFormat::Jsonl),
            "csv" => Ok(OutputFormat::Csv),
            "both" => Ok(OutputFormat::Both),
            other => Err(OptionsError::BadValue {
                flag: "--format",
                value: other.to_string(),
                expected: "jsonl | csv | both",
            }),
        }
    }
}

impl fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OutputFormat::Jsonl => "jsonl",
            OutputFormat::Csv => "csv",
            OutputFormat::Both => "both",
        })
    }
}

/// A malformed experiment command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptionsError {
    /// A flag that takes a value was given none.
    MissingValue {
        /// The offending flag.
        flag: &'static str,
    },
    /// A flag value failed to parse.
    BadValue {
        /// The offending flag.
        flag: &'static str,
        /// What was passed.
        value: String,
        /// What would have parsed.
        expected: &'static str,
    },
    /// An argument the parser does not know.
    Unknown {
        /// The argument as given.
        arg: String,
    },
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionsError::MissingValue { flag } => write!(f, "{flag} requires a value"),
            OptionsError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag}: cannot parse {value:?} (expected {expected})"),
            OptionsError::Unknown { arg } => write!(f, "unknown argument {arg:?}"),
        }
    }
}

impl std::error::Error for OptionsError {}

/// The experiment options shared by every `xp` experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliOptions {
    /// Reduced sweep requested (`--quick`).
    pub quick: bool,
    /// Requested worker threads; `0` means one per available core.
    pub threads: usize,
    /// Root-seed override (`None` = the experiment's default seed).
    pub seed: Option<u64>,
    /// Structured-output path (`None` = pretty tables only).
    pub out: Option<PathBuf>,
    /// Structured-output format.
    pub format: OutputFormat,
    /// Per-cell trial-count override (never zero).
    pub trials: Option<usize>,
    /// Size-sweep override.
    pub sizes: Option<Vec<usize>>,
    /// Directory of a persistent graph corpus; experiments that sample
    /// whole graphs per trial serve them from here instead of
    /// regenerating (`None` = generate per trial).
    pub corpus: Option<PathBuf>,
    /// Serve corpus graphs zero-copy from memory-mapped `.nsg` files
    /// (`--mmap`); meaningful only together with `--corpus`.
    pub mmap: bool,
    /// Skip the per-load payload checksum pass on corpus opens
    /// (`--trust-checksums`): integrity then rests on a prior
    /// `corpus verify`, which always hashes. Meaningful only together
    /// with `--corpus`.
    pub trust_checksums: bool,
    /// Emit one perf record per measured cell (`--profile`): exact work
    /// counters, throughput, phase timers and a `/proc` sample, as JSONL
    /// `"type":"perf"` records riding alongside the deterministic cell
    /// stream.
    pub profile: bool,
    /// Write span traces as Chrome Trace Event Format JSON to this path
    /// (`--trace PATH`): run → size-cell → trial-batch scopes, loadable
    /// in Perfetto / `chrome://tracing`. `None` disables tracing.
    pub trace: Option<PathBuf>,
    /// Self-heal corrupt corpus blobs (`--heal`): a checksum-failing
    /// `.nsg` file is quarantined and regenerated from the manifest's
    /// model spec + seed instead of failing the load. Meaningful only
    /// together with `--corpus`.
    pub heal: bool,
}

impl CliOptions {
    /// Parses experiment flags: unknown arguments and malformed values
    /// are errors.
    pub fn from_args<I, S>(args: I) -> Result<CliOptions, OptionsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut opts = CliOptions::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            // Accept both `--flag value` and `--flag=value`.
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            let mut value = |flag_name: &'static str| -> Result<String, OptionsError> {
                match &inline {
                    Some(v) => Ok(v.clone()),
                    // Never consume a following `--flag` as this flag's
                    // value: `--seed --quick` must report the missing
                    // seed, not eat (and lose) `--quick`.
                    None => match iter.peek() {
                        Some(next) if !next.starts_with("--") => {
                            Ok(iter.next().expect("peeked value exists"))
                        }
                        _ => Err(OptionsError::MissingValue { flag: flag_name }),
                    },
                }
            };
            // Boolean flags take no value. An inline value is an error:
            // `--quick=false` must not *enable* quick mode.
            let boolean = |flag_name: &'static str| -> Result<bool, OptionsError> {
                match &inline {
                    Some(v) => Err(OptionsError::BadValue {
                        flag: flag_name,
                        value: v.clone(),
                        expected: "no value (boolean flag; pass it bare)",
                    }),
                    None => Ok(true),
                }
            };
            match flag.as_str() {
                "--quick" => boolean("--quick").map(|b| opts.quick = b),
                "--mmap" => boolean("--mmap").map(|b| opts.mmap = b),
                "--trust-checksums" => {
                    boolean("--trust-checksums").map(|b| opts.trust_checksums = b)
                }
                "--profile" => boolean("--profile").map(|b| opts.profile = b),
                "--heal" => boolean("--heal").map(|b| opts.heal = b),
                "--threads" => value("--threads")
                    .and_then(|v| parse_num(&v, "--threads"))
                    .map(|n| opts.threads = n),
                "--seed" => value("--seed")
                    .and_then(|v| parse_num(&v, "--seed"))
                    .map(|s| opts.seed = Some(s)),
                "--trials" => value("--trials").and_then(|v| match parse_num(&v, "--trials")? {
                    // Zero trials would measure nothing.
                    0 => Err(OptionsError::BadValue {
                        flag: "--trials",
                        value: v,
                        expected: "a positive integer",
                    }),
                    t => {
                        opts.trials = Some(t);
                        Ok(())
                    }
                }),
                "--out" => value("--out").map(|v| opts.out = Some(PathBuf::from(v))),
                "--trace" => value("--trace").map(|v| opts.trace = Some(PathBuf::from(v))),
                "--corpus" => value("--corpus").map(|v| opts.corpus = Some(PathBuf::from(v))),
                "--format" => value("--format")
                    .and_then(|v| OutputFormat::parse(&v))
                    .map(|f| opts.format = f),
                "--sizes" => value("--sizes").and_then(|raw| {
                    let sizes: Result<Vec<usize>, OptionsError> = raw
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| parse_num(s, "--sizes"))
                        .collect();
                    let sizes = sizes?;
                    if sizes.is_empty() {
                        return Err(OptionsError::BadValue {
                            flag: "--sizes",
                            value: raw,
                            expected: "a comma-separated list like 512,1024",
                        });
                    }
                    opts.sizes = Some(sizes);
                    Ok(())
                }),
                _ => Err(OptionsError::Unknown { arg }),
            }?;
        }
        Ok(opts)
    }

    /// The worker-thread count after resolving `0` to the machine's
    /// available parallelism. This is the run's worker *ceiling*: the
    /// engine additionally caps each cell's workers at its trial count.
    pub fn resolved_threads(&self) -> usize {
        crate::runner::resolve_thread_setting(self.threads)
    }

    /// The experiment's root seed: the `--seed` override, else `default`.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Applies the `--sizes` override / quick truncation to a full sweep.
    pub fn sweep(&self, full: &[usize]) -> Vec<usize> {
        if let Some(sizes) = &self.sizes {
            return sizes.clone();
        }
        if self.quick {
            full.iter().copied().take(3.min(full.len())).collect()
        } else {
            full.to_vec()
        }
    }

    /// Applies the `--trials` override / quick scaling to a full count.
    pub fn trial_count(&self, full: usize) -> usize {
        if let Some(trials) = self.trials {
            return trials;
        }
        if self.quick {
            (full / 3).max(3)
        } else {
            full
        }
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &'static str) -> Result<T, OptionsError> {
    s.parse().map_err(|_| OptionsError::BadValue {
        flag,
        value: s.to_string(),
        expected: "a non-negative integer",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, OptionsError> {
        CliOptions::from_args(args.iter().copied())
    }

    #[test]
    fn parses_every_flag() {
        let opts = parse(&[
            "--quick",
            "--threads",
            "4",
            "--seed",
            "17",
            "--out",
            "runs.jsonl",
            "--format",
            "both",
            "--trials",
            "9",
            "--sizes",
            "128,256,512",
            "--corpus",
            "corpus-dir",
            "--trust-checksums",
            "--profile",
            "--heal",
            "--trace",
            "run.trace.json",
        ])
        .unwrap();
        assert!(opts.quick);
        assert!(opts.trust_checksums);
        assert!(opts.profile);
        assert!(opts.heal);
        assert_eq!(
            opts.trace.as_deref(),
            Some(std::path::Path::new("run.trace.json"))
        );
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.seed, Some(17));
        assert_eq!(
            opts.out.as_deref(),
            Some(std::path::Path::new("runs.jsonl"))
        );
        assert_eq!(opts.format, OutputFormat::Both);
        assert_eq!(opts.trials, Some(9));
        assert_eq!(opts.sizes, Some(vec![128, 256, 512]));
        assert_eq!(
            opts.corpus.as_deref(),
            Some(std::path::Path::new("corpus-dir"))
        );
    }

    #[test]
    fn equals_form_is_accepted() {
        let opts = parse(&["--threads=2", "--sizes=64,128"]).unwrap();
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.sizes, Some(vec![64, 128]));
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        assert_eq!(
            parse(&["--wat"]),
            Err(OptionsError::Unknown {
                arg: "--wat".into()
            })
        );
    }

    #[test]
    fn value_less_flag_never_eats_a_following_flag() {
        // The missing value is reported against `--seed`, not filled
        // with (and losing) `--quick`.
        assert_eq!(
            parse(&["--seed", "--quick"]),
            Err(OptionsError::MissingValue { flag: "--seed" })
        );
    }

    #[test]
    fn missing_and_bad_values_are_reported() {
        assert_eq!(
            parse(&["--threads"]),
            Err(OptionsError::MissingValue { flag: "--threads" })
        );
        assert!(matches!(
            parse(&["--seed", "xyz"]),
            Err(OptionsError::BadValue { flag: "--seed", .. })
        ));
        assert!(matches!(
            parse(&["--format", "xml"]),
            Err(OptionsError::BadValue {
                flag: "--format",
                ..
            })
        ));
        assert!(matches!(
            parse(&["--sizes", ","]),
            Err(OptionsError::BadValue {
                flag: "--sizes",
                ..
            })
        ));
        // The regression: `--trials 0` used to run one trial.
        for zero in [&["--trials", "0"][..], &["--trials=0"]] {
            assert!(matches!(
                parse(zero),
                Err(OptionsError::BadValue {
                    flag: "--trials",
                    ..
                })
            ));
        }
    }

    #[test]
    fn boolean_flags_reject_inline_values_strictly() {
        // The regression: `--quick=false` used to *enable* quick mode.
        for arg in [
            "--quick=false",
            "--quick=true",
            "--quick=",
            "--mmap=0",
            "--trust-checksums=1",
            "--profile=true",
            "--heal=1",
        ] {
            let err = parse(&[arg]).unwrap_err();
            assert!(
                matches!(err, OptionsError::BadValue { .. }),
                "{arg}: {err:?}"
            );
        }
    }

    #[test]
    fn mmap_flag_parses() {
        let opts = parse(&["--mmap", "--corpus", "dir"]).unwrap();
        assert!(opts.mmap);
        assert!(!CliOptions::default().mmap);
    }

    #[test]
    fn profile_flag_parses() {
        let opts = parse(&["--profile"]).unwrap();
        assert!(opts.profile);
        assert!(!CliOptions::default().profile);
    }

    #[test]
    fn heal_flag_parses() {
        let opts = parse(&["--heal", "--corpus", "dir"]).unwrap();
        assert!(opts.heal);
        assert!(!CliOptions::default().heal);
    }

    #[test]
    fn trust_checksums_flag_parses() {
        let opts = parse(&["--trust-checksums", "--corpus", "dir"]).unwrap();
        assert!(opts.trust_checksums);
        assert!(!CliOptions::default().trust_checksums);
    }

    #[test]
    fn sweep_and_trials_honour_quick_and_overrides() {
        let full = CliOptions::default();
        assert_eq!(full.sweep(&[1, 2, 3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(full.trial_count(12), 12);

        let quick = CliOptions {
            quick: true,
            ..CliOptions::default()
        };
        assert_eq!(quick.sweep(&[1, 2, 3, 4]), vec![1, 2, 3]);
        assert_eq!(quick.trial_count(12), 4);
        assert_eq!(quick.trial_count(4), 3);

        let overridden = CliOptions {
            quick: true,
            trials: Some(2),
            sizes: Some(vec![99]),
            ..CliOptions::default()
        };
        assert_eq!(overridden.sweep(&[1, 2, 3, 4]), vec![99]);
        assert_eq!(overridden.trial_count(12), 2);
    }

    #[test]
    fn resolved_threads_never_zero() {
        let opts = CliOptions::default();
        assert!(opts.resolved_threads() >= 1);
        let two = CliOptions {
            threads: 2,
            ..CliOptions::default()
        };
        assert_eq!(two.resolved_threads(), 2);
    }

    #[test]
    fn seed_override() {
        assert_eq!(CliOptions::default().seed_or(7), 7);
        let opts = CliOptions {
            seed: Some(1),
            ..CliOptions::default()
        };
        assert_eq!(opts.seed_or(7), 1);
    }

    #[test]
    fn errors_render() {
        let text = OptionsError::BadValue {
            flag: "--seed",
            value: "x".into(),
            expected: "a non-negative integer",
        }
        .to_string();
        assert!(text.contains("--seed"));
        assert!(OptionsError::MissingValue { flag: "--out" }
            .to_string()
            .contains("--out"));
    }
}
