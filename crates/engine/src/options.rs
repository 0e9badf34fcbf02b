//! The one `xp` flag grammar, and the shared experiment command line.
//!
//! Every `xp` subcommand scans its arguments with [`ArgScanner`]:
//!
//! * a value flag takes `--flag value` or `--flag=value`;
//! * a following `--flag` is never taken as a value: `--seed --quick`
//!   reports the missing seed instead of eating (and losing) `--quick`;
//! * a boolean flag rejects an inline value: `--quick=false` must not
//!   *enable* quick mode;
//! * an argument the subcommand does not read is an error (`xp` exits
//!   2).
//!
//! Every `xp` experiment subcommand understands the same flags:
//!
//! | flag | meaning |
//! |------|---------|
//! | `--quick` | reduced sweep |
//! | `--threads N` | worker threads for the trial engine (0 = all cores) |
//! | `--seed S` | override the experiment's default root seed |
//! | `--out PATH` | write JSON Lines run records to `PATH` |
//! | `--trials N` | override the per-cell trial count (`N ≥ 1`) |
//! | `--sizes A,B,C` | override the size sweep |
//! | `--corpus DIR` | serve trial graphs from a stored corpus instead of generating |
//! | `--mmap` | accepted and ignored: every corpus load already maps its file |
//! | `--profile` | emit one `"type":"perf"` record per measured cell alongside cells |
//! | `--trace PATH` | record run/cell/trial spans and write Chrome Trace Event JSON to `PATH` |
//! | `--heal` | quarantine + regenerate corrupt corpus blobs instead of failing the load |

use std::fmt;
use std::num::NonZeroUsize;
use std::path::PathBuf;

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

/// The one `xp` flag grammar (see the module docs), as a scan over one
/// subcommand's arguments.
pub struct ArgScanner {
    args: std::iter::Peekable<std::vec::IntoIter<String>>,
    /// The inline `=value` of the flag being read.
    inline: Option<String>,
}

impl ArgScanner {
    /// Scans `args` (everything after the subcommand name), handing each
    /// to `read`: a flag by its name, any inline `=value` held back for
    /// [`value`](ArgScanner::value), or a positional word. `read` takes
    /// the flag's value from the scanner and returns `false` for an
    /// argument its subcommand does not read, which is an error.
    pub fn scan<I, S>(
        args: I,
        mut read: impl FnMut(&str, &mut ArgScanner) -> Result<bool, OptionsError>,
    ) -> Result<(), OptionsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        let mut scan = ArgScanner {
            args: args.into_iter().peekable(),
            inline: None,
        };
        while let Some(arg) = scan.args.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((flag, value)) if arg.starts_with("--") => (flag, Some(value.to_string())),
                _ => (arg.as_str(), None),
            };
            scan.inline = inline;
            if !read(name, &mut scan)? {
                return Err(OptionsError::Unknown { arg });
            }
        }
        Ok(())
    }

    /// The value of `flag`: its inline `=value`, else the next argument
    /// unless that is itself a flag.
    pub fn value(&mut self, flag: &'static str) -> Result<String, OptionsError> {
        let inline = self.inline.take();
        inline
            .or_else(|| self.args.next_if(|next| !next.starts_with("--")))
            .ok_or(OptionsError::MissingValue { flag })
    }

    /// The value of `flag` parsed as a `T`; `expected` says what would
    /// have parsed.
    pub fn parse<T: std::str::FromStr>(
        &mut self,
        flag: &'static str,
        expected: &'static str,
    ) -> Result<T, OptionsError> {
        let value = self.value(flag)?;
        value.parse().map_err(|_| OptionsError::BadValue {
            flag,
            value,
            expected,
        })
    }

    /// Checks the boolean flag `flag` was given bare and returns `true`.
    pub fn switch(&mut self, flag: &'static str) -> Result<bool, OptionsError> {
        match self.inline.take() {
            Some(value) => Err(OptionsError::BadValue {
                flag,
                value,
                expected: "no value (boolean flag; pass it bare)",
            }),
            None => Ok(true),
        }
    }
}

/// The experiment options shared by every `xp` experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliOptions {
    /// Reduced sweep requested (`--quick`).
    pub quick: bool,
    /// Requested worker threads; `0` means one per available core.
    pub threads: usize,
    /// Root-seed override (`None` = the experiment's default seed).
    pub seed: Option<u64>,
    /// JSON Lines output path (`None` = pretty tables only).
    pub out: Option<PathBuf>,
    /// Per-cell trial-count override (never zero).
    pub trials: Option<usize>,
    /// Size-sweep override.
    pub sizes: Option<Vec<usize>>,
    /// Directory of a persistent graph corpus; experiments that sample
    /// whole graphs per trial serve them from here instead of
    /// regenerating (`None` = generate per trial).
    pub corpus: Option<PathBuf>,
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
        ArgScanner::scan(args, |flag, scan| opts.accept(flag, scan))?;
        Ok(opts)
    }

    /// Applies `flag` if it is one of the shared experiment flags,
    /// reading its value from `scan`; returns `false`, reading nothing,
    /// for any other argument. A subcommand's scan hands it the shared
    /// flags it reads.
    pub fn accept(&mut self, flag: &str, scan: &mut ArgScanner) -> Result<bool, OptionsError> {
        const COUNT: &str = "a non-negative integer";
        match flag {
            "--quick" => self.quick = scan.switch("--quick")?,
            // Kept for scripts that still pass it; corpus loads always
            // map.
            "--mmap" => _ = scan.switch("--mmap")?,
            "--profile" => self.profile = scan.switch("--profile")?,
            "--heal" => self.heal = scan.switch("--heal")?,
            "--threads" => self.threads = scan.parse("--threads", COUNT)?,
            "--seed" => self.seed = Some(scan.parse("--seed", COUNT)?),
            // Zero trials would measure nothing.
            "--trials" => {
                let trials: NonZeroUsize = scan.parse("--trials", "a positive integer")?;
                self.trials = Some(trials.get());
            }
            "--out" => self.out = Some(scan.value("--out")?.into()),
            "--trace" => self.trace = Some(scan.value("--trace")?.into()),
            "--corpus" => self.corpus = Some(scan.value("--corpus")?.into()),
            "--sizes" => {
                let raw = scan.value("--sizes")?;
                let sizes: Vec<usize> = raw
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .unwrap_or_default();
                if sizes.is_empty() {
                    return Err(OptionsError::BadValue {
                        flag: "--sizes",
                        value: raw,
                        expected: "a comma-separated list like 512,1024",
                    });
                }
                self.sizes = Some(sizes);
            }
            _ => return Ok(false),
        }
        Ok(true)
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
            "--trials",
            "9",
            "--sizes",
            "128,256,512",
            "--corpus",
            "corpus-dir",
            "--mmap",
            "--profile",
            "--heal",
            "--trace",
            "run.trace.json",
        ])
        .unwrap();
        assert!(opts.quick);
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
        // The CSV sink is gone; experiments take no positionals.
        for args in [&["--format=csv"][..], &["--format", "jsonl"], &["dir"]] {
            assert!(matches!(parse(args), Err(OptionsError::Unknown { .. })));
        }
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
        // Accepted, and changes nothing.
        assert_eq!(
            parse(&["--mmap", "--corpus", "dir"]).unwrap(),
            parse(&["--corpus", "dir"]).unwrap()
        );
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
