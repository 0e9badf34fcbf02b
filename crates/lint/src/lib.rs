//! `nonsearch_lint` — the workspace's invariant linter, behind
//! `xp lint`.
//!
//! The reproduction's headline guarantee — bit-identical Monte-Carlo
//! aggregates for any `--threads` — rests on contracts that no single
//! type signature can express: `unsafe` stays inside three audited
//! modules, hot paths never allocate, hash-ordered iteration never
//! reaches an aggregate, wall clocks stay behind the observability
//! seam, and every record type can be validated. This crate turns
//! those conventions into a machine-checked static-analysis pass, in
//! the repo's dependency-free style: no `syn`, no proc-macros, no
//! network — just a comment- and string-literal-aware scanner
//! ([`scan`]) and five rules ([`rules`]) over the masked code.
//!
//! Findings are structured [`Diagnostic`]s; intentional ones carry an
//! inline waiver `// lint: allow(<rule>): <reason>` and are reported
//! without failing the run. The CLI ([`cli`]) emits JSON Lines through
//! the engine's record vocabulary (`"type":"diagnostic"` /
//! `"type":"lint"`), so `xp validate` checks lint reports like any
//! other run artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod rules;
pub mod scan;
pub mod walk;

pub use rules::{lint_files, Diagnostic, LintReport, RuleInfo, RULES};
pub use scan::{has_token, scan as scan_source, ScannedFile, ScannedLine};
pub use walk::collect_workspace;
