//! The five workspace contracts, as machine-checked rules.
//!
//! Every rule reads source through [`crate::scan`], so comments and
//! string literals never trigger findings. Findings are
//! [`Diagnostic`]s; an inline waiver
//! `// lint: allow(<rule>): <reason>` on the flagged line (or on a
//! comment line directly above it) downgrades the finding to *waived*,
//! which `xp lint` reports but does not fail on. A waiver without a
//! reason is itself a finding (`waiver-syntax`) and cannot be waived.
//!
//! | rule | contract |
//! |------|----------|
//! | `unsafe-confinement` | `unsafe` only in `graph/src/storage.rs`, `corpus/src/mmap.rs` and `alloc_counter/src/lib.rs`; every crate root declares `forbid`/`deny(unsafe_code)` |
//! | `determinism` | no `HashMap`/`HashSet` in non-test engine/search/core/corpus code without a waiver |
//! | `clock-env` | `Instant::now`/`SystemTime`/`env::var` only in the obs crate and record timestamps |
//! | `alloc-free` | no allocating calls inside functions annotated `// lint: alloc-free` |
//! | `record-schema` | every `*_TYPE` record tag in `record.rs` has an `xp validate` arm in `registry.rs` |

use crate::scan::{find_token, has_token, scan, ScannedFile};
use std::collections::BTreeMap;

/// The three modules blessed to contain `unsafe` code.
pub const UNSAFE_HOMES: [&str; 3] = [
    "crates/graph/src/storage.rs",
    "crates/corpus/src/mmap.rs",
    "crates/alloc_counter/src/lib.rs",
];
/// The file blessed to read clocks or the environment directly (run
/// record timestamps).
pub const CLOCK_BLESSED_FILE: &str = "crates/engine/src/record.rs";
/// Directory prefix blessed for clock access (the observability crate).
pub const CLOCK_BLESSED_DIR: &str = "crates/obs/src/";
/// Crates whose non-test code must not use hash-ordered collections.
pub const DETERMINISM_CRATES: [&str; 4] = [
    "crates/engine/src/",
    "crates/search/src/",
    "crates/core/src/",
    "crates/corpus/src/",
];
/// Where the `*_TYPE` record tags are defined.
pub const RECORD_FILE: &str = "crates/engine/src/record.rs";
/// Where `xp validate` must dispatch on each tag.
pub const VALIDATE_FILE: &str = "crates/engine/src/registry.rs";

/// Calls that allocate, banned inside `// lint: alloc-free` functions.
const ALLOC_TOKENS: [&str; 12] = [
    "Vec::new",
    "VecDeque::new",
    "String::new",
    "Box::new",
    "HashMap::new",
    "HashSet::new",
    "BTreeMap::new",
    "vec!",
    "format!",
    "to_string",
    "to_owned",
    "collect",
];

/// Clock and environment reads that must stay behind the obs seam.
const CLOCK_TOKENS: [&str; 4] = ["Instant::now", "SystemTime", "env::var", "env::var_os"];

/// A rule's identity and the contract it enforces, for `xp lint --rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id, used in diagnostics and waivers.
    pub id: &'static str,
    /// One-line statement of the contract.
    pub contract: &'static str,
}

/// The five shipped rules, in reporting order.
pub const RULES: [RuleInfo; 5] = [
    RuleInfo {
        id: "unsafe-confinement",
        contract: "unsafe only in graph/storage.rs, corpus/mmap.rs, alloc_counter; \
                   crate roots declare forbid/deny(unsafe_code)",
    },
    RuleInfo {
        id: "determinism",
        contract: "no HashMap/HashSet in non-test engine/search/core/corpus code",
    },
    RuleInfo {
        id: "clock-env",
        contract: "Instant::now/SystemTime/env::var only in obs and record.rs",
    },
    RuleInfo {
        id: "alloc-free",
        contract: "no allocating calls inside `// lint: alloc-free` functions",
    },
    RuleInfo {
        id: "record-schema",
        contract: "every *_TYPE tag in record.rs has an xp validate arm in registry.rs",
    },
];

/// One finding: a rule, a place, and whether a waiver covers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (one of [`RULES`], or `waiver-syntax`).
    pub rule: String,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number (file-scope findings use line 1).
    pub line: usize,
    /// Human-readable description of the finding.
    pub message: String,
    /// The waiver reason when an inline waiver covers this finding.
    pub waived: Option<String>,
}

/// The outcome of linting a file set.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Number of files scanned.
    pub files: usize,
    /// All findings, waived and not, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Findings covered by an inline waiver.
    pub fn waived(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.waived.is_some())
            .count()
    }

    /// Unwaived findings — the count `xp lint` fails on.
    pub fn violations(&self) -> usize {
        self.diagnostics.len() - self.waived()
    }
}

/// Waivers extracted from one file's comments.
#[derive(Debug, Default)]
struct FileWaivers {
    /// 0-based line → (rule, reason) waivers effective on that line.
    by_line: BTreeMap<usize, Vec<(String, String)>>,
    /// Every (rule, reason) waiver in the file, for file-scope findings.
    anywhere: Vec<(String, String)>,
    /// 0-based lines of functions annotated `// lint: alloc-free`.
    alloc_free_fns: Vec<usize>,
    /// Malformed `lint:` comments (0-based line, message).
    malformed: Vec<(usize, String)>,
}

/// Lints an in-memory file set: path (repo-relative, forward slashes)
/// → source text. This is the pure core `xp lint` and the unit tests
/// share.
pub fn lint_files(files: &BTreeMap<String, String>) -> LintReport {
    let scanned: BTreeMap<&str, ScannedFile> = files
        .iter()
        .map(|(path, text)| (path.as_str(), scan(text)))
        .collect();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for (&path, file) in &scanned {
        let waivers = extract_waivers(file);
        for &(line, ref message) in &waivers.malformed {
            diags.push(Diagnostic {
                rule: "waiver-syntax".into(),
                path: path.into(),
                line: line + 1,
                message: message.clone(),
                waived: None,
            });
        }
        let mut found = Vec::new();
        check_unsafe(path, file, &mut found);
        check_determinism(path, file, &mut found);
        check_clock_env(path, file, &mut found);
        check_alloc_free(path, file, &waivers, &mut found);
        apply_waivers(&waivers, &mut found);
        diags.extend(found);
    }
    let mut schema = Vec::new();
    check_record_schema(&scanned, &mut schema);
    if let Some(file) = scanned.get(RECORD_FILE) {
        let waivers = extract_waivers(file);
        apply_waivers(&waivers, &mut schema);
    }
    diags.extend(schema);
    diags.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    LintReport {
        files: files.len(),
        diagnostics: diags,
    }
}

/// Parses `lint:` comments into waivers, alloc-free markers, and
/// malformed-waiver findings, attaching each to the line it governs
/// (its own line, or the next line carrying code when the comment
/// stands alone).
fn extract_waivers(file: &ScannedFile) -> FileWaivers {
    let mut out = FileWaivers::default();
    for (lineno, line) in file.lines.iter().enumerate() {
        // Only comments that *start* with the marker are directives;
        // prose mentioning the syntax (like this crate's docs) is not.
        let Some(directive) = line.comment.trim_start().strip_prefix("lint:") else {
            continue;
        };
        let directive = directive.trim();
        let effective = if line.code.trim().is_empty() {
            // Standalone comment: governs the next line with code.
            file.lines
                .iter()
                .enumerate()
                .skip(lineno + 1)
                .find(|(_, l)| !l.code.trim().is_empty())
                .map(|(j, _)| j)
                .unwrap_or(lineno)
        } else {
            lineno
        };
        if directive == "alloc-free" {
            out.alloc_free_fns.push(effective);
            continue;
        }
        match parse_allow(directive) {
            Ok((rule, reason)) => {
                out.by_line
                    .entry(effective)
                    .or_default()
                    .push((rule.clone(), reason.clone()));
                out.anywhere.push((rule, reason));
            }
            Err(message) => out.malformed.push((lineno, message)),
        }
    }
    out
}

/// Parses `allow(<rule>): <reason>` after the `lint:` marker.
fn parse_allow(directive: &str) -> Result<(String, String), String> {
    let rest = directive.strip_prefix("allow(").ok_or_else(|| {
        format!("malformed lint directive {directive:?}: expected `allow(<rule>): <reason>` or `alloc-free`")
    })?;
    let close = rest
        .find(')')
        .ok_or_else(|| format!("malformed waiver {directive:?}: missing `)`"))?;
    let rule = rest[..close].trim();
    if rule.is_empty() {
        return Err(format!("malformed waiver {directive:?}: empty rule id"));
    }
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix(':').map(str::trim).unwrap_or_default();
    if reason.is_empty() {
        return Err(format!(
            "waiver for {rule:?} has no reason: write `lint: allow({rule}): <why>`"
        ));
    }
    Ok((rule.to_string(), reason.to_string()))
}

/// Marks findings covered by a waiver for their rule on their line, or
/// (for file-scope findings at line 1 with no code match) anywhere in
/// the file.
fn apply_waivers(waivers: &FileWaivers, found: &mut [Diagnostic]) {
    for d in found.iter_mut() {
        let on_line = waivers
            .by_line
            .get(&(d.line - 1))
            .into_iter()
            .flatten()
            .find(|(rule, _)| *rule == d.rule);
        let file_scope = d
            .message
            .contains("crate root")
            .then(|| waivers.anywhere.iter().find(|(rule, _)| *rule == d.rule))
            .flatten();
        if let Some((_, reason)) = on_line.or(file_scope) {
            d.waived = Some(reason.clone());
        }
    }
}

/// Is this path inside a test/bench/example tree (skipped by the
/// code-hygiene rules, which govern shipped code only)?
fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|part| matches!(part, "tests" | "benches" | "examples"))
}

/// Rule 1: unsafe confinement — no `unsafe` tokens outside the blessed
/// modules, and every crate root declares `forbid`/`deny(unsafe_code)`.
fn check_unsafe(path: &str, file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if !UNSAFE_HOMES.contains(&path) {
        for (lineno, line) in file.lines.iter().enumerate() {
            if has_token(&line.code, "unsafe") {
                out.push(Diagnostic {
                    rule: "unsafe-confinement".into(),
                    path: path.into(),
                    line: lineno + 1,
                    message: format!(
                        "`unsafe` outside the blessed modules ({})",
                        UNSAFE_HOMES.join(", ")
                    ),
                    waived: None,
                });
            }
        }
    }
    let is_crate_root =
        path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"));
    if is_crate_root {
        let declared = file.lines.iter().any(|line| {
            line.code.contains("forbid(unsafe_code)") || line.code.contains("deny(unsafe_code)")
        });
        if !declared {
            out.push(Diagnostic {
                rule: "unsafe-confinement".into(),
                path: path.into(),
                line: 1,
                message: "crate root declares neither #![forbid(unsafe_code)] nor \
                          #![deny(unsafe_code)]"
                    .into(),
                waived: None,
            });
        }
    }
}

/// Rule 2: determinism hazards — hash-ordered collections in the
/// aggregate-bearing crates need a waiver explaining why iteration
/// order cannot reach a result.
fn check_determinism(path: &str, file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if is_test_path(path) || !DETERMINISM_CRATES.iter().any(|c| path.starts_with(c)) {
        return;
    }
    for (lineno, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in ["HashMap", "HashSet"] {
            if has_token(&line.code, token) {
                out.push(Diagnostic {
                    rule: "determinism".into(),
                    path: path.into(),
                    line: lineno + 1,
                    message: format!(
                        "{token} in deterministic-aggregate code: iteration order is \
                         randomized per process; use BTreeMap/BTreeSet or waive with \
                         a proof that order never reaches an aggregate"
                    ),
                    waived: None,
                });
            }
        }
    }
}

/// Rule 3: clock/env hygiene — wall clocks and environment reads stay
/// behind the obs crate and the record timestamps.
fn check_clock_env(path: &str, file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if is_test_path(path) || path.starts_with(CLOCK_BLESSED_DIR) || path == CLOCK_BLESSED_FILE {
        return;
    }
    for (lineno, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in CLOCK_TOKENS {
            if has_token(&line.code, token) {
                out.push(Diagnostic {
                    rule: "clock-env".into(),
                    path: path.into(),
                    line: lineno + 1,
                    message: format!(
                        "{token} outside the obs/profile seam: clocks and environment \
                         reads are nondeterministic inputs"
                    ),
                    waived: None,
                });
            }
        }
    }
}

/// Rule 4: alloc-free regions — functions annotated
/// `// lint: alloc-free` must not contain allocating calls.
fn check_alloc_free(
    path: &str,
    file: &ScannedFile,
    waivers: &FileWaivers,
    out: &mut Vec<Diagnostic>,
) {
    for &fn_line in &waivers.alloc_free_fns {
        let Some(line) = file.lines.get(fn_line) else {
            continue;
        };
        if !has_token(&line.code, "fn") {
            out.push(Diagnostic {
                rule: "alloc-free".into(),
                path: path.into(),
                line: fn_line + 1,
                message: "`lint: alloc-free` marker is not followed by a function".into(),
                waived: None,
            });
            continue;
        }
        // Brace-match the function body on the masked code. The
        // signature line is scanned too, so one-line bodies count.
        let mut depth = 0i64;
        let mut opened = false;
        for (j, body_line) in file.lines.iter().enumerate().skip(fn_line) {
            for token in ALLOC_TOKENS {
                if has_token(&body_line.code, token) {
                    out.push(Diagnostic {
                        rule: "alloc-free".into(),
                        path: path.into(),
                        line: j + 1,
                        message: format!(
                            "{token} inside alloc-free function (annotated on line {})",
                            fn_line + 1
                        ),
                        waived: None,
                    });
                }
            }
            for c in body_line.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
        }
    }
}

/// Rule 5: record-schema consistency — every `*_TYPE` tag constant in
/// `record.rs` must be dispatched on (compared with `==`) by the
/// validator in `registry.rs`.
fn check_record_schema(scanned: &BTreeMap<&str, ScannedFile>, out: &mut Vec<Diagnostic>) {
    let (Some(record), Some(registry)) = (scanned.get(RECORD_FILE), scanned.get(VALIDATE_FILE))
    else {
        return;
    };
    for (lineno, line) in record.lines.iter().enumerate() {
        if line.in_test || !has_token(&line.code, "const") || !line.code.contains("&str") {
            continue;
        }
        let Some(name) = type_const_name(&line.code) else {
            continue;
        };
        let dispatched = registry
            .lines
            .iter()
            .any(|l| !l.in_test && l.code.contains("==") && has_token(&l.code, &name));
        if !dispatched {
            out.push(Diagnostic {
                rule: "record-schema".into(),
                path: RECORD_FILE.into(),
                line: lineno + 1,
                message: format!(
                    "record tag {name} has no `xp validate` arm in {VALIDATE_FILE}: \
                     every emitted record type must be validatable"
                ),
                waived: None,
            });
        }
    }
}

/// Extracts the `NAME_TYPE` identifier from a `const NAME_TYPE: &str`
/// declaration line.
fn type_const_name(code: &str) -> Option<String> {
    let start = find_token(code, "const")? + "const".len();
    let rest = code[start..].trim_start();
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (ident.ends_with("_TYPE") && ident.len() > "_TYPE".len()).then_some(ident)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, text: &str) -> LintReport {
        let mut files = BTreeMap::new();
        files.insert(path.to_string(), text.to_string());
        lint_files(&files)
    }

    fn rules_of(report: &LintReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.rule.as_str()).collect()
    }

    // --- rule 1: unsafe-confinement ----------------------------------------

    #[test]
    fn unsafe_flags_outside_blessed_modules() {
        let bad = "pub fn peek(p: *const u8) -> u8 { unsafe { *p } }\n";
        let report = lint_one("crates/search/src/fast.rs", bad);
        assert_eq!(rules_of(&report), vec!["unsafe-confinement"]);
        assert_eq!(lint_one("crates/graph/src/storage.rs", bad).violations(), 0);
        // `unsafe_code` in an attribute is not the `unsafe` keyword.
        let attr = "#![forbid(unsafe_code)]\n";
        assert_eq!(lint_one("crates/search/src/fast.rs", attr).violations(), 0);
    }

    #[test]
    fn crate_roots_must_declare_an_unsafe_stance() {
        let bare = "pub fn f() {}\n";
        let report = lint_one("crates/search/src/lib.rs", bare);
        assert_eq!(rules_of(&report), vec!["unsafe-confinement"]);
        assert_eq!(report.diagnostics[0].line, 1);
        assert_eq!(
            lint_one(
                "crates/search/src/lib.rs",
                "#![deny(unsafe_code)]\npub fn f() {}\n"
            )
            .violations(),
            0
        );
        // Non-root files carry no such obligation.
        assert_eq!(lint_one("crates/search/src/other.rs", bare).violations(), 0);
        // A file-scope waiver anywhere in the file covers the root finding.
        let waived = "// lint: allow(unsafe-confinement): this crate IS the unsafe allocator\n\
                      pub fn f() {}\n";
        assert_eq!(lint_one("crates/search/src/lib.rs", waived).violations(), 0);
    }

    // --- rule 2: determinism -----------------------------------------------

    #[test]
    fn determinism_flags_hash_collections_in_engine_crates() {
        let bad = "use std::collections::HashMap;\n";
        let report = lint_one("crates/core/src/thing.rs", bad);
        assert_eq!(rules_of(&report), vec!["determinism"]);
        // Outside the aggregate-bearing crates the rule is silent.
        assert_eq!(lint_one("crates/analysis/src/fit.rs", bad).violations(), 0);
        // Test modules may hash freely.
        let in_test = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert_eq!(
            lint_one("crates/core/src/thing.rs", in_test).violations(),
            0
        );
        // Doc comments mentioning HashMap are prose, not hazards.
        let doc = "/// Unlike a HashMap, iteration order here is sorted.\nstruct S;\n";
        assert_eq!(lint_one("crates/core/src/thing.rs", doc).violations(), 0);
    }

    #[test]
    fn determinism_waiver_downgrades() {
        let waived = "use std::collections::HashMap; // lint: allow(determinism): keyed \
                      lookup only, never iterated\n";
        let report = lint_one("crates/corpus/src/store.rs", waived);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.violations(), 0);
    }

    // --- rule 3: clock-env -------------------------------------------------

    #[test]
    fn clock_env_flags_raw_clocks_outside_the_seam() {
        let bad = "let t0 = std::time::Instant::now();\n";
        let report = lint_one("crates/search/src/walker.rs", bad);
        assert_eq!(rules_of(&report), vec!["clock-env"]);
        // The obs crate and the profile/record seams are blessed.
        assert_eq!(lint_one("crates/obs/src/timer.rs", bad).violations(), 0);
        assert_eq!(lint_one("crates/engine/src/record.rs", bad).violations(), 0);
        // Bench and test trees measure time legitimately.
        assert_eq!(lint_one("crates/bench/benches/b.rs", bad).violations(), 0);
        // env::var_os is caught, not just env::var.
        let env = "let home = std::env::var_os(\"HOME\");\n";
        assert_eq!(
            rules_of(&lint_one("crates/core/src/x.rs", env)),
            vec!["clock-env"]
        );
    }

    #[test]
    fn clock_env_waiver_downgrades() {
        let waived = "// lint: allow(clock-env): profile timing, reported not aggregated\n\
                      let t0 = std::time::Instant::now();\n";
        let report = lint_one("crates/bench/src/chaos.rs", waived);
        assert_eq!(report.violations(), 0);
        assert_eq!(report.diagnostics.len(), 1);
    }

    // --- rule 4: alloc-free ------------------------------------------------

    #[test]
    fn alloc_free_flags_allocations_in_annotated_fns() {
        let bad = "// lint: alloc-free\n\
                   pub fn reset(&mut self) {\n\
                       let spill = Vec::new();\n\
                       self.used += format!(\"{spill:?}\").len();\n\
                   }\n\
                   pub fn other(&self) -> Vec<u8> { vec![0] }\n";
        let report = lint_one("crates/search/src/hot.rs", bad);
        assert_eq!(rules_of(&report), vec!["alloc-free", "alloc-free"]);
        // The unannotated neighbour allocates freely.
        assert!(report.diagnostics.iter().all(|d| d.line <= 5));
    }

    #[test]
    fn alloc_free_clean_fn_passes_and_bad_marker_is_flagged() {
        let clean = "// lint: alloc-free\n\
                     pub fn advance(&mut self) -> usize {\n\
                         self.cursor += 1;\n\
                         self.cursor\n\
                     }\n";
        assert_eq!(lint_one("crates/search/src/hot.rs", clean).violations(), 0);
        let dangling = "// lint: alloc-free\nstatic X: usize = 3;\n";
        let report = lint_one("crates/search/src/hot.rs", dangling);
        assert_eq!(rules_of(&report), vec!["alloc-free"]);
        assert!(report.diagnostics[0].message.contains("not followed"));
    }

    // --- rule 5: record-schema ---------------------------------------------

    fn schema_files(record: &str, registry: &str) -> BTreeMap<String, String> {
        let mut files = BTreeMap::new();
        files.insert(RECORD_FILE.to_string(), record.to_string());
        files.insert(VALIDATE_FILE.to_string(), registry.to_string());
        files
    }

    #[test]
    fn record_schema_requires_a_validate_arm_per_tag() {
        let record = "pub const CELL_TYPE: &str = \"cell\";\n\
                      pub const ROGUE_TYPE: &str = \"rogue\";\n";
        let registry = "fn validate(t: &str) { if t == CELL_TYPE { checked(); } }\n";
        let report = lint_files(&schema_files(record, registry));
        assert_eq!(rules_of(&report), vec!["record-schema"]);
        assert_eq!(report.diagnostics[0].line, 2);
        assert!(report.diagnostics[0].message.contains("ROGUE_TYPE"));
        // With both arms present the rule is satisfied.
        let full = "fn validate(t: &str) { if t == CELL_TYPE || t == ROGUE_TYPE {} }\n";
        assert_eq!(lint_files(&schema_files(record, full)).violations(), 0);
        // A bare import of the const is not a dispatch.
        let import_only =
            "use crate::record::{CELL_TYPE, ROGUE_TYPE};\nfn validate(t: &str) { if t == CELL_TYPE {} }\n";
        assert_eq!(
            rules_of(&lint_files(&schema_files(record, import_only))),
            vec!["record-schema"]
        );
    }

    // --- waiver syntax -----------------------------------------------------

    #[test]
    fn malformed_waivers_are_unwaivable_findings() {
        for bad in [
            "// lint: allow(determinism)\nuse std::collections::HashMap;\n",
            "// lint: allow(): because\nlet x = 1;\n",
            "// lint: allow determinism: because\nlet x = 1;\n",
        ] {
            let report = lint_one("crates/core/src/x.rs", bad);
            assert!(
                rules_of(&report).contains(&"waiver-syntax"),
                "expected waiver-syntax in {:?}",
                rules_of(&report)
            );
            assert!(report.violations() >= 1, "{bad}");
        }
    }

    #[test]
    fn waiver_for_the_wrong_rule_does_not_cover() {
        let wrong = "use std::collections::HashMap; // lint: allow(clock-env): oops\n";
        let report = lint_one("crates/core/src/x.rs", wrong);
        assert_eq!(report.violations(), 1);
        assert_eq!(
            report
                .diagnostics
                .iter()
                .filter(|d| d.rule == "determinism")
                .count(),
            1
        );
    }

    #[test]
    fn string_literals_never_trip_rules() {
        let tricky = "let s = \"use std::collections::HashMap; unsafe { epoch == u32::MAX } \
                      Instant::now()\";\n";
        assert_eq!(lint_one("crates/core/src/x.rs", tricky).violations(), 0);
    }

    // --- fixtures ----------------------------------------------------------

    #[test]
    fn every_rule_has_one_fixture_that_trips_it() {
        let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let mut dirs: Vec<String> = std::fs::read_dir(&fixtures)
            .expect("fixtures are readable")
            .map(|entry| entry.expect("fixture entry").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .collect();
        dirs.sort();
        let mut ids: Vec<String> = RULES.iter().map(|rule| rule.id.replace('-', "_")).collect();
        ids.sort();
        assert_eq!(dirs, ids, "fixture directories vs rule ids");
        for dir in &dirs {
            let files = crate::walk::collect_workspace(&fixtures.join(dir)).expect("fixture");
            let rule = dir.replace('_', "-");
            let report = lint_files(&files);
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.rule == rule && d.waived.is_none()),
                "fixture {dir} does not trip {rule}: {:?}",
                report.diagnostics
            );
        }
    }
}
