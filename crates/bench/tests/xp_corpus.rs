//! End-to-end tests of the corpus subsystem through the `xp` binary:
//! build determinism across thread counts, every file's bytes pinned by
//! a committed checksum fixture, corpus-backed experiments
//! reproducing the generate-per-trial records (a `--heal` run over a
//! corrupt corpus included), and the null-model experiment's record
//! stream.

use nonsearch_corpus::{nsg, Manifest};
use nonsearch_engine::{parse_json, validate_jsonl, JsonValue, CELL_TYPE};
use std::path::PathBuf;
use std::process::{Command, Output};

fn xp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(args)
        .output()
        .expect("xp binary runs")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn temp_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("xp_corpus_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::remove_file(&p).ok();
    p
}

/// The manifest minus its volatile `"build"` footer, reserialized.
fn deterministic_manifest(dir: &std::path::Path) -> String {
    let text = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest exists");
    let JsonValue::Object(pairs) = parse_json(text.trim()).expect("manifest parses") else {
        panic!("manifest is not a JSON object");
    };
    JsonValue::Object(pairs.into_iter().filter(|(k, _)| k != "build").collect()).to_string()
}

fn cell_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| {
            parse_json(l)
                .expect("every emitted line parses")
                .get("type")
                .and_then(|t| t.as_str())
                .map(|t| t == CELL_TYPE)
                .unwrap_or(false)
        })
        .collect()
}

#[test]
fn corpus_build_is_byte_identical_across_thread_counts() {
    let dir1 = temp_path("build_t1");
    let dir8 = temp_path("build_t8");
    for (dir, threads) in [(&dir1, "1"), (&dir8, "8")] {
        let out = xp(&[
            "corpus",
            "build",
            dir.to_str().unwrap(),
            "--sizes",
            "64,128",
            "--trials",
            "2",
            "--seed",
            "9",
            "--variants",
            "1",
            "--swaps",
            "4",
            "--threads",
            threads,
        ]);
        assert_ok(&out, "corpus build");
    }

    // Manifests agree modulo the volatile build footer…
    assert_eq!(deterministic_manifest(&dir1), deterministic_manifest(&dir8));

    // …and every stored .nsg file is byte-identical.
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir1.join("graphs"))
        .expect("graphs dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 8, "2 sizes × 2 trials × (1 + 1 variant)");
    for file in files {
        let name = file.file_name().expect("file name");
        let a = std::fs::read(&file).expect("read t1 file");
        let b = std::fs::read(dir8.join("graphs").join(name)).expect("read t8 twin");
        assert_eq!(a, b, "{} differs across thread counts", file.display());
    }

    // The built corpus passes its own verifier.
    let out = xp(&["corpus", "verify", dir1.to_str().unwrap()]);
    assert_ok(&out, "corpus verify");
    let out = xp(&["corpus", "info", dir1.to_str().unwrap()]);
    assert_ok(&out, "corpus info");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("mori(p=0.6,m=1)"), "{stdout}");

    std::fs::remove_dir_all(&dir1).ok();
    std::fs::remove_dir_all(&dir8).ok();
}

/// Every `.nsg` file of a fresh build as `file checksum` lines, in
/// manifest order, each checksum the XXH64 of the file's bytes.
fn file_checksum_lines(dir: &std::path::Path) -> String {
    let manifest = Manifest::read_from(dir).expect("manifest reads");
    let mut lines = String::new();
    for entry in &manifest.graphs {
        let files = std::iter::once(&entry.file).chain(entry.variants.iter().map(|v| &v.file));
        for file in files {
            let bytes = std::fs::read(dir.join(file)).expect("stored file reads");
            lines += &format!("{file} {:016x}\n", nsg::xxh64(&bytes));
        }
    }
    lines
}

/// A BA corpus with two rewired variants per graph reproduces the
/// committed checksums of every file at one and two threads: the
/// generator, the edge-swap chain and the `.nsg` encoder are pinned
/// byte for byte.
#[test]
fn corpus_build_matches_the_committed_checksums() {
    let fixture = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/corpus_ba.checksums"),
    )
    .expect("fixture reads");
    assert_eq!(
        fixture.lines().count(),
        24,
        "2 sizes × 4 trials × (1 + 2 variants)"
    );
    for threads in ["1", "2"] {
        let dir = temp_path(&format!("fixture_t{threads}"));
        let out = xp(&[
            "corpus",
            "build",
            dir.to_str().unwrap(),
            "--model",
            "ba:m=2",
            "--sizes",
            "1024,4096",
            "--trials",
            "4",
            "--variants",
            "2",
            "--swaps",
            "10",
            "--seed",
            "1",
            "--threads",
            threads,
        ]);
        assert_ok(&out, "corpus build");
        assert_eq!(file_checksum_lines(&dir), fixture, "--threads {threads}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn theorem1_weak_with_corpus_matches_generate_per_trial() {
    let corpus_dir = temp_path("e1_corpus");
    // Build with the experiment's model (the default spec), seed, and
    // sizes — the configuration under which the corpus serves the exact
    // graphs the experiment would generate.
    let out = xp(&[
        "corpus",
        "build",
        corpus_dir.to_str().unwrap(),
        "--sizes",
        "128,256",
        "--trials",
        "3",
        "--seed",
        "7",
        "--variants",
        "0",
    ]);
    assert_ok(&out, "corpus build");

    let generated = temp_path("e1_generate.jsonl");
    let corpus_backed = temp_path("e1_corpus.jsonl");
    let common = [
        "theorem1-weak",
        "--quick",
        "--sizes",
        "128,256",
        "--trials",
        "3",
        "--seed",
        "7",
        "--out",
    ];

    let mut args: Vec<&str> = common.to_vec();
    args.push(generated.to_str().unwrap());
    let out = xp(&args);
    assert_ok(&out, "generate-per-trial run");

    let mut args: Vec<&str> = common.to_vec();
    args.push(corpus_backed.to_str().unwrap());
    args.extend(["--corpus", corpus_dir.to_str().unwrap()]);
    let out = xp(&args);
    assert_ok(&out, "corpus-backed run");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("graphs: corpus:"),
        "run should announce the corpus:\n{stdout}"
    );

    let a = std::fs::read_to_string(&generated).unwrap();
    let b = std::fs::read_to_string(&corpus_backed).unwrap();
    assert!(validate_jsonl(&a).is_ok());
    assert!(validate_jsonl(&b).is_ok());
    let cells_a = cell_lines(&a);
    assert!(!cells_a.is_empty());
    // The headline acceptance: statistical output is byte-identical.
    assert_eq!(cells_a, cell_lines(&b));

    std::fs::remove_dir_all(&corpus_dir).ok();
    std::fs::remove_file(&generated).ok();
    std::fs::remove_file(&corpus_backed).ok();
}

#[test]
fn theorem1_weak_with_mmap_matches_heap_load_and_generate() {
    let corpus_dir = temp_path("mmap_corpus");
    let out = xp(&[
        "corpus",
        "build",
        corpus_dir.to_str().unwrap(),
        "--sizes",
        "128,256",
        "--trials",
        "3",
        "--seed",
        "7",
        "--variants",
        "0",
    ]);
    assert_ok(&out, "corpus build");
    // `--mmap` is still accepted, and changes nothing.
    let out = xp(&["corpus", "verify", corpus_dir.to_str().unwrap(), "--mmap"]);
    assert_ok(&out, "corpus verify --mmap");

    let generated = temp_path("mmap_generate.jsonl");
    let heap_backed = temp_path("mmap_heap.jsonl");
    let mmap_backed = temp_path("mmap_mmap.jsonl");
    let common = [
        "theorem1-weak",
        "--quick",
        "--sizes",
        "128,256",
        "--trials",
        "3",
        "--seed",
        "7",
        "--out",
    ];

    let mut args: Vec<&str> = common.to_vec();
    args.push(generated.to_str().unwrap());
    assert_ok(&xp(&args), "generate-per-trial run");

    let mut args: Vec<&str> = common.to_vec();
    args.push(heap_backed.to_str().unwrap());
    args.extend(["--corpus", corpus_dir.to_str().unwrap()]);
    assert_ok(&xp(&args), "heap corpus-backed run");

    let mut args: Vec<&str> = common.to_vec();
    args.push(mmap_backed.to_str().unwrap());
    args.extend(["--corpus", corpus_dir.to_str().unwrap(), "--mmap"]);
    let out = xp(&args);
    assert_ok(&out, "mmap corpus-backed run");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("graphs: corpus:"),
        "run should announce the corpus:\n{stdout}"
    );

    let a = std::fs::read_to_string(&generated).unwrap();
    let b = std::fs::read_to_string(&heap_backed).unwrap();
    let c = std::fs::read_to_string(&mmap_backed).unwrap();
    assert!(validate_jsonl(&c).is_ok());
    let cells_a = cell_lines(&a);
    assert!(!cells_a.is_empty());
    // The headline acceptance: a run passing `--mmap` serves graphs —
    // and thus statistical records — byte-identical to both a run
    // without it and the generate-per-trial path.
    assert_eq!(cells_a, cell_lines(&c));
    assert_eq!(cell_lines(&b), cell_lines(&c));

    std::fs::remove_dir_all(&corpus_dir).ok();
    std::fs::remove_file(&generated).ok();
    std::fs::remove_file(&heap_backed).ok();
    std::fs::remove_file(&mmap_backed).ok();
}

#[test]
fn theorem1_weak_with_heal_repairs_a_corrupt_corpus() {
    let corpus_dir = temp_path("heal_corpus");
    let out = xp(&[
        "corpus",
        "build",
        corpus_dir.to_str().unwrap(),
        "--sizes",
        "128,256",
        "--trials",
        "3",
        "--seed",
        "7",
        "--variants",
        "0",
    ]);
    assert_ok(&out, "corpus build");
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir.join("graphs"))
        .expect("graphs dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    let victim = &files[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(victim, &bytes).unwrap();

    let generated = temp_path("heal_generate.jsonl");
    let healed = temp_path("heal_corpus.jsonl");
    let common = [
        "theorem1-weak",
        "--quick",
        "--sizes",
        "128,256",
        "--trials",
        "3",
        "--seed",
        "7",
        "--out",
    ];
    let mut args: Vec<&str> = common.to_vec();
    args.push(generated.to_str().unwrap());
    assert_ok(&xp(&args), "generate-per-trial run");

    let mut args: Vec<&str> = common.to_vec();
    args.push(healed.to_str().unwrap());
    args.extend(["--corpus", corpus_dir.to_str().unwrap(), "--heal"]);
    assert_ok(&xp(&args), "healing corpus-backed run");

    // The corrupt blob was parked, and the healed run's records are the
    // generate-per-trial ones.
    let parked = corpus_dir
        .join("quarantine")
        .join(victim.file_name().unwrap());
    assert_eq!(std::fs::read(&parked).unwrap(), bytes);
    let a = std::fs::read_to_string(&generated).unwrap();
    let b = std::fs::read_to_string(&healed).unwrap();
    let cells_a = cell_lines(&a);
    assert!(!cells_a.is_empty());
    assert_eq!(cells_a, cell_lines(&b));

    std::fs::remove_dir_all(&corpus_dir).ok();
    std::fs::remove_file(&generated).ok();
    std::fs::remove_file(&healed).ok();
}

#[test]
fn null_model_quick_emits_cell_records() {
    let out_path = temp_path("null_model.jsonl");
    let out = xp(&[
        "null-model",
        "--quick",
        "--sizes",
        "64,128",
        "--trials",
        "3",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_ok(&out, "null-model run");

    let text = std::fs::read_to_string(&out_path).unwrap();
    let summary = validate_jsonl(&text).unwrap();
    // 2 sizes × 2 variants × 2 searchers.
    assert_eq!(summary.cells, 8, "{text}");
    let mut variants_seen = std::collections::BTreeSet::new();
    for line in cell_lines(&text) {
        let cell = parse_json(line).unwrap();
        variants_seen.insert(
            cell.get("variant")
                .and_then(|v| v.as_str())
                .expect("variant field")
                .to_string(),
        );
        let success = cell
            .get("success")
            .and_then(|v| v.as_f64())
            .expect("success field");
        assert!((0.0..=1.0).contains(&success));
    }
    assert_eq!(
        variants_seen.into_iter().collect::<Vec<_>>(),
        vec!["original".to_string(), "rewired".to_string()]
    );
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn null_model_uses_corpus_variants_when_available() {
    let corpus_dir = temp_path("nm_corpus");
    let out = xp(&[
        "corpus",
        "build",
        corpus_dir.to_str().unwrap(),
        "--model",
        "ba:m=2",
        "--sizes",
        "64,128",
        "--trials",
        "3",
        "--seed",
        "3605", // null-model's default seed 0xE15
        "--variants",
        "1",
    ]);
    assert_ok(&out, "corpus build");

    let out_path = temp_path("nm_corpus.jsonl");
    let out = xp(&[
        "null-model",
        "--quick",
        "--sizes",
        "64,128",
        "--trials",
        "3",
        "--corpus",
        corpus_dir.to_str().unwrap(),
        "--mmap",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_ok(&out, "corpus-backed null-model run");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("null graphs: corpus:") && stdout.contains("#v0"),
        "run should announce the stored variants:\n{stdout}"
    );
    let text = std::fs::read_to_string(&out_path).unwrap();
    assert_eq!(validate_jsonl(&text).unwrap().cells, 8);

    std::fs::remove_dir_all(&corpus_dir).ok();
    std::fs::remove_file(&out_path).ok();
}
