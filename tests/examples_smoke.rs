//! Smoke test: every example must keep building and running.
//!
//! Examples are the workspace's front door and are not otherwise
//! exercised by `cargo test`; this guard keeps them from silently
//! rotting. It shells back out to the same `cargo` that is driving the
//! test run (the `CARGO` environment variable cargo sets for its
//! children), so profiles and the build cache are shared. Each example
//! runs in a few seconds at most in a debug build.

use std::process::Command;

/// Runs `cargo run --example name` and asserts that it succeeds and that
/// its output contains `closing`, a stable phrase from its last lines,
/// so a truncated or panicking run cannot pass.
fn run_example(name: &str, closing: &str) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let output = Command::new(cargo)
        .args([
            "run",
            "--quiet",
            "--example",
            name,
            "--manifest-path",
            manifest,
        ])
        .output()
        .unwrap_or_else(|e| panic!("spawning `cargo run --example {name}`: {e}"));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{name} exited with {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        output.status.code(),
    );
    assert!(
        stdout.contains(closing),
        "{name} output missing {closing:?}:\n{stdout}"
    );
}

#[test]
fn quickstart_example_runs() {
    // Ends on the paper's headline comparison.
    run_example("quickstart", "lower bound");
}

#[test]
fn p2p_lookup_example_runs() {
    run_example("p2p_lookup", "provably hidden");
}

#[test]
fn web_frontier_example_runs() {
    run_example("web_frontier", "to find fresh content");
}

#[test]
fn navigability_atlas_example_runs() {
    run_example(
        "navigability_atlas",
        "negative answer to Kleinberg's question",
    );
}
