#!/usr/bin/env python3
"""The repository benchmark: runs one workload of real `xp` experiments
and prints its metrics.

    python3 perfbench/run.py --workload t1w-grid --seed 1 --seconds 15 --trace 0

Run from the repository root. It builds `xp` and the traced replay
(`perfbench/replay`) in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), sets the workload up, then measures it for `--seconds`:

* `--trace 0` repeats the untraced `xp` sweep and reports the end-to-end
  metrics (medians over the repetitions);
* `--trace 1` alternates an untraced sweep with a traced replay and
  reports the per-layer metrics derived from the replay's spans.

Both check the program's output. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

# Seed whose cell records are pinned in digests.json.
DEFAULT_SEED = 1
# Every workload runs one process at a time with two workers (2 cores).
THREADS = 2
# Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 3
# Any single child process slower than this counts as failed.
CHILD_TIMEOUT_S = 150

WORKLOADS = {
    # The traffic the experiments spend their time in: the six informed()
    # lanes race on the full Móri (p, m) grid, two of them superlinear.
    "t1w-grid": {
        "experiment": "theorem1-weak",
        "sizes": benchlib.SEARCH_SIZES["t1w-grid"],
        "trials": 24,
        "cells": 72,
        "key": ("p", "m", "searcher", "n"),
        # The (p, m) cells in the order theorem1-weak (and the replay) run
        # them; ROADMAP item 1 probed the Móri(0.3, 3) cell alone.
        "grid": [(p, m) for p in (0.3, 0.6, 1.0) for m in (1, 3)],
        "probe_cell": (0.3, 3),
        # Set-up is a warm-up launch of the same experiment: the --quick
        # (p, m) cell at a small size, enough trials to keep its cost steady.
        "warmup": ["--quick", "--sizes", "1024", "--trials", "256"],
    },
    # O(1)-per-request lanes on mmap-loaded BA graphs, one size inside a
    # core's 2 MiB L2 and one (~2.6 MB) beyond it, served from the corpus
    # handle cache: the oracle, corpus reads and engine carry the run.
    # Set-up builds and verifies the corpus.
    "null-corpus": {
        "experiment": "null-model",
        "sizes": benchlib.SEARCH_SIZES["null-corpus"],
        "trials": 80,
        "cells": 8,
        "key": ("variant", "searcher", "n"),
        # Request counts depend mostly on the graph, so the corpus stores
        # as many graphs as set-up can afford; each is searched twice, the
        # second time from the handle cache.
        "corpus": {"model": "ba:m=2", "trials": 40, "variants": 1, "swaps": 1},
    },
    # No search at all: graph generation and the power-law MLE fit, six
    # models at n = 200000.
    "degree-fit": {
        "experiment": "degree-dist",
        "sizes": [200000],
        "trials": 4,
        "cells": 6,
        "key": ("model",),
        "warmup": ["--sizes", "20000", "--trials", "2"],
    },
}

END_TO_END = [
    ("sweep_s", "s"),
    ("setup_s", "s"),
    ("work_per_cpu_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]


class Checks:
    """Counts output checks; every failure is also logged to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("CHECK FAILED: " + message, file=sys.stderr)
        return ok


def stolen_s():
    """CPU time the hypervisor has stolen from this machine so far, per
    CPU (the `steal` column of /proc/stat; 0 where there is none)."""
    try:
        with open("/proc/stat") as f:
            ticks = int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK") / os.cpu_count()


class Child:
    """One finished child process: exit status, wall and CPU time, peak
    resident memory, and its captured stdout.

    `wall_s` is net of the time the hypervisor stole meanwhile: on a
    shared host that steal swings wall times by ±25% from one minute to
    the next, while the program's own cost stays put. `steal_s` is what
    was taken off."""

    def __init__(self, cmd, cwd, stdout_path):
        stolen = stolen_s()
        start = time.perf_counter()
        with open(stdout_path, "wb") as out:
            proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=subprocess.PIPE)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                stderr = proc.stderr.read()
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.steal_s = stolen_s() - stolen
        self.wall_s = time.perf_counter() - start - self.steal_s
        self.ok = proc.returncode == 0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
        with open(stdout_path, encoding="utf-8", errors="replace") as f:
            self.stdout = f.read()
        if not self.ok:
            sys.stderr.write(stderr.decode(errors="replace")[-2000:])


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.name = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.join(root, target)
        self.xp = os.path.join(self.target, "release", "xp")
        self.replay = os.path.join(self.target, "release", "perfbench-replay")
        self.work = os.path.join(root, ".bench_work", "%s-%d-%d" % (workload, seed, os.getpid()))
        self.corpus = os.path.join(self.work, "corpus")
        self.kept_trace = os.path.join(root, ".bench_work", "%s.trace.json" % workload)
        self.checks = Checks()
        self.runs = 0
        self.probe_costs = []

    def path(self, name):
        return os.path.join(self.work, name)

    def child(self, cmd, tag):
        self.runs += 1
        return Child(cmd, self.root, self.path("%s-%d.out" % (tag, self.runs)))

    # ----------------------------------------------------------- set-up

    def setup_once(self):
        """One set-up: the corpus build plus its first open (a full
        `corpus verify --mmap`), or a warm-up launch. Returns seconds."""
        corpus = self.w.get("corpus")
        if corpus:
            shutil.rmtree(self.corpus, ignore_errors=True)
            built = self.child([
                self.xp, "corpus", "build", self.corpus, "--model", corpus["model"],
                "--sizes", ",".join(map(str, self.w["sizes"])), "--trials", str(corpus["trials"]),
                "--variants", str(corpus["variants"]), "--swaps", str(corpus["swaps"]),
                "--seed", str(self.seed), "--threads", str(THREADS)], "build")
            opened = self.child([self.xp, "corpus", "verify", self.corpus, "--mmap"], "verify")
            self.checks.check(built.ok and opened.ok, "corpus build and verify exit 0")
            return built.wall_s + opened.wall_s
        child = self.child([self.xp, self.w["experiment"]] + self.w["warmup"] + [
            "--threads", str(THREADS), "--seed", str(self.seed)], "warmup")
        self.checks.check(child.ok, "warm-up exits 0")
        return child.wall_s

    # ------------------------------------------------------------ sweeps

    def sweep_cmd(self, out):
        cmd = [self.xp, self.w["experiment"], "--sizes", ",".join(map(str, self.w["sizes"])),
               "--trials", str(self.w["trials"]), "--threads", str(THREADS),
               "--seed", str(self.seed), "--out", out]
        if "corpus" in self.w:
            cmd += ["--corpus", self.corpus, "--mmap"]
        return cmd

    def sweep(self):
        """One untraced `xp` sweep, exactly as a user runs it. Returns the
        finished child and its cell records."""
        out = self.path("sweep.jsonl")
        child = self.child(self.sweep_cmd(out), "sweep")
        cells = []
        if self.checks.check(child.ok, "xp %s exits 0" % self.w["experiment"]):
            with open(out, encoding="utf-8") as f:
                cells = benchlib.cell_lines(f.read())
        if "corpus" in self.w:
            self.checks.check("note: generating" not in child.stdout and "corpus:" in child.stdout,
                              "xp %s served its graphs from the corpus" % self.w["experiment"])
        return child, cells

    def check_cells(self, cells, first):
        """Checks one sweep's cell records: the expected count, sane
        values, identical to the first sweep, the corpus actually used,
        and the committed digest at the default seed."""
        c = self.checks
        c.check(len(cells) == self.w["cells"],
                "%d cell records, expected %d" % (len(cells), self.w["cells"]))
        if first is not None:
            c.check(cells == first, "cell records identical across repetitions")
            return
        for line in cells:
            try:
                cell = json.loads(line)
                value = cell.get("mean", cell.get("exponent"))
                ok = isinstance(value, (int, float)) and math.isfinite(value) and value > 0
                ok = ok and 0.0 <= cell.get("success", 1.0) <= 1.0
            except ValueError:
                ok = False
            c.check(ok, "cell record is finite and in range: %.100s" % line)
        if self.seed == DEFAULT_SEED:
            with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as f:
                want = json.load(f).get(self.name)
            got = benchlib.cell_digest(cells)
            c.check(got == want, "cell digest %s, committed %s" % (got, want))

    def work_done(self, cells):
        """The sweep's units of work: oracle requests on the search
        workloads, requested graph vertices on degree-fit."""
        if self.name == "degree-fit":
            return 6 * self.w["trials"] * self.w["sizes"][-1]
        return sum(benchlib.cell_requests(cells, lane) for lane in benchlib.SEARCH_LANES[self.name])

    # ----------------------------------------------------------- replay

    def replay_once(self, xp_cells):
        """One traced replay. Checks it against the sweep's cells and
        returns (per-layer metrics, replayed workload wall seconds)."""
        trace = self.path("replay.trace.json")
        cmd = [self.replay, self.name, "--seed", str(self.seed),
               "--sizes", ",".join(map(str, self.w["sizes"])),
               "--trials", str(self.w["trials"]), "--trace", trace]
        corpus = self.w.get("corpus")
        if corpus:
            replay_corpus = self.path("replay-corpus")
            shutil.rmtree(replay_corpus, ignore_errors=True)
            cmd += ["--corpus", replay_corpus, "--corpus-trials", str(corpus["trials"]),
                    "--swaps", str(corpus["swaps"])]
        child = self.child(cmd, "replay")
        if not self.checks.check(child.ok, "replay exits 0"):
            return None, None
        # The per-run directory is removed on exit; the last trace stays.
        shutil.copyfile(trace, self.kept_trace)
        summary = json.loads(child.stdout.strip().splitlines()[-1])
        with open(trace, encoding="utf-8") as f:
            events = benchlib.parse_trace(f.read())
        checked, failed, messages = benchlib.compare_cells(xp_cells, summary["cells"], self.w["key"])
        for message in messages:
            print("CHECK FAILED: " + message, file=sys.stderr)
        self.checks.attempted += checked
        self.checks.failed += failed
        for lane in {entry["lane"] for entry in summary["lanes"]}:
            got = sum(e["requests"] for e in summary["lanes"] if e["lane"] == lane)
            want = benchlib.cell_requests(xp_cells, lane)
            self.checks.check(got == want, "%s replay requests %d, xp cells %d" % (lane, got, want))
        if summary["lanes"]:
            err = benchlib.lane_reconcile_error(events)
            self.checks.check(err <= 0.01, "lane spans reconcile with search time (gap %.4f)" % err)
        metrics = benchlib.layer_metrics(events, summary, xp_cells)
        if "probe_cell" in self.w:
            self.probe_costs.append(self.probe_cell_costs(events, xp_cells))
        totals = benchlib.total_by_name(events)
        workload_us = (totals.get("replay.workload", 0) - totals.get("corpus.build", 0)
                       - totals.get("corpus.open", 0))
        # Net of steal, like the sweep it is compared with.
        unstolen = child.wall_s / (child.wall_s + child.steal_s)
        return metrics, workload_us / 1e6 * unstolen

    def probe_cell_costs(self, events, xp_cells):
        """ns/request of each lane in the probe cell alone, attributing
        lane spans to the `engine.cell` span they ran in."""
        cells = [(p, m, n) for p, m in self.w["grid"] for n in self.w["sizes"]]
        parsed = [(json.loads(line), line) for line in xp_cells]
        costs = {}
        for (p, m, n), totals in zip(cells, benchlib.totals_within(events, "engine.cell")):
            if (p, m) != self.w["probe_cell"]:
                continue
            mine = [line for cell, line in parsed if (cell["p"], cell["m"], cell["n"]) == (p, m, n)]
            for lane in benchlib.SEARCH_LANES[self.name]:
                requests = benchlib.cell_requests(mine, lane)
                span_us = totals.get("search.%s.n%d" % (lane, n), 0)
                costs["search.%s.ns_per_request.n%d" % (lane, n)] = benchlib.ratio(span_us * 1e3, requests)
        return costs

    # -------------------------------------------------------------- run

    def run(self, seconds, trace):
        os.makedirs(self.work, exist_ok=True)
        setup = [self.setup_once() for _ in range(SETUP_REPS)]
        # Let set-up's file writes reach the disk before timing, so the
        # kernel's write-back does not compete with the measured sweeps.
        os.sync()
        start = time.perf_counter()
        sweeps, first, layers, replay_walls = [], None, [], []
        while not sweeps or time.perf_counter() - start < seconds:
            child, cells = self.sweep()
            if not child.ok:
                break
            self.check_cells(cells, first)
            first = first if first is not None else cells
            sweeps.append((child, self.work_done(cells)))
            if trace:
                metrics, wall = self.replay_once(cells)
                if metrics is None:
                    break
                layers.append(metrics)
                replay_walls.append(wall)
                os.sync()  # the replay wrote a corpus of its own
        if not sweeps or (trace and not layers):
            return None
        sweep_s = statistics.median([c.wall_s for c, _ in sweeps])
        if trace:
            out = {name: statistics.median([m[name] for m in layers])
                   for name, _unit in benchlib.per_layer_names()
                   if name not in ("trace.overhead_share", "host.steal_share")}
            out["trace.overhead_share"] = statistics.median(replay_walls) / sweep_s - 1.0
            out["host.steal_share"] = statistics.median(
                [c.steal_s / (c.wall_s + c.steal_s) for c, _ in sweeps])
            units = dict(benchlib.per_layer_names())
        else:
            out = {
                "sweep_s": sweep_s,
                "setup_s": statistics.median(setup),
                "work_per_cpu_s": statistics.median([w / c.cpu_s for c, w in sweeps]),
                "cpu_s": statistics.median([c.cpu_s for c, _ in sweeps]),
                "peak_rss_mb": statistics.median([c.peak_rss_mb for c, _ in sweeps]),
            }
            units = dict(END_TO_END)
        print("%s seed %d: %d sweeps, %d replays, cells digest %s" % (
            self.name, self.seed, len(sweeps), len(layers), benchlib.cell_digest(first or [])))
        if trace:
            print("Chrome trace of the last replay (Perfetto loads it): " + self.kept_trace)
        if self.probe_costs:
            p, m = self.w["probe_cell"]
            for name in self.probe_costs[0]:
                print("probe cell mori(p=%g,m=%d) %-44s %10.1f ns/request" % (
                    p, m, name, statistics.median([c[name] for c in self.probe_costs])))
        return {name: {"value": value, "unit": units[name]} for name, value in out.items()}


def build(root, target):
    """Builds `xp` and the replay in release mode; cargo's output goes to
    stderr so the last stdout line stays the result."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "nonsearch_bench", "--bin", "xp"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "replay", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "bench"))):
        print("run.py: run from the repository root (no Cargo.toml / crates/bench here)",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    if not build(root, bench.target):
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        metrics = bench.run(args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if metrics is None:
        print("run.py: no successful sweep", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print("%-48s %16.6g %s" % (name, m["value"], m["unit"]))
    checks = bench.checks
    print("fail_ratio %.6g (%d of %d checks failed)" % (
        benchlib.ratio(checks.failed, checks.attempted), checks.failed, checks.attempted))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
