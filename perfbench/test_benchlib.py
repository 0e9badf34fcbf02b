"""Tests of the benchmark's own arithmetic.

    python3 perfbench/test_benchlib.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402
import run  # noqa: E402


def span(name, ts, dur, tid=1):
    return (name, tid, ts, dur)


def cell(**fields):
    record = {"type": "cell", "experiment": "theorem1-weak"}
    record.update(fields)
    return json.dumps(record, separators=(",", ":"))


class Percentiles(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        self.assertEqual(benchlib.percentile(range(1, 21), 0.5), 10)
        self.assertIsNone(benchlib.percentile(range(1, 20), 0.5))
        self.assertEqual(benchlib.percentile(range(1, 101), 0.9), 90)
        self.assertIsNone(benchlib.percentile(range(1, 100), 0.9))

    def test_unsorted_input(self):
        samples = list(range(30, 0, -1))
        self.assertEqual(benchlib.percentile(samples, 0.5), 15)

    def test_empty_samples(self):
        self.assertIsNone(benchlib.percentile([], 0.5))
        self.assertEqual(benchlib.percentile([], 0.5, min_beyond=0), None)


class Ratios(unittest.TestCase):
    def test_ratio_and_empty_base(self):
        self.assertEqual(benchlib.ratio(3, 4), 0.75)
        self.assertEqual(benchlib.ratio(0, 0), 0.0)
        self.assertEqual(benchlib.ratio(5, 0), 0.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        events = [
            span("parent", 0, 100),
            span("child", 10, 20),
            span("child", 40, 20),
            span("grandchild", 45, 5),
        ]
        out = benchlib.self_times(events)
        self.assertEqual(out["parent"], 60)
        self.assertEqual(out["child"], 35)
        self.assertEqual(out["grandchild"], 5)

    def test_threads_do_not_nest_into_each_other(self):
        events = [span("a", 0, 100, tid=1), span("b", 10, 20, tid=2)]
        self.assertEqual(benchlib.self_times(events), {"a": 100, "b": 20})

    def test_truncated_child_overhang_is_clipped(self):
        # Microsecond truncation can end a child one tick after its parent.
        events = [span("parent", 0, 10), span("child", 5, 6)]
        out = benchlib.self_times(events)
        self.assertEqual(out["parent"], 5)
        self.assertEqual(out["child"], 6)

    def test_siblings_after_a_parent_ends(self):
        events = [span("a", 0, 10), span("b", 10, 10)]
        self.assertEqual(benchlib.self_times(events), {"a": 10, "b": 10})

    def test_empty_trace(self):
        self.assertEqual(benchlib.self_times([]), {})

    def test_totals_within_outer_windows(self):
        events = [
            span("cell", 100, 50),
            span("cell", 0, 100),
            span("lane", 10, 20, tid=2),
            span("lane", 60, 30, tid=3),
            span("lane", 120, 5, tid=2),
            span("other", 110, 1, tid=3),
            span("late", 500, 1),
        ]
        self.assertEqual(benchlib.totals_within(events, "cell"),
                         [{"lane": 50}, {"lane": 5, "other": 1}])
        self.assertEqual(benchlib.totals_within(events, "missing"), [])


class Cells(unittest.TestCase):
    XP = [
        cell(p=0.3, m=1, searcher="high-degree", n=64, trials=4, mean=10.25, ci95=1.5, success=1.0),
        cell(p=0.3, m=1, searcher="lookahead-walk", n=64, trials=4, mean=7.0, ci95=0.5, success=0.75),
    ]
    REPLAY = [
        {"p": 0.3, "m": 1, "searcher": "high-degree", "n": 64, "mean": 10.25, "ci95": 1.5, "success": 1.0},
        {"p": 0.3, "m": 1, "searcher": "lookahead-walk", "n": 64, "mean": 7.0, "ci95": 0.5, "success": 0.75},
    ]
    KEY = ("p", "m", "searcher", "n")

    def test_matching_cells_pass(self):
        self.assertEqual(benchlib.compare_cells(self.XP, self.REPLAY, self.KEY), (2, 0, []))

    def test_corrupted_cell_counts_as_failure(self):
        corrupted = [self.XP[0].replace('"mean":10.25', '"mean":10.5'), self.XP[1]]
        checks, failures, messages = benchlib.compare_cells(corrupted, self.REPLAY, self.KEY)
        self.assertEqual((checks, failures), (2, 1))
        self.assertIn("mean", messages[0])
        truncated = [self.XP[0][:40], self.XP[1]]
        self.assertEqual(benchlib.compare_cells(truncated, self.REPLAY, self.KEY)[:2], (3, 2))

    def test_missing_and_extra_cells_fail(self):
        self.assertEqual(benchlib.compare_cells(self.XP[:1], self.REPLAY, self.KEY)[:2], (2, 1))
        self.assertEqual(benchlib.compare_cells(self.XP, self.REPLAY[:1], self.KEY)[:2], (2, 1))

    def test_digest_sees_any_change(self):
        digest = benchlib.cell_digest(self.XP)
        self.assertEqual(digest, benchlib.cell_digest(list(self.XP)))
        self.assertNotEqual(digest, benchlib.cell_digest([self.XP[0].replace("10.25", "10.26"), self.XP[1]]))
        self.assertNotEqual(digest, benchlib.cell_digest(self.XP[::-1]))

    def test_cell_lines_keep_only_cells(self):
        text = "\n".join([self.XP[0], '{"type":"run","cells":1}', self.XP[1]])
        self.assertEqual(benchlib.cell_lines(text), self.XP)

    def test_exact_requests_from_means(self):
        self.assertEqual(benchlib.cell_requests(self.XP, "high-degree"), 41)
        self.assertEqual(benchlib.cell_requests(self.XP, "bfs-flood"), 0)


class LayerMetrics(unittest.TestCase):
    SUMMARY = {
        "workers": 2,
        "lanes": [{"lane": "high-degree", "n": 64, "requests": 40},
                  {"lane": "lookahead-walk", "n": 64, "requests": 10}],
        "oracle": [{"n": 64, "requests": 100}],
        "vertices": 128,
        "fits": 0,
        "corpus_bytes": 0,
        "corpus_lookups": 0,
        "corpus_cold_loads": 0,
    }
    EVENTS = [
        span("engine.cell", 0, 1000),
        span("engine.trial", 0, 900, tid=2),
        span("generators.trial_graph", 0, 100, tid=2),
        span("search.race", 100, 790, tid=2),
        span("search.high-degree.n64", 100, 400, tid=2),
        span("search.lookahead-walk.n64", 500, 390, tid=2),
        span("engine.trial", 0, 800, tid=3),
        span("generators.trial_graph", 0, 100, tid=3),
        span("search.race", 100, 700, tid=3),
        span("search.high-degree.n64", 100, 300, tid=3),
        span("search.lookahead-walk.n64", 400, 400, tid=3),
        span("search.oracle.n64", 1000, 50),
    ]

    def metrics(self):
        return benchlib.layer_metrics(self.EVENTS, self.SUMMARY, Cells.XP)

    def test_engine_busy_and_wait(self):
        m = self.metrics()
        self.assertAlmostEqual(m["engine.busy_share"], 1700 / 2000)
        self.assertAlmostEqual(m["engine.wait_s"], 300e-6)
        self.assertAlmostEqual(m["engine.self_share"], 10 / 1700)

    def test_per_lane_costs_and_shares(self):
        m = self.metrics()
        self.assertAlmostEqual(m["search.high-degree.ns_per_request.n64"], 700e3 / 40)
        self.assertAlmostEqual(m["search.lookahead-walk.ns_per_request.n64"], 790e3 / 10)
        self.assertEqual(m["search.high-degree.requests"], 40)
        self.assertAlmostEqual(m["search.high-degree.busy_share"], 700 / 1700)
        self.assertAlmostEqual(m["search.lookahead-walk.success_ratio"], 0.75)
        self.assertAlmostEqual(m["search.oracle.ns_per_request.n64"], 50e3 / 100)
        self.assertAlmostEqual(m["generators.ns_per_vertex"], 200e3 / 128)
        lanes = m["search.high-degree.busy_share"] + m["search.lookahead-walk.busy_share"]
        self.assertAlmostEqual(lanes, m["search.busy_share"], delta=0.01)
        self.assertAlmostEqual(benchlib.lane_reconcile_error(self.EVENTS), 0.0)

    def test_absent_layers_read_zero(self):
        m = self.metrics()
        for name in ("corpus.cold_load_ms_p50", "corpus.cache_hit_ratio", "corpus.build_mb_per_s",
                     "analysis.fit_ms_p50", "search.bfs-flood.requests"):
            self.assertEqual(m[name], 0.0, name)

    def test_reconcile_detects_untraced_search_time(self):
        events = self.EVENTS + [span("search.race", 2000, 1000, tid=4)]
        self.assertGreater(benchlib.lane_reconcile_error(events), 0.01)

    def test_every_name_is_reported(self):
        names = {name for name, _unit in benchlib.per_layer_names()}
        self.assertLessEqual(names, set(self.metrics()))


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_reported_metrics(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         benchlib.per_layer_names())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
