"""Arithmetic of the benchmark: percentiles, trace self time, ratios,
cell checks and the per-layer metrics derived from a traced replay.

Everything here is pure (no processes, no clocks), so
`test_benchlib.py` covers it directly.
"""

import hashlib
import json
import math

# A percentile is reported only when at least this many samples lie
# beyond it; otherwise the tail is too thin to mean anything.
MIN_BEYOND = 10

# Lane and size layout of the two search workloads, shared by run.py
# (to name the metrics) and by the per-layer arithmetic below.
SEARCH_LANES = {
    "t1w-grid": ["avoiding-walk", "high-degree", "greedy-id", "oldest-first",
                 "lookahead-walk", "sim-strong-high-degree"],
    "null-corpus": ["high-degree", "bfs-flood"],
}
SEARCH_SIZES = {"t1w-grid": [4096, 16384], "null-corpus": [16384, 65536]}
ALL_LANES = ["avoiding-walk", "high-degree", "greedy-id", "oldest-first",
             "lookahead-walk", "sim-strong-high-degree", "bfs-flood"]


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank `q`-quantile (0 < q < 1) of `samples`, or None when
    fewer than `min_beyond` samples lie strictly above its rank (which
    includes the empty case)."""
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = max(1, math.ceil(len(ordered) * q))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def ratio(part, base):
    """`part / base`, and 0.0 for an empty base (the base is always
    reported beside the ratio, so a 0 over a 0 base reads as "none")."""
    return part / base if base else 0.0


# ---------------------------------------------------------------- traces

def parse_trace(text):
    """Complete ("X") events of a Chrome trace as (name, tid, ts, dur)
    tuples, timestamps in microseconds."""
    events = json.loads(text)["traceEvents"]
    return [(e["name"], e["tid"], e["ts"], e["dur"]) for e in events if e.get("ph") == "X"]


def self_times(events):
    """Self time per span name: each span's duration minus the part of
    its interval that its direct child spans (same thread, nested in
    time) cover. Returns {name: microseconds}."""
    out = {}
    by_tid = {}
    for name, tid, ts, dur in events:
        by_tid.setdefault(tid, []).append((ts, -dur, name))
    for spans in by_tid.values():
        spans.sort()
        # Stack entries: [name, start, end, covered-by-children].
        stack = []

        def close(entry):
            out[entry[0]] = out.get(entry[0], 0) + (entry[2] - entry[1]) - entry[3]

        for ts, neg_dur, name in spans:
            end = ts - neg_dur
            while stack and ts >= stack[-1][2]:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                # Clip to the parent: timestamps are truncated to whole
                # microseconds, so a child can overhang by one.
                parent[3] += max(0, min(end, parent[2]) - ts)
            stack.append([name, ts, end, 0])
        while stack:
            close(stack.pop())
    return out


def total_by_name(events):
    """Summed duration per span name, in microseconds."""
    out = {}
    for name, _tid, _ts, dur in events:
        out[name] = out.get(name, 0) + dur
    return out


def durations(events, name):
    """Durations (µs) of every span called `name`."""
    return [dur for n, _tid, _ts, dur in events if n == name]


def totals_within(events, outer):
    """For each span called `outer`, in start order, the summed duration
    per name of the spans (any thread) that start inside its interval."""
    windows = sorted((ts, ts + dur) for name, _tid, ts, dur in events if name == outer)
    out = [{} for _ in windows]
    for name, _tid, ts, dur in events:
        if name == outer:
            continue
        for i, (start, end) in enumerate(windows):
            if start <= ts < end:
                out[i][name] = out[i].get(name, 0) + dur
                break
    return out


# ----------------------------------------------------------------- cells

def cell_lines(jsonl_text):
    """The `"type":"cell"` records of an `xp --out` JSONL file, verbatim."""
    return [line for line in jsonl_text.splitlines() if line.startswith('{"type":"cell"')]


def cell_digest(lines):
    """SHA-256 over the cell records, one per line, in emitted order."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cell_key(cell, fields):
    return tuple(cell.get(f) for f in fields)


def compare_cells(xp_cells, replay_cells, key_fields):
    """Checks that every replayed cell equals the `xp` cell with the same
    key on every field the replay reports. Returns (checks, failures,
    messages): one check per `xp` cell and per replayed cell `xp` lacks;
    a missing, extra, unparsable or differing cell is one failure."""
    failures, messages = 0, []
    replay = {cell_key(c, key_fields): c for c in replay_cells}
    seen = set()
    for line in xp_cells:
        try:
            cell = json.loads(line)
        except ValueError:
            failures += 1
            messages.append("unparsable cell record: %.80s" % line)
            continue
        key = cell_key(cell, key_fields)
        seen.add(key)
        mine = replay.get(key)
        if mine is None:
            failures += 1
            messages.append("no replayed cell for %s" % (key,))
            continue
        diffs = [f for f in mine if f in cell and cell[f] != mine[f]]
        missing = [f for f in mine if f not in cell]
        if diffs or missing:
            failures += 1
            messages.append("cell %s differs on %s" % (key, diffs + missing))
    extra = [key for key in replay if key not in seen]
    for key in extra:
        failures += 1
        messages.append("replayed cell %s missing from xp output" % (key,))
    return len(xp_cells) + len(extra), failures, messages


def cell_requests(xp_cells, lane):
    """Exact requests a lane served: sum over its cells of mean × trials
    (each trial's request count is an integer)."""
    total = 0
    for line in xp_cells:
        cell = json.loads(line)
        if cell.get("searcher") == lane:
            total += round(cell["mean"] * cell["trials"])
    return total


# ------------------------------------------------------ per-layer metrics

def per_layer_names():
    """Every per-layer metric with its unit, in report order. The same
    names are reported on every workload; a layer a workload never calls
    reads 0 there."""
    names = [
        ("engine.busy_share", "share"),
        ("engine.wait_s", "s"),
        ("engine.self_share", "share"),
        ("generators.ns_per_vertex", "ns/vertex"),
        ("generators.busy_share", "share"),
        ("corpus.build_mb_per_s", "MB/s"),
        ("corpus.cold_load_ms_p50", "ms/load"),
        ("corpus.cold_loads", "count"),
        ("corpus.cache_hit_ratio", "share"),
        ("corpus.lookups", "count"),
        ("corpus.busy_share", "share"),
        ("search.busy_share", "share"),
    ]
    for lane in ALL_LANES:
        for workload, lanes in SEARCH_LANES.items():
            if lane in lanes:
                for n in SEARCH_SIZES[workload]:
                    names.append(("search.%s.ns_per_request.n%d" % (lane, n), "ns/request"))
        names += [
            ("search.%s.requests" % lane, "count"),
            ("search.%s.success_ratio" % lane, "share"),
            ("search.%s.busy_share" % lane, "share"),
        ]
    for workload in SEARCH_LANES:
        for n in SEARCH_SIZES[workload]:
            names.append(("search.oracle.ns_per_request.n%d" % n, "ns/request"))
    names = list(dict.fromkeys(names))  # the workloads share some sizes
    names += [
        ("analysis.fit_ms_p50", "ms/fit"),
        ("analysis.fits", "count"),
        ("analysis.busy_share", "share"),
        ("trace.overhead_share", "share"),
        ("host.steal_share", "share"),
    ]
    return names


def layer_metrics(events, summary, xp_cells):
    """Per-layer metrics of one traced replay.

    `events` is the parsed trace, `summary` the replay's stdout JSON
    (exact counts), `xp_cells` the cell records of the matching `xp` run
    (for success ratios). Shares are over worker busy time, the summed
    `engine.trial` spans. Returns {name: value} for every name in
    per_layer_names() except trace.overhead_share and host.steal_share,
    which come from the untraced sweeps.
    """
    total = total_by_name(events)
    layer = {}
    for name, dur in total.items():
        head = name.split(".", 1)[0]
        layer[head] = layer.get(head, 0) + dur
    busy = total.get("engine.trial", 0)
    cell_wall = total.get("engine.cell", 0) * summary["workers"]
    m = {name: 0.0 for name, _unit in per_layer_names()}
    m["engine.busy_share"] = ratio(busy, cell_wall)
    m["engine.wait_s"] = (cell_wall - busy) / 1e6
    m["engine.self_share"] = ratio(self_times(events).get("engine.trial", 0), busy)
    m["generators.ns_per_vertex"] = ratio(total.get("generators.trial_graph", 0) * 1e3,
                                          summary["vertices"])
    m["generators.busy_share"] = ratio(layer.get("generators", 0), busy)
    build_us = total.get("corpus.build", 0)
    m["corpus.build_mb_per_s"] = ratio(summary["corpus_bytes"] / 1e6, build_us / 1e6)
    p50 = percentile(durations(events, "corpus.cold_load"), 0.5)
    m["corpus.cold_load_ms_p50"] = p50 / 1e3 if p50 is not None else 0.0
    m["corpus.cold_loads"] = summary["corpus_cold_loads"]
    m["corpus.lookups"] = summary["corpus_lookups"]
    m["corpus.cache_hit_ratio"] = ratio(summary["corpus_lookups"] - summary["corpus_cold_loads"],
                                        summary["corpus_lookups"])
    m["corpus.busy_share"] = ratio(total.get("corpus.cold_load", 0) + total.get("corpus.cache_hit", 0),
                                   busy)
    m["search.busy_share"] = ratio(total.get("search.race", 0), busy)
    requests = {}
    for entry in summary["lanes"]:
        lane, n = entry["lane"], entry["n"]
        span = total.get("search.%s.n%d" % (lane, n), 0)
        m["search.%s.ns_per_request.n%d" % (lane, n)] = ratio(span * 1e3, entry["requests"])
        requests[lane] = requests.get(lane, 0) + entry["requests"]
    for lane, count in requests.items():
        m["search.%s.requests" % lane] = count
        lane_us = sum(dur for name, dur in total.items()
                      if name.startswith("search.%s.n" % lane))
        m["search.%s.busy_share" % lane] = ratio(lane_us, busy)
        runs = wins = 0.0
        for line in xp_cells:
            cell = json.loads(line)
            if cell.get("searcher") == lane:
                runs += cell["trials"]
                wins += cell["success"] * cell["trials"]
        m["search.%s.success_ratio" % lane] = ratio(wins, runs)
    for entry in summary["oracle"]:
        span = total.get("search.oracle.n%d" % entry["n"], 0)
        m["search.oracle.ns_per_request.n%d" % entry["n"]] = ratio(span * 1e3, entry["requests"])
    fit = percentile(durations(events, "analysis.fit_power_law_mle"), 0.5)
    m["analysis.fit_ms_p50"] = fit / 1e3 if fit is not None else 0.0
    m["analysis.fits"] = summary["fits"]
    m["analysis.busy_share"] = ratio(layer.get("analysis", 0), busy)
    return m


def lane_reconcile_error(events):
    """Relative gap between the summed lane spans (`search.<lane>.n<N>`)
    and the summed `search.race` spans that enclose them (0 when nothing
    searched)."""
    total = total_by_name(events)
    race = total.get("search.race", 0)
    lanes = sum(dur for name, dur in total.items()
                if name.startswith("search.") and name.count(".") == 2
                and not name.startswith("search.oracle."))
    return ratio(abs(race - lanes), race)
