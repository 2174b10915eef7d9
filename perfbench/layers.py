"""Per-layer metrics of the traced run.

Spans come from ``spans.py`` dumps.  A layer's busy time is the summed
duration of its spans (no wrapped function calls itself, so spans of one
name never nest); self time is the duration minus the time its child
spans cover.  Counts and times are divided by the number of operations.
"""

from __future__ import annotations

import statistics

import numpy as np

# (span name, statistics reported for it)
SPAN_METRICS = (
    ("scenario.load_scenario", ("calls", "busy_us")),
    ("harness.run_scenario", ("calls", "self_us")),
    ("harness.with_param", ("busy_us",)),
    ("harness.sweep_csv", ("busy_ms",)),
    ("entangle.generate_entangled", ("busy_us",)),
    ("entangle.squeezing_variances", ("calls",)),
    ("gain_opt", ("calls", "busy_us")),
    ("detection.method_a_joint", ("calls", "busy_us")),
    ("detection.method_b_channels", ("calls",)),
    ("detection.method_c_single_port", ("calls",)),
    ("states.construct", ("calls", "busy_us")),
    ("states.compose", ("busy_us",)),
    ("states.apply_beamsplitter", ("calls", "busy_us")),
    ("states.apply_loss", ("calls", "busy_us")),
    ("states.sample_fluctuations", ("calls", "busy_ms", "draws")),
)
STAT_UNITS = {"calls": "count", "draws": "count", "busy_us": "us", "self_us": "us",
              "busy_ms": "ms"}
IMPORT_PACKAGES = ("scipy", "numpy", "click")
CLI_KINDS = ("table1", "simulate", "sweep", "validate", "error")
# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("import.total_ms", "ms", "lower")]
    + [(f"import.{pkg}_ms", "ms", "lower") for pkg in IMPORT_PACKAGES]
    + [("import.brightbeam_self_ms", "ms", "lower"),
       ("cli.startup_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower")]
    + [(f"cli.run_ms.{kind}", "ms", "lower") for kind in CLI_KINDS]
    + [(f"{span}.{stat}", STAT_UNITS[stat], "lower")
       for span, stats in SPAN_METRICS for stat in stats]
    + [("states.construct.per_a_point", "count", "lower")]
)


def span_metrics(dumps, ops: int) -> tuple[dict, list[int]]:
    """Layer metrics per operation, and the construct count of each
    method-A point (a run_scenario span with method_a_joint children)."""
    totals: dict[str, np.ndarray] = {}
    a_points: list[int] = []
    for header, cols in dumps:
        names = header["names"]
        if not names:
            continue
        name = np.frombuffer(cols["name"], dtype=np.uint16).astype(np.int64)
        start, end, parent, work = (np.frombuffer(cols[c], dtype=np.int64)
                                    for c in ("start", "end", "parent", "work"))
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        # Columns: calls, busy, self and work summed per span name.
        sums = np.stack([np.bincount(name, weights=w, minlength=len(names))
                         for w in (None, dur, dur - child, work)], axis=1)
        for i, span in enumerate(names):
            totals[span] = totals.get(span, 0) + sums[i]
        a_points += _construct_per_a_point(names, name, parent)
    metrics = {}
    for span, stats in SPAN_METRICS:
        calls, busy, self_ns, work = totals.get(span, np.zeros(4)) / ops
        values = {"calls": calls, "busy_us": busy / 1e3, "busy_ms": busy / 1e6,
                  "self_us": self_ns / 1e3, "draws": work}
        for stat in stats:
            metrics[f"{span}.{stat}"] = float(values[stat])
    metrics["states.construct.per_a_point"] = (
        float(statistics.median(a_points)) if a_points else 0.0)
    return metrics, a_points


def _construct_per_a_point(names, name, parent) -> list[int]:
    ids = {span: names.index(span) if span in names else -1
           for span in ("harness.run_scenario", "detection.method_a_joint", "states.construct")}
    is_point = name == ids["harness.run_scenario"]
    # Climb each span's parent chain to its enclosing run_scenario span.
    owner = parent.copy()
    while True:
        climb = owner >= 0
        climb[climb] = ~is_point[owner[climb]]
        if not climb.any():
            break
        owner[climb] = parent[owner[climb]]

    def per_point(span):
        sel = (name == ids[span]) & (owner >= 0)
        return np.bincount(owner[sel], minlength=len(name))

    joint, construct = per_point("detection.method_a_joint"), per_point("states.construct")
    return [int(c) for c in construct[is_point & (joint > 0)]]


def import_metrics(importtime_stderr: str) -> dict:
    """Parse ``python -X importtime`` output into the import.* metrics (ms).

    Lines come in post-order with two spaces of indent per nesting level.
    A package's time is the cumulative time of its outermost modules, so it
    includes what it pulls in that was not yet loaded.
    """
    pending: list[tuple[int, dict]] = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cum_us, module = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue
        depth = (len(module) - len(module.lstrip()) - 1) // 2
        node = {"name": module.strip(), "self": int(self_us), "cum": int(cum_us),
                "children": []}
        while pending and pending[-1][0] > depth:
            node["children"].append(pending.pop()[1])
        pending.append((depth, node))
    roots = [node for _, node in pending]

    def owns(node, pkg):
        return node["name"] == pkg or node["name"].startswith(pkg + ".")

    def outermost(nodes, pkg):
        return sum(n["cum"] if owns(n, pkg) else outermost(n["children"], pkg) for n in nodes)

    def self_sum(nodes, pkg):
        return sum((n["self"] if owns(n, pkg) else 0) + self_sum(n["children"], pkg)
                   for n in nodes)

    metrics = {"import.total_ms": outermost(roots, "brightbeam") / 1e3}
    for pkg in IMPORT_PACKAGES:
        metrics[f"import.{pkg}_ms"] = outermost(roots, pkg) / 1e3
    metrics["import.brightbeam_self_ms"] = self_sum(roots, "brightbeam") / 1e3
    return metrics
