"""Per-layer metrics from the spans that ``tracer.py`` records.

A layer's time is the summed duration of its outermost spans (a span of the
layer nested in another of the same layer counts once); on the thread pool
that sums busy time over threads.  *Self* time is a span's duration minus
the part of it covered by child spans on any thread.
"""
from __future__ import annotations

SAMPLING = {"montecarlo.sample_max_distribution", "montecarlo.sample_multivariate_max",
            "montecarlo.non_iid_experiment"}


class SpanTree:
    """Spans of one traced process, indexed by id and by parent."""

    def __init__(self, doc: dict):
        self.spans = [dict(zip(("id", "name", "t0", "t1", "parent", "thread", "size", "cpu"), s))
                      for s in doc["spans"]]
        self.by_id = {s["id"]: s for s in self.spans}
        self.children: dict[int, list[dict]] = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def outermost(self, names: set[str]) -> list[dict]:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        found = []
        for s in self.spans:
            if s["name"] not in names:
                continue
            parent = self.by_id.get(s["parent"])
            while parent is not None and parent["name"] not in names:
                parent = self.by_id.get(parent["parent"])
            if parent is None:
                found.append(s)
        return found

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover, on any thread."""
        intervals = sorted((max(c["t0"], span["t0"]), min(c["t1"], span["t1"]))
                           for c in self.children.get(span["id"], []))
        covered, end = 0.0, span["t0"]
        for a, b in intervals:
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        return span["t1"] - span["t0"] - covered


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    trees = [SpanTree(d) for d in docs]

    def total(*names):
        return sum(s["t1"] - s["t0"] for t in trees for s in t.outermost(set(names)))

    def self_total(*names):
        return sum(t.self_time(s) for t in trees for s in t.outermost(set(names)))

    def size(*names):
        return sum(s["size"] or 0 for t in trees for s in t.spans if s["name"] in names)

    def calls(*names):
        return sum(s["name"] in names for t in trees for s in t.spans)

    sampling = [s for t in trees for s in t.outermost(SAMPLING)]
    sampling_wall = sum(s["t1"] - s["t0"] for s in sampling)
    return {
        "normal.quantile_s": total("normal.std_normal_quantile"),
        "normal.quantile_values": size("normal.std_normal_quantile"),
        "montecarlo.rep_rng_s": total("montecarlo.rep_rng"),
        "montecarlo.rep_rng_calls": calls("montecarlo.rep_rng"),
        "montecarlo.sample_self_s": self_total(*SAMPLING),
        "montecarlo.factor_s": total("montecarlo.eigh"),
        "montecarlo.stats_s": total("montecarlo.empirical_stats"),
        "montecarlo.chunks": sum(d["counts"].get("montecarlo.chunks", 0) for d in docs),
        "montecarlo.cpu_util": (sum(s["cpu"] for s in sampling) / sampling_wall
                                if sampling_wall > 0 else 0.0),
        "corrections.epsilon_s": total("corrections.from_covariance",
                                       "corrections.correlation_sum",
                                       "corrections.ar1_correlation_sum"),
        "corrections.curves_s": total("corrections.corrected_cdf", "corrections.corrected_pdf",
                                      "corrections.validity_check", "corrections.quadrature"),
        "timing_graph.parse_s": total("timing_graph.load_graph"),
        "timing_graph.enumerate_s": total("timing_graph.normalize_source_sink",
                                          "timing_graph.enumerate_paths",
                                          "timing_graph.accumulated_delay_params"),
        "timing_graph.covariance_s": total("timing_graph.path_covariance"),
        "timing_graph.analysis_self_s": self_total("timing_graph.graph_delay_analysis"),
        "timing_graph.paths": size("timing_graph.enumerate_paths"),
        "timing_graph.edges": size("timing_graph.load_graph"),
        "cli.import_s": total("cli.import"),
        "cli.self_s": self_total("cli.main"),
        # Not reported: the caller subtracts it from wall time.
        "cli.main_s": total("cli.main"),
    }


LAYER_UNITS = {
    "normal.quantile_s": "s", "normal.quantile_values": "count",
    "montecarlo.rep_rng_s": "s", "montecarlo.rep_rng_calls": "count",
    "montecarlo.sample_self_s": "s", "montecarlo.factor_s": "s", "montecarlo.stats_s": "s",
    "montecarlo.chunks": "count", "montecarlo.cpu_util": "ratio",
    "corrections.epsilon_s": "s", "corrections.curves_s": "s",
    "timing_graph.parse_s": "s", "timing_graph.enumerate_s": "s",
    "timing_graph.covariance_s": "s", "timing_graph.analysis_self_s": "s",
    "timing_graph.paths": "count", "timing_graph.edges": "count",
    "cli.import_s": "s", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s", "trace.unaccounted_s": "s", "check.hash_mismatches": "count",
}
