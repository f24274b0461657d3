"""Layer boundaries of the traced run and the per-layer metrics they give.

The layers are the package's modules.  Each target wraps a name where the
caller resolves it (see ``tracer.py``).  A metric built from a target that
is missing reads ``None`` in the layer report; a layer the workload never
calls reads 0.
"""

from __future__ import annotations

import numpy as np

from tracer import REST, Target


def _size(arr, *_) -> int:
    return int(np.size(arr))


TARGETS = (
    Target("cli.main", "equifdp.cli:main"),
    Target("experiment.run", "equifdp.cli:run"),
    Target("experiment.pool", "equifdp.experiment:ThreadPoolExecutor", wait=True),
    Target("experiment.replicate", "equifdp.experiment:_replicate_fdp"),
    Target("experiment.probe", "equifdp.experiment:ecdf_covariance_probe"),
    Target("experiment.write", "equifdp.cli:write_replicates_csv"),
    Target("experiment.write", "equifdp.cli:write_summary_json"),
    Target("experiment.write", "equifdp.cli:_write_json"),
    Target("model.stream", "equifdp.model:RngStream.generator"),
    Target("model.sample", "equifdp.experiment:sample"),
    Target("model.ecdf", "equifdp.experiment:ecdf_triple"),
    Target("model.ecdf.eval", "equifdp.model:StepEcdf.__call__"),
    Target("gaussian.phi_upper", "equifdp.model:phi_upper", elems=_size),
    Target("gaussian.phi_upper", "equifdp.oracle:phi_upper", elems=_size),
    Target("oracle.transform", "equifdp.experiment:transform"),
    Target("procedures.tally", "equifdp.experiment:apply_procedure"),
    Target("procedures.bh_threshold", "equifdp.procedures:bh_threshold"),
    Target("asymptotics.law", "equifdp.experiment:asymptotic_law"),
    Target("asymptotics.law", "equifdp.asymptotics:asymptotic_law"),
    Target("asymptotics.fixed_point", "equifdp.asymptotics:bh_fixed_point"),
)

# per-call self time: metric -> (unit, spans summed, span whose calls divide, scale).
# experiment.aggregate_ms is run()'s own time with the pool and the law excluded:
# array set-up plus the moments and KS of the aggregation.  experiment.write_ms
# is per command.  Self times are wall clock per thread, so at 2 workers they
# include waiting for the interpreter lock.
_SELF_PER_CALL = {
    "model.stream_us": ("us", ["model.stream"], "model.stream", 1e3),
    "model.sample_us": ("us", ["model.sample"], "model.sample", 1e3),
    "model.ecdf_us": ("us", ["model.ecdf", "model.ecdf.eval"], "model.ecdf", 1e3),
    "gaussian.phi_upper_us": ("us", ["gaussian.phi_upper"], "gaussian.phi_upper", 1e3),
    "oracle.transform_us": ("us", ["oracle.transform"], "oracle.transform", 1e3),
    "procedures.bh_threshold_us": (
        "us", ["procedures.bh_threshold"], "procedures.bh_threshold", 1e3),
    "procedures.tally_us": ("us", ["procedures.tally"], "procedures.tally", 1e3),
    "asymptotics.law_us": ("us", ["asymptotics.law"], "asymptotics.law", 1e3),
    "asymptotics.fixed_point_us": (
        "us", ["asymptotics.fixed_point"], "asymptotics.fixed_point", 1e3),
    "experiment.aggregate_ms": ("ms", ["experiment.run"], "experiment.run", 1e6),
    "experiment.write_ms": ("ms", ["experiment.write"], "cli.main", 1e6),
    "cli.main_ms": ("ms", ["cli.main"], "cli.main", 1e6),
}

# share of the traced wall time: metric -> spans summed
_SHARES = {
    "model.stream_share": ["model.stream"],
    "model.sample_share": ["model.sample"],
    "model.ecdf_share": ["model.ecdf", "model.ecdf.eval"],
    "gaussian.phi_upper_share": ["gaussian.phi_upper"],
    "oracle.transform_share": ["oracle.transform"],
    "procedures.bh_threshold_share": ["procedures.bh_threshold"],
    "procedures.tally_share": ["procedures.tally"],
    "asymptotics.law_share": ["asymptotics.law"],
    "asymptotics.fixed_point_share": ["asymptotics.fixed_point"],
    "experiment.harness_share": ["experiment.replicate", "experiment.probe"],
    "experiment.aggregate_share": ["experiment.run"],
    "experiment.write_share": ["experiment.write"],
    "cli.main_share": ["cli.main"],
}

# every per-layer metric, in report order, with its unit.  Besides the tables:
# model.draw_us replays standard_normal(m) untraced on the same stream ids, to
# split model.sample_us; experiment.harness_us is the self time of the
# per-replicate wrapper (and of the probe loop) per replicate.
UNITS = {
    **{name: spec[0] for name, spec in _SELF_PER_CALL.items()},
    "model.draw_us": "us",
    "gaussian.phi_upper_elems_per_rep": "count",
    "asymptotics.fixed_point_calls_per_law": "count",
    "experiment.harness_us": "us",
    "experiment.worker_speedup": "x",
    "trace_overhead_frac": "frac",
    **{name: "frac" for name in _SHARES},
    "untraced_rest_share": "frac",
}


def layer_metrics(tracer, wall_ns: dict, wall_total_ns: int, replicates: int, extra: dict) -> dict:
    """Per-layer metric values (None where a wrapped name is missing).

    wall_ns       -- :func:`tracer.attribute_wall` of the traced interval
    replicates    -- Monte Carlo replicates run while tracing (0 for theory)
    extra         -- values measured outside the tracer: model.draw_us,
                     experiment.worker_speedup and trace_overhead_frac
    """
    totals = tracer.totals()

    def calls(span):
        return totals.get(span, {}).get("calls", 0)

    def self_ns(spans):
        return sum(totals.get(s, {}).get("self_ns", 0) for s in spans)

    def present(*spans):
        return all(tracer.present(s) for s in spans)

    out = {}
    for name, (_, spans, per, scale) in _SELF_PER_CALL.items():
        if present(*spans, per):
            out[name] = self_ns(spans) / calls(per) / scale if calls(per) else 0.0
        else:
            out[name] = None
    out["model.draw_us"] = extra["model.draw_us"]
    out["gaussian.phi_upper_elems_per_rep"] = (
        (totals.get("gaussian.phi_upper", {}).get("elems", 0) / replicates if replicates else 0.0)
        if present("gaussian.phi_upper")
        else None
    )
    out["asymptotics.fixed_point_calls_per_law"] = (
        (calls("asymptotics.fixed_point") / calls("asymptotics.law")
         if calls("asymptotics.law") else 0.0)
        if present("asymptotics.law", "asymptotics.fixed_point")
        else None
    )
    harness = ["experiment.replicate", "experiment.probe"]
    out["experiment.harness_us"] = (
        (self_ns(harness) / replicates / 1e3 if replicates else 0.0)
        if present(*harness)
        else None
    )
    out["experiment.worker_speedup"] = extra["experiment.worker_speedup"]
    out["trace_overhead_frac"] = extra["trace_overhead_frac"]
    for name, spans in _SHARES.items():
        out[name] = (
            sum(wall_ns.get(s, 0.0) for s in spans) / wall_total_ns if present(*spans) else None
        )
    out["untraced_rest_share"] = wall_ns[REST] / wall_total_ns
    return out


def span_table(tracer, wall_ns: dict, wall_total_ns: int) -> list[dict]:
    """One row per span name plus the untraced rest; shares sum to 1."""
    totals = tracer.totals()
    rows = []
    for span in dict.fromkeys(t.span for t in tracer.targets):
        if not tracer.present(span):
            rows.append({"span": span, "calls": None, "self_us_per_call": None, "share": None})
            continue
        t = totals.get(span, {"calls": 0, "self_ns": 0})
        rows.append({
            "span": span,
            "calls": t["calls"],
            "self_us_per_call": t["self_ns"] / t["calls"] / 1e3 if t["calls"] else 0.0,
            "share": wall_ns.get(span, 0.0) / wall_total_ns,
        })
    rows.append({"span": REST, "calls": None, "self_us_per_call": None,
                 "share": wall_ns[REST] / wall_total_ns})
    return rows
