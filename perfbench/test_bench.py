"""Self-tests of the benchmark: tiny-size smoke runs of every workload, the
reference gate, and the tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

import run

run._import_program()

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
SEED = 7


def tiny(name):
    wl = workloads.WORKLOADS[name]
    return dataclasses.replace(wl, units=4) if hasattr(wl, "m") else wl


def reference(wl, out):
    return wl.reference_digest(SEED, out)


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert PER_LAYER == layers.UNITS
    assert END_TO_END["setup_s"] == "s"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_prints_every_metric_with_its_unit(name, trace, tmp_path, capsys):
    wl = tiny(name)
    result = run.run_workload(wl, SEED, 0.05, trace, {}, reference(wl, tmp_path))
    printed = capsys.readouterr().out
    expected = PER_LAYER if trace else END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= wl.units
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    shown = {"ops_per_s": "reps_per_s" if wl.unit == "replicates" else "laws_per_s"}
    rows = [line.split() for line in printed.splitlines() if line.startswith("  ")]
    for metric, unit in expected.items():
        assert any(r[0] == shown.get(metric, metric) and unit in r[2:] for r in rows), metric
    if not trace:
        assert any(r[0] == shown["ops_per_s"] + "_raw" for r in rows)
    if wl.unit == "laws" and not trace:
        assert any(r[0] == "law_ms_p50" for r in rows) and any(r[0] == "law_ms_p97" for r in rows)
    assert any(r[0] == "fail_frac" for r in rows)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_trips_on_a_perturbed_reference(name, tmp_path, capsys):
    wl = tiny(name)
    ref = reference(wl, tmp_path)
    if isinstance(ref, str):
        bad = ("0" if ref[0] != "0" else "1") + ref[1:]
    else:
        bad = [list(row) for row in ref]
        for row in bad:  # every law, since a short run covers only part of the grid
            row[2] *= 1.0 + 1e-9  # t_star, far beyond the 1e-12 tolerance
    result = run.run_workload(wl, SEED, 0.05, False, {}, bad)
    assert not result["correct"] and result["failed"] > 0
    assert "differ from the reference" in capsys.readouterr().out


def test_main_exits_nonzero_on_a_reference_mismatch(monkeypatch, tmp_path, capsys):
    refs = json.loads(run.REFERENCE.read_text())
    entry = refs["workloads"]["probe-m1e4"]
    entry["digest"] = entry["digest"][::-1]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(refs))
    monkeypatch.setattr(run, "REFERENCE", path)
    code = run.main(["--workload", "probe-m1e4", "--seconds", "0.05", "--seed", str(refs["seed"])])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] > 0


def test_tracer_survives_missing_names(monkeypatch, tmp_path):
    renamed = tuple(
        dataclasses.replace(t, path="equifdp.experiment:_renamed_replicate")
        if t.span == "experiment.replicate" else t
        for t in layers.TARGETS
    ) + (tracer.Target("gone", "equifdp.no_such_module:f"),)
    monkeypatch.setattr(layers, "TARGETS", renamed)
    wl = tiny("oracle-m1e3")
    result = run.run_workload(wl, SEED, 0.05, True, {}, reference(wl, tmp_path))
    assert result["correct"]
    assert result["metrics"]["experiment.harness_us"]["value"] == 0.0
    record = json.loads((run.OUT / f"{wl.name}-trace1-seed{SEED}.json").read_text())
    assert record["layer_metrics"]["experiment.harness_us"] is None
    assert record["layer_metrics"]["model.sample_us"] > 0.0
    assert sorted(record["missing"]) == [
        "equifdp.experiment:_renamed_replicate", "equifdp.no_such_module:f"]
    assert abs(sum(row["share"] or 0.0 for row in record["spans"]) - 1.0) < 1e-9


def test_tracer_restores_the_originals():
    from equifdp import experiment, model

    before = (experiment.sample, vars(model.RngStream)["generator"], experiment.ThreadPoolExecutor)
    with tracer.Tracer(layers.TARGETS):
        assert experiment.sample is not before[0]
    assert (experiment.sample, vars(model.RngStream)["generator"],
            experiment.ThreadPoolExecutor) == before


def test_wall_attribution_splits_concurrent_threads():
    t = tracer.Tracer([tracer.Target("wait", "x:y", wait=True)])
    # main thread: a outer [0, 100] containing a wait span [10, 90];
    # worker thread: b [20, 60]; worker thread: c [40, 80]
    t._threads = [
        [("wait", 10, 90, 0, 0), ("a", 0, 100, 80, 0)],
        [("b", 20, 60, 0, 0)],
        [("c", 40, 80, 0, 0)],
    ]
    wall = tracer.attribute_wall(t, 0, 120)
    assert wall == {tracer.REST: 10.0 + 10.0 + 20.0, "a": 20.0, "b": 20.0 + 10.0, "c": 10.0 + 20.0}
    assert sum(wall.values()) == 120


def test_spans_are_kept_per_thread():
    t = tracer.Tracer(())

    def work():
        t0 = t._open()
        t._close("leaf", t0)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)
    assert t.totals()["leaf"]["calls"] == 2
    assert len(t.thread_spans()) == 2
