"""equifdp benchmark: Monte Carlo replicates/s and limit laws/s, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle-m1e3 --seed 20260808 --seconds 30 --trace 0

``--workload all`` (the default) runs every workload in turn.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it name every metric with its
unit.  Detailed results, with the environment block, go to
``.perfbench_out/`` in the checkout.

Untraced run (``--trace 0``):

* ``ops_per_s``   -- replicates (or laws) completed per second over the
  whole timed loop.  A CLI operation is the whole command, its CSV and JSON
  writes included.  The host's speed switches between states about 1.5x
  apart every few seconds, so raw rates of runs a minute apart differ by
  10-25%.  So a fixed numpy/scipy kernel (``host_kernel``, no equifdp
  code) is timed before and after every operation, each operation's wall
  is converted to reference seconds, wall * KERNEL_REF_S / (kernel time),
  and the metric counts per reference second.  The kernel is
  independent of the program, so a change to equifdp moves this metric as
  it would move the raw rate on a host of constant speed, unless the change
  leaves work running between operations (a busy thread would slow the
  kernel and read as a gain).  The raw rate (per wall second) and the host
  speed are printed beside it, so such a case shows as a gain in one but
  not the other.
* ``setup_s``     -- CPU time (user + system) of a fresh interpreter that
  imports ``equifdp.cli`` and builds the workload's inputs, in reference
  seconds (the host kernel's CPU time is taken between the interpreters);
  median of SETUP_REPEATS.  The wall time is printed beside it.
* ``peak_rss_mb`` -- peak resident memory of this process.

Traced run (``--trace 1``): the layer metrics of ``layers.py``.  The
workload first runs untraced at 1 worker and, for the CLI workload, at 2
(for ``experiment.worker_speedup``), then traced at 1 worker.

The CLI workload is timed at ``--workers 1``.  At 2 workers its two threads
contend for the GIL, and on a shared 2-vCPU host that rate drifted by up to
25% between runs minutes apart, more than any bound worth enforcing; the
2-worker rate shows in ``experiment.worker_speedup``.

Every operation's output is checked: Monte Carlo outputs must be
bit-identical to the reference recorded at the default seed (and, at any
seed, to the run's first output and to a ``workers=2`` run), and every
limit-law field must agree with the reference within 1e-12 relative.  A
mismatch counts as failed units and the command exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
from scipy.special import erfc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 7
DRAW_REPLAYS = 256
KERNEL_REPS = 5
KERNEL_REF_S = 0.010  # host_kernel() time that defines one reference second

# compute threads are the harness's own worker pool, at most nproc = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _import_program():
    """Import equifdp from this checkout's src/, or exit non-zero."""
    if not (SRC / "equifdp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no equifdp source at {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import equifdp

    if Path(equifdp.__file__).resolve().parent != SRC / "equifdp":
        sys.exit(f"perfbench: equifdp imported from {equifdp.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median time of fresh interpreters running setup_child.py: their CPU
    seconds scaled to reference seconds, and their wall seconds.

    Set-up is sequential CPU work, so the child's user + system time leaves
    out the time the host stole from the guest, and the host kernel's CPU
    time, taken between the children, scales out the host's speed state.
    """
    walls, ref_cpus = [], []
    before = host_kernel(time.thread_time)
    for _ in range(SETUP_REPEATS):
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), name, str(seed)],
            cwd=ROOT, check=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime)
        after = host_kernel(time.thread_time)
        ref_cpus.append(cpu * KERNEL_REF_S * 2.0 / (before + after))
        before = after
    return statistics.median(ref_cpus), statistics.median(walls)


class Gate:
    """Counts failed units of every operation against a reference digest.

    The stored reference applies at the seed it was recorded at (at every
    seed for theory, whose outputs do not depend on it).  Otherwise the
    run's first output pins every later one.
    """

    def __init__(self, wl, inputs, stored):
        self.wl, self.inputs, self.reference = wl, inputs, stored
        self.attempted = self.failed = 0
        self.notes: list[str] = []

    def check(self, result) -> None:
        self.attempted += self.wl.units
        if result is None:
            self.failed += self.wl.units
            return
        digest = self.wl.digest(self.inputs, result)
        if self.reference is None:
            self.reference = digest
        bad = self.wl.failures(digest, self.reference)
        if bad:
            self.failed += bad
            if len(self.notes) < 5:
                self.notes.append(f"{bad} of {self.wl.units} {self.wl.unit} differ from the reference")


def stored_reference(wl, seed: int):
    refs = json.loads(REFERENCE.read_text())
    entry = refs["workloads"].get(wl.name)
    if entry is None or entry["units"] != wl.reference_units:
        sys.exit(f"perfbench: {REFERENCE.name} has no reference for {wl.name} "
                 f"at {wl.reference_units} units")
    if wl.name == "theory-grid" or seed == refs["seed"]:
        return entry["digest"]
    return None


def attempt(wl, inputs, workers: int):
    """One operation; None when it raised."""
    try:
        return wl.execute(inputs, workers)
    except Exception:  # a raising operation is a failed one; keep measuring
        traceback.print_exc()
        return None


def host_kernel(clock=time.perf_counter) -> float:
    """Seconds (wall by default) of a fixed numpy/scipy kernel that shares no code with equifdp.

    The host's speed switches between states every few seconds (about 1.5x
    apart on a 2-vCPU KVM guest), and all code slows together.  Timing this
    kernel next to every operation measures the host's state at that moment.
    """
    rng = np.random.Generator(np.random.PCG64(12345))
    t0 = clock()
    for _ in range(KERNEL_REPS):
        a = rng.standard_normal(10_000)
        erfc(a)
        np.searchsorted(np.sort(a), a)
    return clock() - t0


def run_ops(wl, inputs, workers: int, seconds: float, gate: Gate, calibrate: bool):
    """Repeat the operation until `seconds` have passed.

    Returns results, walls and the walls in the metric's seconds: with
    `calibrate`, reference seconds, wall * KERNEL_REF_S / k, where k is the
    mean host-kernel time just before and just after the operation;
    without, the walls themselves.
    """
    walls, ref_walls, results = [], [], []
    before = host_kernel() if calibrate else 0.0
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        result = attempt(wl, inputs, workers)
        wall = time.perf_counter() - t0
        gate.check(result)
        after = host_kernel() if calibrate else 0.0
        if result is not None:
            walls.append(wall)
            results.append(result)
            ref_walls.append(wall * KERNEL_REF_S * 2.0 / (before + after) if calibrate else wall)
        before = after
        if time.perf_counter() >= deadline:
            return results, walls, ref_walls


def rate(wl, walls) -> float:
    """Aggregate throughput: units completed per second of operation wall time."""
    return wl.units * len(walls) / sum(walls) if walls else 0.0


def replay_draws(wl, inputs) -> float:
    """Mean µs of standard_normal(m) on the workload's own stream ids
    (replicate r draws from stream r)."""
    from equifdp.model import RngStream

    if wl.unit != "replicates":
        return 0.0
    ids = range(min(wl.units, DRAW_REPLAYS))
    total = 0
    for sid in ids:
        rng = RngStream(inputs["seed"], sid).generator()
        t0 = time.perf_counter_ns()
        rng.standard_normal(wl.m)
        total += time.perf_counter_ns() - t0
    return total / len(ids) / 1e3


def untraced(wl, inputs, seconds: float, gate: Gate, seed: int):
    results, walls, ref_walls = run_ops(wl, inputs, 1, seconds, gate, calibrate=True)
    if wl.threaded:  # outputs must not depend on the worker count
        gate.check(attempt(wl, inputs, 2))
    setup_ref, setup_wall = measure_setup(wl.name, seed)
    metrics = {
        "ops_per_s": (rate(wl, ref_walls), "1/s"),
        "setup_s": (setup_ref, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per = "reps_per_s" if wl.unit == "replicates" else "laws_per_s"
    lines = [
        f"  {per:<22}{metrics['ops_per_s'][0]:12.2f} 1/s   per reference second, {len(walls)} "
        f"operations of {wl.units} {wl.unit}" + (", workers=1" if wl.threaded else ""),
        f"  {per + '_raw':<22}{rate(wl, walls):12.2f} 1/s   per wall second",
        f"  {'host_speed':<22}{sum(ref_walls) / sum(walls):12.4f}       "
        "reference seconds per wall second",
    ]
    detail = {"operations": len(walls), "walls_s": walls, "ref_walls_s": ref_walls,
              "setup_wall_s": setup_wall}
    if wl.unit == "laws" and results:
        lat = [x for *_, per_law in results for x in per_law]
        cuts = statistics.quantiles(lat, n=100) if len(lat) > 1 else lat * 99
        detail["law_calls"] = len(lat)
        for q in (50, 97):
            detail[f"law_ms_p{q}"] = cuts[q - 1] * 1e3
            lines.append(f"  law_ms_p{q:<14}{cuts[q - 1] * 1e3:12.4f} ms    of {len(lat)} calls")
    lines += [
        f"  {'setup_s':<22}{setup_ref:12.4f} s     reference CPU seconds, median of {SETUP_REPEATS} fresh interpreters",
        f"  {'setup_s_raw':<22}{setup_wall:12.4f} s     wall seconds",
        f"  {'peak_rss_mb':<22}{metrics['peak_rss_mb'][0]:12.2f} MB",
    ]
    return metrics, lines, detail


def traced(wl, inputs, seconds: float, gate: Gate, seed: int):
    import layers
    from tracer import Tracer, attribute_wall

    phases = 3 if wl.threaded else 2
    _, walls1, ref1 = run_ops(wl, inputs, 1, seconds / phases, gate, calibrate=True)
    speedup = 0.0
    if wl.threaded:
        _, _, ref2 = run_ops(wl, inputs, 2, seconds / phases, gate, calibrate=True)
        speedup = rate(wl, ref2) / rate(wl, ref1) if ref1 else 0.0
    with Tracer(layers.TARGETS) as tracer:  # no host kernel here: it would read as untraced time
        start = time.perf_counter_ns()
        _, walls_t, _ = run_ops(wl, inputs, 1, seconds / phases, gate, calibrate=False)
        end = time.perf_counter_ns()
    wall_ns = attribute_wall(tracer, start, end)
    replicates = len(walls_t) * wl.units if wl.unit == "replicates" else 0
    extra = {
        "model.draw_us": replay_draws(wl, inputs),
        "experiment.worker_speedup": speedup,
        "trace_overhead_frac": (
            statistics.median(walls_t) / statistics.median(walls1) - 1.0 if walls_t and walls1 else 0.0
        ),
    }
    values = layers.layer_metrics(tracer, wall_ns, end - start, replicates, extra)
    table = layers.span_table(tracer, wall_ns, end - start)
    lines = [f"  traced {len(walls_t)} operations, {(end - start) / 1e9:.3f} s wall; "
             f"missing names: {tracer.missing or 'none'}"]
    lines += [
        f"  {r['span']:<26}{'' if r['calls'] is None else r['calls']:>9}"
        f"{'' if r['self_us_per_call'] is None else format(r['self_us_per_call'], '.2f'):>14} us"
        f"{'null' if r['share'] is None else format(r['share'], '.4f'):>9}"
        for r in table
    ]
    lines.append(f"  shares + rest = {sum(r['share'] or 0.0 for r in table):.6f} of traced wall")
    lines += [
        f"  {name:<40}{'null' if v is None else format(v, '.6g'):>14} {layers.UNITS[name]}"
        for name, v in values.items()
    ]
    # the result line carries numbers only: a missing name reads null above and 0 here
    metrics = {name: (0.0 if v is None else v, layers.UNITS[name]) for name, v in values.items()}
    return metrics, lines, {"spans": table, "layer_metrics": values, "missing": tracer.missing}


def run_workload(wl, seed: int, seconds: float, trace: bool, env: dict, stored) -> dict:
    """Measure one workload, print its metrics and return the result object.

    stored -- the reference digest that applies at this seed, or None
    """
    name = wl.name
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        inputs = wl.build(seed, tmp)
        gate = Gate(wl, inputs, stored)
        gate.check(attempt(wl, inputs, 2))  # warm-up, untimed
        measure = traced if trace else untraced
        metrics, lines, detail = measure(wl, inputs, seconds, gate, seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    fail_frac = gate.failed / gate.attempted
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("\n".join(lines))
    print(f"  {'fail_frac':<22}{fail_frac:12.6g}       {gate.failed} of {gate.attempted} {wl.unit}")
    for note in gate.notes:
        print(f"  gate: {note}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, **result, **detail}
    (OUT / f"{name}-trace{int(trace)}-seed{seed}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be 'all' or one of {list(workloads.WORKLOADS)}")
    env = environment()
    print("environment: " + json.dumps(env))
    results = {}
    for n in names:
        wl = workloads.WORKLOADS[n]
        stored = stored_reference(wl, args.seed)
        results[n] = run_workload(wl, args.seed, args.seconds, bool(args.trace), env, stored)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
