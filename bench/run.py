"""Benchmark: time to a verified paper table, one workload per process.

    python3 bench/run.py --workload helm1d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                # every workload, each in its own process

Run from a source checkout; the package is imported from ``src/``.  The
untraced run (``--trace 0``) measures the user-visible costs:

- ``setup_s``: median over five fresh interpreters, started at even intervals
  through the run, of the seconds to import ``deltareg`` and parse the
  workload's configs (``workloads.load``);
- ``wall_s``, ``cpu_s``: median wall and process CPU seconds (all threads) of
  one pass, over the passes that fit in ``--seconds`` after a warm-up pass;
- ``peak_rss_mb``: peak resident memory of this process once it has imported
  the package and run its first pass, which takes the tables in the order of
  ``workloads.TABLES`` whatever the seed;
- ``ok_frac``: verified items over attempted items, where an item is a table row
  (``fail`` or ``error`` status fails it) or a catalog moment solve (checked
  against the printed profile and its moment rows).  It is ``1 - fail_frac``;
  any failure also makes the run exit 1.

The three times are scaled by the host's speed during the run, measured with
the fixed probe of ``speed.py`` between passes and set-up interpreters: on a
shared host every workload ran 30 to 40 % slower for ten minutes at a time.
The raw medians and the scale are printed beside them.

The traced run (``--trace 1``) alternates traced and untraced passes after the
warm-up and reports every layer metric of ``layertrace.py`` (seconds are medians over
the traced passes, counts those of the last traced pass) and
``trace_overhead_frac``, the traced passes' extra median wall time over the
untraced ones.  It also checks that the work counts repeat exactly between traced
passes and equal what the configs imply.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the run's
environment, each table's CSV sha256 and the cells that differ from the golden
CSVs in ``golden/`` (both for information only), and every metric with its unit.
A record of the run, with every sample and the kept spans, is written to
``.bench_out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
PROBE_SHARE = 0.1  # seconds of speed probe after an untraced pass, per second of the pass
SETUP_PROBE_S = 0.1  # seconds of speed probe after a set-up interpreter

# counts that must repeat exactly between passes, on the workload that exercises them
REPEATED_COUNTS = ("kernels.eval.calls", "spectral.advect.steps", "spectral.kdv.steps",
                   "elliptic.solve_2d.calls", "moments.solve.calls")

# layer metrics of the traced run: (name, unit); see README.md for what each should move
LAYER_METRICS = (
    ("elliptic.solve_1d.calls", "count"), ("elliptic.solve_1d.s", "s"),
    ("elliptic.solve_1d.nodes", "count"),
    ("kernels.eval.calls", "count"), ("kernels.eval.points", "count"), ("kernels.eval.s", "s"),
    ("profiles.eval.calls", "count"), ("profiles.eval.points", "count"),
    ("profiles.eval.s", "s"),
    ("elliptic.solve_2d.calls", "count"), ("elliptic.solve_2d.s", "s"),
    ("elliptic.solve_2d.unknowns", "count"),
    ("elliptic.sobolev.calls", "count"), ("elliptic.sobolev.s", "s"),
    ("elliptic.exact.s", "s"), ("elliptic.pointwise_error.s", "s"),
    ("bessel.calls", "count"), ("bessel.points", "count"), ("bessel.s", "s"),
    ("spectral.advect.steps", "count"), ("spectral.advect.s", "s"),
    ("spectral.advect.us_per_step", "us"),
    ("spectral.kdv.steps", "count"), ("spectral.kdv.s", "s"),
    ("spectral.kdv.us_per_step", "us"),
    ("moments.solve.calls", "count"), ("moments.solve.s", "s"),
    ("moments.max_residual", "abs"),
    ("quadrature.weak_star.calls", "count"), ("quadrature.weak_star.s", "s"),
    ("quadrature.gauss_legendre.misses", "count"),
    ("reports.run_study.s", "s"), ("reports.self_s", "s"), ("reports.overlap", "ratio"),
    ("reports.rows", "count"), ("reports.rows_failed", "count"),
    ("reports.changed_cells", "count"),
    ("trace_overhead_frac", "frac"),
)
# what each layer's work count counts; every layer also has .calls and .s
_WORK_NAMES = {"elliptic.solve_1d": "nodes", "kernels.eval": "points",
               "profiles.eval": "points", "elliptic.solve_2d": "unknowns",
               "bessel": "points", "spectral.advect": "steps", "spectral.kdv": "steps"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", default="all", help="helm1d, helm2d, spectral, kernels or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="seconds of timed passes after the warm-up pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # an exported checkout
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in SRC.rglob("*.py")),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _setup_seconds(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import deltareg and load the workload."""
    done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
                           str(seed)], cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout)


def _timed_pass(workload, tracer=None):
    """(result, wall seconds, CPU seconds) of one pass, traced if a tracer is given."""
    if tracer is not None:
        tracer.install()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        result = workloads.run_pass(workload)
        return result, time.perf_counter() - w0, time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def _layer_values(tracer, result, wall) -> dict:
    """Every layer figure of one traced pass, keyed by metric name."""
    values = {}
    for layer, (calls, seconds, work) in tracer.totals().items():
        values[f"{layer}.calls"] = calls
        values[f"{layer}.s"] = seconds
        if layer in _WORK_NAMES:
            values[f"{layer}.{_WORK_NAMES[layer]}"] = work
    for layer in ("spectral.advect", "spectral.kdv"):
        steps = values.get(f"{layer}.steps", 0)
        values[f"{layer}.us_per_step"] = 1e6 * values[f"{layer}.s"] / steps if steps else 0.0
    study, own, children = tracer.study_times()
    values["reports.self_s"] = own
    values["reports.overlap"] = children / study if study else 0.0
    values["moments.max_residual"] = result.max_residual
    values["reports.rows"] = sum(t.rows for t in result.tables)
    values["reports.rows_failed"] = sum(t.rows_failed for t in result.tables)
    values["wall_s"] = wall
    return values


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    """Run one workload; returns (correct, attempted, failed, metrics, notes, record)."""
    from deltareg.quadrature import gauss_legendre

    problems = []
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced)}
    workload = workloads.load(name, seed)
    misses0 = gauss_legendre.cache_info().misses
    # the warm-up pass keeps the configs' order: the peak memory depends on it
    first, first_wall, _ = _timed_pass(workloads.load(name, None))
    rule_misses = gauss_legendre.cache_info().misses - misses0
    peak_rss = _peak_rss_mb()
    results = [first]
    walls, cpus, setup, traced_passes, units = [], [], [], [], []
    measured = 0.0
    while True:
        enough = walls and measured >= seconds and (not traced or len(traced_passes) >= 2)
        # set-up interpreters are spread over the run, so that they see its slow and fast stretches
        if not traced and len(setup) < SETUP_PROBES and (
                enough or measured >= len(setup) * seconds / SETUP_PROBES):
            setup.append(_setup_seconds(name, seed))
            units.extend(speed.probe(SETUP_PROBE_S))
            continue
        if enough:
            break
        if traced and len(traced_passes) <= len(walls):
            tracer = layertrace.Tracer()
            result, wall, _ = _timed_pass(workload, tracer)
            traced_passes.append((tracer, _layer_values(tracer, result, wall)))
        else:
            result, wall, cpu = _timed_pass(workload)
            walls.append(wall)
            cpus.append(cpu)
            units.extend(speed.probe(PROBE_SHARE * wall))
        measured += wall
        results.append(result)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems.extend(f"failed: {line}" for r in results for line in r.errors)
    tables = [{"table": t.table, "rows": t.rows, "rows_failed": t.rows_failed,
               "sha256": t.sha256, "changed_cells": workloads.changed_cells(t)}
              for t in results[-1].tables]
    record["tables"] = tables
    record["passes"] = {"warmup_wall_s": first_wall, "wall_s": walls, "cpu_s": cpus,
                        "setup_s": setup, "probe_units_s": units}

    if not traced:
        scale = speed.factor(units)
        setup_s, wall_s, cpu_s = (statistics.median(v) for v in (setup, walls, cpus))
        metrics = {
            "setup_s": (setup_s * scale, "s"),
            "wall_s": (wall_s * scale, "s"),
            "cpu_s": (cpu_s * scale, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters, raw {setup_s:.4g} s",
            "wall_s": f"median of {len(walls)} passes, raw {wall_s:.4g} s",
            "cpu_s": f"median of {len(cpus)} passes, raw {cpu_s:.4g} s",
            "ok_frac": f"{attempted - failed} of {attempted} items verified",
        }
        record["speed_scale"] = scale
    else:
        per_pass = [values for _, values in traced_passes]
        expected = workloads.expected_counts(workload)
        for key in REPEATED_COUNTS:
            seen = {values.get(key, 0) for values in per_pass}
            if len(seen) != 1:
                problems.append(f"{key} differs between traced passes: {sorted(seen)}")
            elif key in expected and seen != {expected[key]}:
                problems.append(f"{key} = {seen.pop()}, the configs imply {expected[key]}")
        metrics, notes = {}, {}
        for key, unit in LAYER_METRICS:
            samples = [values.get(key, 0) for values in per_pass]
            value = statistics.median(samples) if unit in ("s", "us", "ratio") else samples[-1]
            metrics[key] = (value, unit)
        traced_wall = statistics.median(v["wall_s"] for v in per_pass)
        metrics["trace_overhead_frac"] = (traced_wall / statistics.median(walls) - 1.0, "frac")
        metrics["quadrature.gauss_legendre.misses"] = (rule_misses, "count")
        metrics["reports.changed_cells"] = (sum(t["changed_cells"] for t in tables), "count")
        notes["trace_overhead_frac"] = (f"{len(per_pass)} traced against "
                                        f"{len(walls)} untraced passes, alternating")
        notes["quadrature.gauss_legendre.misses"] = "in the first pass of the process"
        spans = traced_passes[-1][0].spans()  # of the last traced pass, times from its start
        t0 = spans[0][4] if spans else 0.0
        record["spans"] = [
            {"layer": layer, "id": span_id, "parent": parent, "thread": thread,
             "start": s - t0, "end": e - t0}
            for layer, span_id, parent, thread, s, e in spans
        ]
        record["passes"]["traced"] = per_pass
    record["problems"] = problems = list(dict.fromkeys(problems))  # one line per distinct failure
    return not problems, attempted, failed, metrics, notes, record


def _run_all(args) -> int:
    status = 0
    for name in workloads.NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "deltareg" / "__init__.py").is_file():
        print(f"error: no deltareg package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2

    correct, attempted, failed, metrics, notes, record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    record["environment"] = env = environment()
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for t in record["tables"]:
        print(f"table {t['table']:<18} rows {t['rows']:>3}  failed {t['rows_failed']}  "
              f"changed_cells {t['changed_cells']}  sha256 {t['sha256']}")
    if "speed_scale" in record:
        print(f"speed scale {record['speed_scale']:.4f} (the times below are raw x scale)")
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key:<34} {value:>14.6g} {unit}{note}")
    if not args.trace:
        print(f"{'fail_frac':<34} {failed / attempted:>14.6g} frac")
    for line in record["problems"]:
        print(f"problem: {line}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
