"""Benchmark of sbpkit: operator search, multi-block stepping, Burgers study.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload operator-catalog --seed 1 \\
        --seconds 40 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it wraps sbpkit's public functions, records spans and prints
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results, provenance and (when traced) the spans are also
written under ``.perfbench-out/``.  See ``perfbench/README.md`` for the
workloads and metric definitions.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before anything can load numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("operator-catalog", "advection-blocks", "burgers-study")

#: fresh interpreters that time set-up and then the first pass (cold_s)
COLD_PROBES = 5
#: further fresh interpreters that time set-up only
SETUP_PROBES = 8
#: warm passes made even when ``--seconds`` has run out
MIN_PASSES = 2
#: no probe or pass starts after this many seconds, so that a program
#: that has become very slow still ends with a (failing) result
DEADLINE_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "wall_s": "s",
    "ok_ratio": "ratio",
    "err_p": "1",
    "grid_nodes": "count",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _probe(workload: str, seed: int, cold: bool, timeout: float) -> dict:
    """Run probe.py in a fresh interpreter and return its report."""
    with tempfile.TemporaryDirectory(prefix="probe-", dir=OUT) as tmp:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed),
             "1" if cold else "0", tmp],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _median_finite(values) -> float:
    """Median of the finite values; 0 when a failing run left none."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
    }


def _self_check(spans_mod, layers, inst, rec, traced, outcomes) -> list[str]:
    """Span counts against counts the benchmark knows without the trace.

    The step total comes from the ``RunResult`` objects: those the
    workload holds itself where it calls ``run`` directly, else those the
    ``run`` wrapper saw returned inside the CLI.
    """
    problems = [f"unpatched binding {s}" for s in spans_mod.unpatched_sites(inst)]
    counts = layers.span_counts(rec.spans, traced)
    steps = counts["run.steps"]
    known_steps = sum(o.steps for o in outcomes)
    if known_steps and steps != known_steps:
        problems.append(f"run spans saw {steps} steps, RunResult says {known_steps}")
    if counts["ssprk33_step"] != steps:
        problems.append(f"{counts['ssprk33_step']} ssprk33_step spans for {steps} steps")
    rhs = counts["rhs_advection"] + counts["rhs_burgers"]
    if rhs != 3 * steps:
        problems.append(f"{rhs} rhs spans for {steps} steps")
    searches = sum(o.searches for o in outcomes)
    if counts["find_operator"] != searches:
        problems.append(f"{counts['find_operator']} find_operator spans, {searches} searches")
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "sbpkit" / "__init__.py").is_file():
        print(f"error: no sbpkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    import calibrate
    import layers
    import spans as spans_mod
    import workloads

    wl = workloads.get(args.workload)
    start = time.perf_counter()
    outcomes = []
    # raw seconds and the same in reference seconds (see calibrate.py)
    setup_raw, setup_ref, cold_raw, cold_ref, probe_kernel = [], [], [], [], []
    if not args.trace:
        for i in range(COLD_PROBES + SETUP_PROBES):
            left = DEADLINE_S - (time.perf_counter() - start)
            try:
                report = _probe(args.workload, args.seed, i < COLD_PROBES, max(left, 1.0))
            except subprocess.TimeoutExpired:
                outcomes.append(workloads.PassOutcome(
                    wl.ops_per_pass, 0, [f"probe {i} ran past {DEADLINE_S:g} s"]))
                break
            k = report["kernel_s"]
            probe_kernel.append(k)
            setup_raw.append(report["setup_s"])
            setup_ref.append(calibrate.normalised(wl.kernel, report["setup_s"], k[0], k[0]))
            if "outcome" in report:
                cold_raw.append(report["cold_s"])
                cold_ref.append(calibrate.normalised(wl.kernel, report["cold_s"], k[0], k[1]))
                outcomes.append(workloads.PassOutcome(**report["outcome"]))

    rec = spans_mod.Recorder()
    inst = spans_mod.instrument(rec, layers.ATTRS) if args.trace else None
    out_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    with rec.recording("setup") if args.trace else nullcontext():
        inputs = wl.build(args.seed, out_root)

    traced_outcomes = []

    def one_pass(pass_id: str, traced: bool) -> float:
        ctx = rec.recording(pass_id) if traced else nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx:
                raw = wl.run_pass(inputs)
        except Exception as exc:  # a crashed pass is a failed operation
            elapsed = time.perf_counter() - t0
            outcome = workloads.PassOutcome(wl.ops_per_pass, 0, [f"{pass_id}: {exc!r}"])
        else:
            elapsed = time.perf_counter() - t0
            outcome = wl.check(inputs, raw)
        outcomes.append(outcome)
        if traced:
            traced_outcomes.append(outcome)
        return elapsed

    untraced: list[float] = []
    untraced_ref: list[float] = []
    traced: list[float] = []
    traced_ids: list[str] = []
    kernel = [calibrate.kernel_seconds(wl.kernel)]

    def more(done: list) -> bool:
        elapsed = time.perf_counter() - start
        return elapsed < args.seconds or (len(done) < MIN_PASSES and elapsed < DEADLINE_S)

    while more(untraced):
        untraced.append(one_pass(f"untraced-{len(untraced)}", False))
        kernel.append(calibrate.kernel_seconds(wl.kernel))
        untraced_ref.append(
            calibrate.normalised(wl.kernel, untraced[-1], kernel[-2], kernel[-1]))
        if args.trace and more(traced):
            # alternate so that slow spells of the host hit both sides
            traced_ids.append(f"traced-{len(traced)}")
            traced.append(one_pass(traced_ids[-1], True))
    errors = [e for o in outcomes for e in o.errors]
    if args.trace:
        errors += _self_check(spans_mod, layers, inst, rec, traced_ids, traced_outcomes)
        inst.restore()
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    if args.trace:
        values = layers.compute(rec.spans, traced_ids)
        values["trace.overhead_s"] = _median_finite(traced) - _median_finite(untraced)
        units = {k: u for k, (u, _) in layers.PER_LAYER.items()}
    else:
        values = {
            "setup_s": _median_finite(setup_ref),
            "cold_s": _median_finite(cold_ref),
            "wall_s": _median_finite(untraced_ref),
            "ok_ratio": sum(o.found for o in outcomes) / attempted,
            "err_p": _median_finite(o.err_p for o in outcomes),
            "grid_nodes": _median_finite(o.grid_nodes for o in outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}

    provenance = _provenance()
    provenance.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, kernel=wl.kernel, kernel_s=kernel, probe_kernel_s=probe_kernel,
        setup_raw_s=setup_raw, cold_raw_s=cold_raw, untraced_raw_s=untraced,
        traced_raw_s=traced,
    )
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"provenance": provenance, "errors": errors, **result}, indent=1)
    )
    if args.trace:
        with (OUT / f"spans-{stem}.jsonl").open("w") as fh:
            for s in rec.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
    shutil.rmtree(out_root, ignore_errors=True)

    for e in errors:
        print(f"GATE FAILED: {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} warm passes: {len(untraced)} untraced, "
          f"{len(traced)} traced")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
