"""Set-up and first pass of one workload in a fresh interpreter.

``run.py`` starts this script to time ``import sbpkit`` plus building
the inputs (``setup_s``) and, with ``cold`` set to 1, the first pass
after that (``cold_s``).  The workload's calibration kernel runs after
set-up and after the pass.  It prints one JSON line with the raw times,
the kernel times and the pass's outcome.

Usage: ``python3 perfbench/probe.py <workload> <seed> <cold 0|1> <outdir>``
"""

import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sbpkit  # noqa: E402,F401  (timed)
import workloads  # noqa: E402

workload, seed, cold, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
wl = workloads.get(workload)
inputs = wl.build(seed, outdir)
report = {"setup_s": time.perf_counter() - t0}

import calibrate  # noqa: E402

report["kernel_s"] = [calibrate.kernel_seconds(wl.kernel)]
if cold:
    t1 = time.perf_counter()
    try:
        raw = wl.run_pass(inputs)
    except Exception as exc:  # reported as a failed operation, not a crash
        report["cold_s"] = time.perf_counter() - t1
        outcome = workloads.PassOutcome(wl.ops_per_pass, 0, [f"cold: {exc!r}"])
    else:
        report["cold_s"] = time.perf_counter() - t1
        outcome = wl.check(inputs, raw)
    report["kernel_s"].append(calibrate.kernel_seconds(wl.kernel))
    report["outcome"] = asdict(outcome)
print(json.dumps(report))
