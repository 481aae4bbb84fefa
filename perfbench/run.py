#!/usr/bin/env python3
"""Run one benchmark workload of qcss and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a qcss checkout; the package is imported from `src/`.
`--trace 0` measures the end-to-end metrics.  `--trace 1` runs the same
operations untraced and then traced, and reports the per-layer metrics and
the tracing overhead.  Every output is checked; the last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and `metrics`.
The exit code is 1 when a check fails, 2 when the checkout has no package.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("certify", "simulate", "construct")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# the bare interpreter's start at the reference speed (its typical value
# on the machine the baseline was recorded on); it fixes the scale only
BARE_START_REFERENCE_S = 0.19

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "kernel_s": "s",
    "small_ops_per_s": "1/s",
}


def import_package() -> None:
    src = ROOT / "src"
    if not (src / "qcss" / "__init__.py").is_file():
        print(f"error: no qcss package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def make_workload(name: str):
    import workloads

    if name == "certify":
        return workloads.Certify()
    if name == "simulate":
        return workloads.Simulate(WORK_DIR)
    return workloads.Construct()


def _time_to_ready(cmd: list[str]) -> float:
    """Seconds from spawning `cmd` until it prints its `ready` line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} did not start cleanly (exit {proc.returncode})")
    return elapsed


def measure_setup(name: str, seed: int) -> float:
    """Set-up time at the reference speed: the median time from spawning a
    fresh interpreter until it has imported qcss and built the workload's
    inputs, scaled by the median start of a bare interpreter that imports
    numpy, timed alternately.  Both slow down together on a busy machine;
    only the first depends on qcss."""
    probe = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--probe-setup"]
    bare = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
    setups, bares = [], [_time_to_ready(bare)]
    for _ in range(SETUP_REPEATS):
        setups.append(_time_to_ready(probe))
        bares.append(_time_to_ready(bare))
    return statistics.median(setups) * BARE_START_REFERENCE_S / statistics.median(bares)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_run(wl, seed: int, seconds: float):
    from meter import Meter
    from workloads import Outcome

    setup_s = measure_setup(wl.name, seed)
    state = wl.setup(seed)
    with Meter() as meter:
        result = wl.run(state, meter, seconds)
    outcome = Outcome()
    wl.gate(state, result, outcome)
    metrics = {"setup_s": setup_s, **wl.end_to_end(result), "peak_rss_mb": peak_rss_mb()}
    print(f"measured {meter.raw_s:.3f} s, {meter.scaled_s:.3f} s at the reference speed")
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, outcome


def traced_run(wl, seed: int, seconds: float):
    import layers
    from meter import Meter
    from tracer import Tracer, instrument
    from workloads import Outcome

    outcome = Outcome()
    state = wl.setup(seed)
    with Meter() as plain_meter:
        plain = wl.run(state, plain_meter, seconds)
    wl.gate(state, plain, outcome)

    tracer = Tracer()
    inst = instrument(tracer)
    try:
        tracer.new_trace()
        state = wl.setup(seed)
        with Meter() as traced_meter:
            traced = wl.run(state, traced_meter, seconds, plan=wl.plan(plain), tracer=tracer)
    finally:
        inst.restore()
    wl.gate(state, traced, outcome)

    values = dict.fromkeys((name for name, _ in layers.PER_LAYER), 0.0)
    values.update(layers.layer_metrics(tracer))
    values.update(wl.parts(plain))
    values.update(wl.traced_parts(state, plain, traced))
    values["trace.overhead_share"] = traced_meter.scaled_s / plain_meter.scaled_s - 1
    tracer.save(WORK_DIR / f"trace-{wl.name}-{seed}.npz")
    units = dict(layers.PER_LAYER)
    return {k: (values[k], units[k]) for k in units}, outcome


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_package()
    wl = make_workload(args.workload)
    if args.probe_setup:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0

    run = traced_run if args.trace else untraced_run
    metrics, outcome = run(wl, args.seed, args.seconds)
    correct = outcome.failed == 0
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted {outcome.attempted}, failed {outcome.failed}")
    for problem in outcome.problems[:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
