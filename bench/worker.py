"""One benchmark process: set up one workload, then run its cases in a closed loop.

Started by run.py and selfcheck.py, never by hand.  One caller sends the next
case only after the previous case's exact verdict.  Modes:

  setup   set up, time three calibration probes and exit;
  time    run cases untraced for --seconds (or --cases);
  spans   run exactly --cases cases under the span tracer;
  counts  run exactly --cases cases under the operation counter.

Every mode reports each case's time and, every 0.25 s between two cases,
the time of a calibration probe of the machine's current speed.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALIBRATION_EVERY_NS = 250_000_000


def import_nsq():
    """Import nsq from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import nsq

    if not Path(nsq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"nsq was imported from {nsq.__file__}, not from {SRC}")


def calibration_ns() -> int:
    """Time of a fixed pure-Python loop, cyclic GC off: a probe of how fast
    the machine runs at the moment, independent of nsq."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        acc: dict = {}
        for i in range(3000):
            key = (i % 37, (i * 7) % 11)
            prev = acc.get(key)
            acc[key] = Fraction(i, 7) if prev is None else prev + Fraction(i, 7)
        sorted(acc.items())
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "spans", "counts"), required=True)
    ap.add_argument("--seconds", type=float, default=math.inf)
    ap.add_argument("--cases", type=int, default=None)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent started this process")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    import_nsq()
    import nsqtrace
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    specs = workload.specs()
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        result["calibration_ns"] = [(0, calibration_ns()) for _ in range(3)]
        print(json.dumps(result))
        return

    tracer = counter = None
    if args.mode == "spans":
        tracer = nsqtrace.SpanTracer()
        tracer.install()
        run = lambda i, spec: tracer.run_case(i, workload.run, spec)
    else:
        if args.mode == "counts":
            counter = nsqtrace.OpCounter()
            counter.install()
        run = lambda i, spec: workload.run(spec)

    limit = args.cases if args.cases is not None else math.inf
    verdicts: list[bool] = []
    durations: list[int] = []
    starts: list[int] = []
    calibration: list[tuple[int, int]] = []
    next_calibration = 0
    errors: list[str] = []
    clock = time.perf_counter_ns
    t0 = clock()
    deadline = t0 + args.seconds * 1e9
    for i, spec in enumerate(specs):
        if i >= limit or clock() >= deadline:
            break
        if clock() >= next_calibration:
            calibration.append((clock() - t0, calibration_ns()))
            next_calibration = clock() + CALIBRATION_EVERY_NS
        start = clock()
        starts.append(start - t0)
        try:
            ok = run(i, spec) is True
            error = "verdict False"
        except Exception as exc:  # a raising case is a failed case, EngineError included
            ok = False
            error = f"{type(exc).__name__}: {exc}"
        durations.append(clock() - start)
        if not ok and len(errors) < 5:
            errors.append(f"{workload.label(spec)}: {error}")
        verdicts.append(ok)

    cases = len(verdicts)
    result.update(
        cases=cases,
        failed=verdicts.count(False),
        errors=errors,
        case_s=sum(durations) / 1e9,
        verdicts="".join("1" if ok else "0" for ok in verdicts),
        durations_ns=durations,
        starts_ns=starts,
        calibration_ns=calibration,
    )
    if args.mode == "time":
        result.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            wrappers=nsqtrace.installed_wrappers(),
        )
    elif tracer is not None:
        tracer.uninstall()
        result.update(nsqtrace.summarize_spans(tracer.layers, tracer.spans()), absent=tracer.absent)
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        counter.uninstall()
        result.update(counter.summary(), absent=counter.absent)
    if tracer is not None or counter is not None:
        result["wrappers_left"] = nsqtrace.installed_wrappers()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
