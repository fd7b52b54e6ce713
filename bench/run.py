"""The nsq benchmark: one workload, one run, every metric by name.

    python3 bench/run.py --workload dirac-q1-n3 --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it imports nsq from ``src/`` there and
exits with code 2, printing no result, when there is none.  Each process it
starts is a fresh single-threaded Python with PYTHONHASHSEED fixed, running
one closed-loop caller (bench/worker.py) that sends the next case only
after the previous case's exact verdict.

--trace 0 prints the end-to-end metrics.  REPEATS processes one after
another each set up and run the same seeded cases untraced for
--seconds / REPEATS.  Every quarter second a worker also times a fixed
pure-Python calibration probe.  Each case time is scaled to the reference
speed by the fastest probe near it, and each case keeps its fastest scaled
time over the repeats: the shared machine this was tuned on changes speed by
up to 2x, from bursts of a fraction of a second to phases of a minute.
setup_s is the median of SETUPS scaled set-up times: the repeats' and
those of processes that only set up and probe.

--trace 1 prints the per-layer metrics from three processes that run the
same cases: an untraced one for a quarter of --seconds, then one under the
span tracer and one under the operation counter, each for exactly as many
cases.  trace.overhead_ratio is the traced over the untraced case time,
both scaled to the reference speed.
The spans are written to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "nsq"
OUT = BENCH / "out"
WORKLOADS = ("dirac-q1-n3", "laws-mixed-n3", "weyl-ops-n2")
REPEATS = 5
SETUPS = 11
# The calibration probe's fastest time on the machine this benchmark was
# tuned on (2-vCPU x86-64 VM, Python 3.11); times are reported at that speed.
CALIBRATION_REF_NS = 5_650_000
LOCAL_NS = 1_000_000_000
HASHSEED = "0"
TIME_LIMIT_S = 170

# Per-layer metrics: span layer -> fields taken from the span pass.
SPAN_METRICS = (
    ("poisson.bracket", ("calls", "busy_s", "self_s")),
    ("algebra.components", ("calls", "busy_s")),
    ("algebra.sym_components", ("calls", "busy_s")),
    ("algebra.monomials", ("busy_s",)),
    ("forms.ham_vf", ("calls", "busy_s")),
    ("forms.vf_bracket", ("busy_s",)),
    ("forms.structure_eq_check", ("busy_s",)),
    ("quantization.dirac_check", ("busy_s",)),
    ("quantization.quantize", ("busy_s",)),
    ("quantization.op_compose", ("calls", "busy_s")),
    ("symplectic_ref.weyl_quantize", ("busy_s",)),
    ("symplectic_ref.weyl_quantize_brute", ("busy_s",)),
    ("subbundle.reduce_observable", ("busy_s",)),
    ("subbundle.reduced_bracket", ("busy_s",)),
    ("parsing.parse_observable", ("busy_s",)),
    ("parsing.print_observable", ("busy_s",)),
)
# Per-layer metrics taken from the count pass.
COUNT_METRICS = (
    "scalars.mul.calls",
    "scalars.mul.rational_share",
    "scalars.add.calls",
    "polynomials.mul.calls",
    "polynomials.diff.calls",
    "poisson.bracket.keys_seen",
    "poisson.bracket.distinct_ratio",
    "forms.ham_vf.keys_seen",
    "forms.ham_vf.distinct_ratio",
    "algebra.monomials.keys_seen",
    "algebra.monomials.distinct_ratio",
)


class BenchError(Exception):
    pass


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def machine() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "pythonhashseed": HASHSEED,
    }


class Spawner:
    """Starts worker processes one at a time, within the run's time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.started = 0
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONHASHSEED"] = HASHSEED

    def __call__(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        self.started += 1
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], env=self.env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {mode} passed the {TIME_LIMIT_S} s limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"worker {mode} printed no result:\n{proc.stdout[-2000:]}") from None


def tail_percentile(count: int) -> int:
    """99, or the highest of 95/90/50 with at least 10 cases beyond it."""
    for p in (99, 95, 90):
        if count * (100 - p) / 100 >= 10:
            return p
    return 50


def percentile(ordered: list, p: float):
    """Nearest-rank percentile of a sorted list."""
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def speed_adjusted_s(run: dict) -> list[float]:
    """Each case's time in reference-speed seconds: its wall time scaled by
    CALIBRATION_REF_NS over the fastest calibration probe within LOCAL_NS of
    the case's start (the nearest probe when none is that close)."""
    probes = run["calibration_ns"]
    out = []
    for start, wall in zip(run["starts_ns"], run["durations_ns"]):
        near = [ns for t, ns in probes if abs(t - start) <= LOCAL_NS]
        probe = min(near) if near else min(probes, key=lambda p: abs(p[0] - start))[1]
        out.append(wall * CALIBRATION_REF_NS / probe / 1e9)
    return out


def end_to_end(spawn: Spawner, seconds: float) -> dict:
    runs = [spawn("time", "--seconds", str(seconds / REPEATS)) for _ in range(REPEATS)]
    adjusted = [speed_adjusted_s(r) for r in runs]
    # Each case's fastest time over the repeats that reached it.
    per_case_s = sorted(min(a[i] for a in adjusted if i < len(a)) for i in range(max(map(len, adjusted))))
    setups = [
        r["setup_s"] * CALIBRATION_REF_NS / min(ns for t, ns in r["calibration_ns"] if t <= LOCAL_NS)
        for r in runs + [spawn("setup") for _ in range(SETUPS - REPEATS)]
    ]
    count = len(per_case_s)
    attempted = sum(r["cases"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    tail = tail_percentile(count)
    beyond = count - math.ceil(tail / 100 * count)
    probes = [ns for r in runs for _, ns in r["calibration_ns"]]
    speed = CALIBRATION_REF_NS / statistics.median(probes)
    raw_rate = attempted / sum(r["case_s"] for r in runs)
    lines = [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} set-ups; unscaled median of the repeats {statistics.median(r['setup_s'] for r in runs):.4f} s"),
        ("cases_per_s", count / sum(per_case_s), "1/s", f"{count} cases; unscaled rate {raw_rate:.1f}/s"),
        ("case_p50_ms", 1e3 * percentile(per_case_s, 50), "ms", f"median of {count} cases"),
        ("case_p99_ms", 1e3 * percentile(per_case_s, tail), "ms",
         f"p{tail} of {count} cases, {beyond} beyond" + ("" if tail == 99 else "; too few cases for p99")),
        ("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in runs), "MB", f"median of {REPEATS} processes"),
    ]
    print(f"# machine speed: median calibration probe {statistics.median(probes) / 1e6:.3f} ms, "
          f"{speed:.2f} of the reference; {len(probes)} probes")
    for name, value, unit, note in lines:
        print(f"{name:<16} {value:>14.6f} {unit:<5} ({note})")
    print(f"{'failure_ratio':<16} {failed / attempted:>14.6f} ratio ({failed} of {attempted} cases failed or raised)")
    common = min(r["cases"] for r in runs)
    checks = {
        "same verdicts in every repeat": len({r["verdicts"][:common] for r in runs}) == 1,
        "no trace wrapper installed": not any(r["wrappers"] for r in runs),
    }
    report_checks(checks, runs)
    return {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in lines},
    }


def report_checks(checks: dict, runs: list) -> None:
    for label, ok in checks.items():
        print(f"# check {'ok  ' if ok else 'FAIL'} {label}")
    for r in runs:
        for err in r["errors"]:
            print(f"# failed case: {err}")


def per_layer(spawn: Spawner, seconds: float) -> dict:
    base = spawn("time", "--seconds", str(seconds / 4))
    cases = str(base["cases"])
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"spans-{spawn.workload}-seed{spawn.seed}.json.gz"
    spans = spawn("spans", "--cases", cases, "--spans-out", str(spans_out))
    counts = spawn("counts", "--cases", cases)
    passes = (base, spans, counts)

    metrics = {}
    for layer, fields in SPAN_METRICS:
        for field in fields:
            metrics[f"{layer}.{field}"] = spans[field].get(layer, 0)
    for name in COUNT_METRICS:
        metrics[name] = counts[name]
    case_s = spans["busy_s"]["case"]
    metrics["trace.case_busy_s"] = case_s
    metrics["trace.overhead_ratio"] = sum(speed_adjusted_s(spans)) / sum(speed_adjusted_s(base))

    for name, value in metrics.items():
        share = f"  {value / case_s:7.1%} of case time" if name.endswith(("busy_s", "self_s")) else ""
        print(f"{name:<44} {value:>16.6f} {unit_of(name)}{share}")
    checks = {
        "verdicts equal in all passes": len({p["verdicts"] for p in passes}) == 1,
        "no case failed": all(p["failed"] == 0 for p in passes),
        "spans nest": spans["nested"],
        "self times >= 0": spans["min_self_ns"] >= 0,
        "untraced pass ran with no wrapper": not base["wrappers"],
        "wrappers removed after each traced pass": not spans["wrappers_left"] and not counts["wrappers_left"],
    }
    report_checks(checks, passes)
    absent = sorted(set(spans["absent"]) | set(counts["absent"]))
    if absent:
        print(f"# layers absent from this nsq, reported as 0: {absent}")
    print(f"# {spans['spans']} spans written to {spans_out.relative_to(ROOT)}")
    return {
        "correct": all(checks.values()),
        "attempted": sum(p["cases"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"no nsq sources at {SRC}; run from the root of an nsq checkout", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("--seconds must be in (0, 60]", file=sys.stderr)
        return 2

    spawn = Spawner(args.workload, args.seed)
    print(f"# nsq benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# machine: {json.dumps(machine(), sort_keys=True)}")
    try:
        result = (per_layer if args.trace else end_to_end)(spawn, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"# runs: {spawn.started} worker processes, closed loop with 1 caller, seed {args.seed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
