"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

From the root of a checkout.  For every workload, at a tiny size:

* the untraced, span and count passes give identical verdicts, all True;
* the spans nest (each inside its parent, in the same case) and every self
  time is >= 0, also after a round trip through the written span file;
* untraced processes have no wrapper installed, and traced processes leave
  none behind;

and, in this process, installing the tracers rebinds every nsq binding of
each target and uninstalling restores the original objects.  Then the whole
dirac-q1-n3 sweep runs untraced, and its case count and verdicts must match
``run_suite("dirac-q1", n=3)``.  Exits 0 when every check holds.
"""

from __future__ import annotations

import gzip
import json
import sys

import nsqtrace
import run
import worker

CASES = 30
SEED = 1


def check(label: str, ok: bool, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
    if not ok:
        failures.append(label)


def bindings(original) -> list:
    """Every (owner, name) in nsq modules and classes bound to an object."""
    owners = []
    for m in nsqtrace.nsq_modules():
        owners.append(m)
        owners += [v for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__]
    return [(o, k) for o in owners for k, v in list(vars(o).items()) if v is original]


def check_patching(failures: list) -> None:
    targets = nsqtrace.SPAN_TARGETS + nsqtrace.COUNT_TARGETS + nsqtrace.KEY_TARGETS
    originals = {}
    for module, attr, _ in targets:
        original = nsqtrace.resolve(module, attr)[1]
        originals[(module, attr)] = (original, bindings(original))
    check("forms and algebra both bind _monomial_components",
          {o.__name__ for o, _ in originals[("algebra", "_monomial_components")][1]} >= {"nsq.algebra", "nsq.forms"},
          failures)
    for tracer in (nsqtrace.SpanTracer(), nsqtrace.OpCounter()):
        kind = type(tracer).__name__
        tracer.install()
        patched = [
            (module, attr) for module, attr, _ in targets
            if all(nsqtrace.is_wrapper(vars(o)[k]) for o, k in originals[(module, attr)][1])
        ]
        expected = nsqtrace.SPAN_TARGETS if kind == "SpanTracer" else nsqtrace.COUNT_TARGETS + nsqtrace.KEY_TARGETS
        check(f"{kind} wraps every binding of each of its targets",
              {(m, a) for m, a, _ in expected} <= set(patched), failures)
        tracer.uninstall()
        restored = all(vars(o)[k] is original for original, binds in originals.values() for o, k in binds)
        check(f"{kind} uninstall restores every original", restored and not nsqtrace.installed_wrappers(), failures)


def check_span_checks(failures: list) -> None:
    layers = [nsqtrace.CASE, "inner"]
    outside = nsqtrace.summarize_spans(layers, [[0, 0, 10, -1, 0], [1, 5, 20, 0, 0]])
    other_case = nsqtrace.summarize_spans(layers, [[0, 0, 10, -1, 0], [1, 2, 4, 0, 1]])
    good = nsqtrace.summarize_spans(layers, [[0, 0, 10, -1, 0], [1, 2, 4, 0, 0], [1, 4, 9, 0, 0]])
    check("nesting check rejects a child outside its parent or case",
          not outside["nested"] and not other_case["nested"] and good["nested"], failures)
    check("self time is duration minus children", good["self_s"]["case"] == 3e-9, failures)


def check_workload(name: str, failures: list) -> None:
    spawn = run.Spawner(name, SEED)
    run.OUT.mkdir(exist_ok=True)
    spans_out = run.OUT / f"selfcheck-{name}.json.gz"
    plain = spawn("time", "--cases", str(CASES))
    spans = spawn("spans", "--cases", str(CASES), "--spans-out", str(spans_out))
    counts = spawn("counts", "--cases", str(CASES))
    passes = (plain, spans, counts)
    check(f"{name}: {CASES} cases in each pass, none failed",
          all(p["cases"] == CASES and p["failed"] == 0 for p in passes), failures)
    check(f"{name}: traced and untraced verdicts identical",
          len({p["verdicts"] for p in passes}) == 1, failures)
    check(f"{name}: untraced run has no wrapper installed", plain["wrappers"] == [], failures)
    check(f"{name}: traced runs remove their wrappers",
          spans["wrappers_left"] == [] and counts["wrappers_left"] == [], failures)
    with gzip.open(spans_out, "rt") as fh:
        written = json.load(fh)
    summary = nsqtrace.summarize_spans(written["layers"], written["spans"])
    check(f"{name}: {summary['spans']} spans nest", spans["nested"] and summary["nested"], failures)
    check(f"{name}: every self time >= 0", spans["min_self_ns"] >= 0 and summary["min_self_ns"] >= 0, failures)
    check(f"{name}: one root span per case", summary["calls"].get(nsqtrace.CASE) == CASES, failures)


def check_dirac_sweep(failures: list) -> None:
    from nsq.quantization import b1_monomials
    from nsq.suites import run_suite

    import workloads

    w = workloads.DiracQ1(SEED)
    check("dirac-q1-n3 monomials are b1_monomials(3, 3)",
          sorted(w.monomials) == sorted(b1_monomials(3, 3)) and len(set(w.pairs)) == len(w.monomials) ** 2,
          failures)
    sweep = run.Spawner(w.name, SEED)("time", "--cases", str(len(w.pairs)))
    report = run_suite("dirac-q1", n=3)
    failed_labels = {f.case for f in report.failures}
    check(f"full dirac-q1-n3 sweep: {sweep['cases']} cases, {sweep['failed']} failed; "
          f"run_suite: {report.cases} cases, {report.failed} failed",
          sweep["cases"] == report.cases and sweep["failed"] == report.failed
          and all(e.split(": ", 1)[0] in failed_labels for e in sweep["errors"]),
          failures)


def main() -> int:
    worker.import_nsq()
    failures: list = []
    check_patching(failures)
    check_span_checks(failures)
    for name in run.WORKLOADS:
        check_workload(name, failures)
    check_dirac_sweep(failures)
    print("selfcheck passed" if not failures else f"selfcheck FAILED: {len(failures)} checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
