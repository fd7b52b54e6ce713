"""Trace wrappers that the benchmark installs around nsq's layer boundaries.

Two kinds of pass use them, each in its own process:

* a span pass records one span (layer, start, end, parent, case id) per call
  of every function in ``SPAN_TARGETS``; the spans stay in memory and are
  written out when the pass ends;
* a count pass counts the ``Scalar``/``Poly`` operations in
  ``COUNT_TARGETS`` and records the reuse keys behind the ``distinct_ratio``
  metrics.  It records no spans, so the cheap but very frequent arithmetic
  wrappers do not inflate any span's self time.

A wrapper is installed by rebinding every name under which an nsq module or
class holds the original object (``forms`` imports ``_monomial_components``
by name, ``subbundle`` imports ``sym_components``, ``Scalar.__rmul__`` is
``Scalar.__mul__``), and removed again by ``uninstall``.  nsq itself is
never edited.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter

MARK = "__nsq_bench_wrapper__"

# (module, attribute, layer).  "Class.attr" names a method or property.
SPAN_TARGETS = (
    ("poisson", "bracket", "poisson.bracket"),
    ("algebra", "Observable.components", "algebra.components"),
    ("algebra", "_monomial_components", "algebra.monomials"),
    ("algebra", "sym_components", "algebra.sym_components"),
    ("forms", "ham_vf", "forms.ham_vf"),
    ("forms", "vf_bracket", "forms.vf_bracket"),
    ("forms", "structure_eq_check", "forms.structure_eq_check"),
    ("quantization", "dirac_check", "quantization.dirac_check"),
    ("quantization", "quantize", "quantization.quantize"),
    ("quantization", "op_compose", "quantization.op_compose"),
    ("symplectic_ref", "weyl_quantize", "symplectic_ref.weyl_quantize"),
    ("symplectic_ref", "weyl_quantize_brute", "symplectic_ref.weyl_quantize_brute"),
    ("subbundle", "reduce_observable", "subbundle.reduce_observable"),
    ("subbundle", "reduced_bracket", "subbundle.reduced_bracket"),
    ("parsing", "parse_observable", "parsing.parse_observable"),
    ("parsing", "print_observable", "parsing.print_observable"),
)

COUNT_TARGETS = (
    ("scalars", "Scalar.__mul__", "scalars.mul"),
    ("scalars", "Scalar.__add__", "scalars.add"),
    ("polynomials", "Poly.__mul__", "polynomials.mul"),
    ("polynomials", "Poly.diff", "polynomials.diff"),
)

# Boundaries where the count pass records reuse keys.
KEY_TARGETS = (
    ("poisson", "bracket", "poisson.bracket"),
    ("forms", "ham_vf", "forms.ham_vf"),
    ("algebra", "_monomial_components", "algebra.monomials"),
)

CASE = "case"


def nsq_modules():
    return [m for name, m in list(sys.modules.items()) if name == "nsq" or name.startswith("nsq.")]


def resolve(module: str, attr: str):
    """(owner, original) for a target, or None when nsq has no such name."""
    try:
        owner = importlib.import_module("nsq." + module)
    except ModuleNotFoundError:
        return None
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
        original = None if owner is None else owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    return None if original is None else (owner, original)


def is_wrapper(value) -> bool:
    if isinstance(value, property):
        value = value.fget
    return getattr(value, MARK, False)


def installed_wrappers() -> list[str]:
    """Names in nsq modules and their classes that are bound to a wrapper."""
    found = []
    for m in nsq_modules():
        for name, value in list(vars(m).items()):
            if is_wrapper(value):
                found.append(f"{m.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == m.__name__:
                found += [f"{m.__name__}.{value.__name__}.{k}" for k, v in vars(value).items() if is_wrapper(v)]
    return found


class _Patcher:
    """Rebinds every nsq binding of an original object to its wrapper."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def patch(self, targets, make_wrapper) -> None:
        for module, attr, layer in targets:
            resolved = resolve(module, attr)
            if resolved is None:
                self.absent.append(layer)
                continue
            owner, original = resolved
            if isinstance(original, property):
                fget = make_wrapper(layer, original.fget)
                setattr(fget, MARK, True)
                self._rebind_in(owner, original, property(fget, original.fset, original.fdel, original.__doc__))
                continue
            wrapper = make_wrapper(layer, original)
            setattr(wrapper, MARK, True)
            if isinstance(owner, type):
                self._rebind_in(owner, original, wrapper)
            else:
                for m in nsq_modules():
                    self._rebind_in(m, original, wrapper)

    def _rebind_in(self, owner, original, wrapper) -> None:
        for name, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, name, wrapper)
                self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


class SpanTracer:
    """Records spans in a flat integer buffer: 5 slots per span.

    Slots: layer id, start ns, end ns, parent span index (-1 at a case root),
    case id.  Parents always precede their children.
    """

    FIELDS = ("layer", "start_ns", "end_ns", "parent", "case")

    def __init__(self):
        self.layers: list[str] = [CASE]
        self.buf = array("q")
        self.stack: list[int] = []
        self.case = -1
        self._patcher = _Patcher()

    @property
    def absent(self) -> list[str]:
        return self._patcher.absent

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _span(self, layer_id: int, fn, args, kwargs):
        buf, stack, clock = self.buf, self.stack, time.perf_counter_ns
        idx = len(buf) // 5
        buf.extend((layer_id, clock(), 0, stack[-1] if stack else -1, self.case))
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            buf[5 * idx + 2] = clock()

    def install(self) -> None:
        def make_wrapper(layer, fn):
            layer_id = self._layer_id(layer)
            if layer == "algebra.components":
                # Only an expansion is work; later reads return the stored map.
                def components(obs):
                    if getattr(obs, "_components", None) is not None:
                        return fn(obs)
                    return self._span(layer_id, fn, (obs,), {})

                return components

            def wrapper(*args, **kwargs):
                return self._span(layer_id, fn, args, kwargs)

            return wrapper

        self._patcher.patch(SPAN_TARGETS, make_wrapper)

    def uninstall(self) -> None:
        self._patcher.uninstall()

    def run_case(self, case_id: int, fn, *args):
        """Run one case under a root span."""
        self.case = case_id
        return self._span(0, fn, args, {})

    def spans(self):
        buf = self.buf
        for i in range(0, len(buf), 5):
            yield buf[i : i + 5]

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(
                {"fields": list(self.FIELDS), "layers": self.layers, "spans": [list(s) for s in self.spans()]},
                fh,
            )


def summarize_spans(layers: list[str], spans) -> dict:
    """Per-layer calls, busy and self time, and the nesting checks.

    busy time counts only spans with no ancestor of the same layer, so a
    recursive layer is not counted twice; self time is a span's duration
    minus its children's.  Children of one parent run one after another, so
    self time is never negative when the spans nest.
    """
    spans = [tuple(s) for s in spans]
    child_ns = [0] * len(spans)
    masks = [0] * len(spans)
    calls: Counter = Counter()
    busy: Counter = Counter()
    self_ns: Counter = Counter()
    nested = True
    for idx, (layer, start, end, parent, case) in enumerate(spans):
        bit = 1 << layer
        if parent >= 0:
            _, p_start, p_end, _, p_case = spans[parent]
            if not (parent < idx and p_start <= start <= end <= p_end and p_case == case):
                nested = False
            child_ns[parent] += end - start
            above = masks[parent]
        else:
            if layer != 0 or end < start:
                nested = False
            above = 0
        masks[idx] = above | bit
        name = layers[layer]
        calls[name] += 1
        if not above & bit:
            busy[name] += end - start
    min_self = None
    for idx, (layer, start, end, _, _) in enumerate(spans):
        own = end - start - child_ns[idx]
        self_ns[layers[layer]] += own
        min_self = own if min_self is None else min(min_self, own)
    return {
        "calls": dict(calls),
        "busy_s": {k: v / 1e9 for k, v in busy.items()},
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "nested": nested,
        "min_self_ns": min_self if min_self is not None else 0,
        "spans": len(spans),
    }


class OpCounter:
    """Exact operation counts and reuse keys, with no timing."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {layer: set() for _, _, layer in KEY_TARGETS}
        self._depth = 0
        self._patcher = _Patcher()

    @property
    def absent(self) -> list[str]:
        return self._patcher.absent

    def install(self) -> None:
        counts, keys = self.counts, self.keys

        def make_counter(layer, fn):
            if layer == "scalars.mul":
                scalar = importlib.import_module("nsq.scalars").Scalar

                def mul(a, b):
                    counts[layer] += 1
                    if a.is_rational() and (not isinstance(b, scalar) or b.is_rational()):
                        counts["scalars.mul.rational"] += 1
                    return fn(a, b)

                return mul

            def counted(*args, **kwargs):
                counts[layer] += 1
                return fn(*args, **kwargs)

            return counted

        def make_keyed(layer, fn):
            seen = keys[layer]
            if layer == "poisson.bracket":

                def bracket(f, g, *args, **kwargs):
                    for mf in f.genpoly:
                        for mg in g.genpoly:
                            counts[layer] += 1
                            seen.add((f.n, mf, mg))
                    return fn(f, g, *args, **kwargs)

                return bracket
            if layer == "forms.ham_vf":

                def ham_vf(f, *args, **kwargs):
                    for mono in f.genpoly:
                        counts[layer] += 1
                        seen.add((f.n, mono))
                    return fn(f, *args, **kwargs)

                return ham_vf

            # _monomial_components(mono, n, cache): keys are taken at the
            # outermost call, i.e. where Observable.components or ham_vf asks
            # for an expansion, not at its own recursion.
            def expand(mono, n, *args, **kwargs):
                if self._depth == 0:
                    counts[layer] += 1
                    seen.add((n, mono))
                self._depth += 1
                try:
                    return fn(mono, n, *args, **kwargs)
                finally:
                    self._depth -= 1

            return expand

        self._patcher.patch(COUNT_TARGETS, make_counter)
        self._patcher.patch(KEY_TARGETS, make_keyed)

    def uninstall(self) -> None:
        self._patcher.uninstall()

    def summary(self) -> dict:
        out = {f"{layer}.calls": self.counts[layer] for _, _, layer in COUNT_TARGETS}
        mul = self.counts["scalars.mul"]
        out["scalars.mul.rational_share"] = self.counts["scalars.mul.rational"] / mul if mul else 0.0
        for _, _, layer in KEY_TARGETS:
            total = self.counts[layer]
            out[f"{layer}.keys_seen"] = total
            out[f"{layer}.distinct_ratio"] = len(self.keys[layer]) / total if total else 0.0
        return out
