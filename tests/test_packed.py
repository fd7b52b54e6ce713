"""The packed integer form that Hamiltonian fields and differential operators share."""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

from nsq.algebra import Observable
from nsq.forms import HamVF, ham_vf
from nsq.quantization import DiffOperator, b1_monomials, make_q2, op_compose, quantize
from nsq.scalars import Scalar


def test_equal_forms_hash_equal_whichever_way_they_were_built():
    n = 2
    monos = b1_monomials(n, 3)
    coeff = Scalar.symbol("A1").scale(Fraction(2, 3)) + Fraction(1, 4)
    for mono in monos:
        x = ham_vf(Observable(n, {mono: coeff}))
        from_view = HamVF(n, dict(x.terms))
        assert from_view == x and hash(from_view) == hash(x)
    qmap = make_q2(n)
    images = [quantize(qmap, Observable(n, {mono: coeff})) for mono in monos[:12]]
    for a, b in itertools.product(images, repeat=2):
        composed = op_compose(a, b)
        from_view = DiffOperator(n, dict(composed.terms))
        assert from_view == composed and hash(from_view) == hash(composed)
    # a kernel result reduced by its gcd meets the view of the same value
    half = DiffOperator.identity(n).scale(Fraction(1, 2))
    assert len({op_compose(half, DiffOperator.identity(n)), half, DiffOperator(n, dict(half.terms))}) == 1


# Builds operators or fields first, so that the one registry hands out its
# fields in a different order, then prints what the CLI prints.
REGISTRY_SCRIPT = r"""
import contextlib, io, json, re, sys
from fractions import Fraction
from nsq import cli
from nsq.forms import HamVF, VectorField
from nsq.packed import _FIELDS
from nsq.polynomials import Poly, qvar
from nsq.quantization import DiffOperator
from nsq.scalars import IHBAR, Scalar


def operators():
    coeff = Scalar.symbol(IHBAR) * Scalar.symbol("A2") + Fraction(1, 3)
    DiffOperator(2, {(1, 2): Poly.var(qvar(3)).scale(coeff)}).terms


def fields():
    coeff = Scalar.symbol("A1") * Scalar.symbol(IHBAR, 2)
    HamVF(2, {(1,): VectorField(h={2: Poly.var(("x", 1)).scale(coeff)})}).terms


for build in (operators, fields) if sys.argv[1] == "operators" else (fields, operators):
    build()
out = []
for argv in (
    ["hamvf", "-n", "2", "1/3 qh(1,1)*pih(2) - 2 pih(1)*rh(1)"],
    ["hamvf", "-n", "2", "--gauge-b1", "qh(2,1)*pih(1)*pih(2)"],
    ["quantize", "-n", "2", "--map", "q1", "pih(1) + 1/2 qh(2,1)"],
    ["quantize", "-n", "2", "--map", "q2", "qh(1,1)*qh(2,1) - qh(1,1)*pih(2) + pih(1)*pih(2)"],
    ["verify", "--suite", "all", "-n", "2"],
):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(argv)
    out.append([code, re.sub(r"millis=[0-9]+", "millis=", text.getvalue())])
print(json.dumps({"registry": [list(map(str, f)) for f in _FIELDS], "out": out}))
"""


def test_output_does_not_depend_on_the_registry_order():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    runs = [
        json.loads(subprocess.run(
            [sys.executable, "-c", REGISTRY_SCRIPT, first], env=env, capture_output=True, text=True, check=True
        ).stdout)
        for first in ("operators", "fields")
    ]
    assert runs[0]["registry"] != runs[1]["registry"]
    assert runs[0]["out"] == runs[1]["out"]
    assert all(code == 0 for code, _ in runs[0]["out"]) and "PASS" in runs[0]["out"][-1][1]
