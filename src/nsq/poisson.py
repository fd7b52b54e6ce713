"""The graded Poisson bracket on frame-bundle observables.

For homogeneous f of rank p and g of rank q the bracket is

    {f, g}^K = -p! * Sym_K [ X_f^{I_{p-1}} (g^{J_q}) ]

over all canonical multi-indices K of rank p+q-1, where X_f is any
representative of the Hamiltonian class of f (the value does not depend on
the choice) and X(g) is the directional derivative of each component.  The
sign convention is fixed so that {qhat(i,j), pihat(k)} = delta(i,k) rhat(j),
mirroring the cotangent-bundle convention {q, p} = +1.

Every bracket is computed twice, by independent routes:

1. the defining formula above, from the canonical representative, and
2. a generator-level expansion: the bracket is a biderivation of the
   symmetric product with {qhat(i,j), pihat(k)} = delta(i,k) rhat(j) the
   only nonzero generator pair.

The two expansions are compared exactly on every call, and a disagreement
raises EngineError naming the first differing rank and multi-index with
both routes' values there.  The second route also supplies the generator
decomposition of the result, so brackets nest.

Route 1 runs over the pairs of X's grades and g's components only, through
the one split-pair loop :func:`nsq.algebra.split_pair_sum` with factor -p!.
It reads X from the shared field memo of :mod:`nsq.forms` and, for a unit
monomial g, g's components straight from the shared expansion memo of
:mod:`nsq.algebra`; both are read-only.  The memos save rebuilding the
operands, not either route: both still run on every call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .algebra import GenMonomial, Observable, in_b1_algebra, rtag, split_pair_sum
from .errors import EngineError, NotInGeneratorAlgebra
from .forms import (
    HamVF,
    VectorField,
    add_gauge,
    ham_vf,
    random_valid_gauge,
    structure_eq_check,
    vf_bracket,
)
from .polynomials import Poly, accumulate
from .scalars import Scalar


def _bracket_components(
    x: HamVF, p: int, g: Observable, q: int
) -> dict:
    """Route 1: -p! Sym[X(g)] on each rank-(p+q-1) multi-index.

    Sym averages over the splits of K into a (p-1)-subset fed to X and the
    complement fed to g: :func:`nsq.algebra.split_pair_sum` of X's grades
    applied to g's components, with factor -p!.
    """
    return split_pair_sum(x.terms, g.components.get(q, {}), VectorField.apply, -factorial(p))


def _pair_bracket_tag(s, t):
    """Generator bracket table; returns (coefficient, rhat tag) or None."""
    if s[0] == "q" and t[0] == "pi":
        return (1, rtag(s[2])) if s[1] == t[1] else None
    if s[0] == "pi" and t[0] == "q":
        return (-1, rtag(t[2])) if t[1] == s[1] else None
    return None


def _generator_bracket(f: Observable, g: Observable) -> Observable:
    """Route 2: biderivation expansion over generator monomials."""
    out: dict[GenMonomial, Scalar] = {}
    for mf, cf in f.terms.items():
        for mg, cg in g.terms.items():
            base = cf * cg
            for si, s in enumerate(mf):
                for ti, t in enumerate(mg):
                    hit = _pair_bracket_tag(s, t)
                    if hit is None:
                        continue
                    sign, tag = hit
                    mono = tuple(
                        sorted(mf[:si] + mf[si + 1 :] + mg[:ti] + mg[ti + 1 :] + (tag,))
                    )
                    accumulate(out, mono, base * Scalar.of(sign))
    return f._like(out)


def bracket(
    f: Observable,
    g: Observable,
    gauge_seed: int | None = None,
) -> Observable:
    """Graded Poisson bracket of two observables.

    Extends bilinearly over grades; homogeneous ranks p and q land in rank
    p+q-1.  ``gauge_seed`` shifts the representative of f by a seeded
    random valid gauge term before applying it; the result must be (and is
    verified to be) unchanged.  Both arguments must live in one algebra:
    the same dimension and the same slice (see :mod:`nsq.subbundle`).
    """
    f._require_same(g)
    result = _generator_bracket(f, g)
    expected = result.components
    computed: dict = {}
    rng = None if gauge_seed is None else random.Random(gauge_seed)
    for p in f.ranks():
        fp = f.grade_part(p)
        x = ham_vf(fp)
        if rng is not None:
            x = add_gauge(x, random_valid_gauge(f.n, p - 1, rng))
        for q in g.ranks():
            part = _bracket_components(x, p, g, q)
            grade = computed.setdefault(p + q - 1, {})
            for K, poly in part.items():
                accumulate(grade, K, poly)
    computed = {r: grade for r, grade in computed.items() if grade}
    if computed != expected:
        rank, K = _first_difference(computed, expected)
        route1 = computed.get(rank, {}).get(K, Poly.zero())
        route2 = expected.get(rank, {}).get(K, Poly.zero())
        raise EngineError(
            f"bracket routes disagree at rank {rank}, multi-index {K}: "
            f"route 1 (structure equation) gives {route1}, "
            f"route 2 (generator expansion) gives {route2}, for {f!r} and {g!r}"
        )
    return result


def _first_difference(a: dict, b: dict) -> tuple:
    """The first (rank, multi-index), in sorted order, where two graded maps differ."""
    return min(
        (rank, K)
        for rank in set(a) | set(b)
        for K in set(a.get(rank, {})) | set(b.get(rank, {}))
        if a.get(rank, {}).get(K) != b.get(rank, {}).get(K)
    )


def jacobi_residual(
    f: Observable, g: Observable, h: Observable, gauge_seed: int | None = None
) -> Observable:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}; identically zero.

    ``gauge_seed`` is passed to every bracket (see :func:`bracket`).
    """

    def br(a: Observable, b: Observable) -> Observable:
        return bracket(a, b, gauge_seed=gauge_seed)

    return br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))


class GradedBracketResult:
    """Bracket value together with its rank law.

    For homogeneous inputs of ranks p and q the value is zero or
    homogeneous of rank exactly p+q-1; ``holds`` records the law.
    """

    __slots__ = ("value", "expected_rank", "holds")

    def __init__(self, f: Observable, g: Observable):
        p, q = f.rank(), g.rank()
        self.value = bracket(f, g)
        self.expected_rank = p + q - 1
        self.holds = self.value.is_zero() or self.value.ranks() == [self.expected_rank]

    def __repr__(self):
        return (
            f"GradedBracketResult(value={self.value!r}, "
            f"expected_rank={self.expected_rank}, holds={self.holds})"
        )


def theorem1_constant(p: int, q: int) -> Fraction:
    """(p+q-1)! / (p! q!), the scaling between the two bracket notions."""
    return Fraction(factorial(p + q - 1), factorial(p) * factorial(q))


def theorem1_check(f: Observable, g: Observable, gauge_seed: int | None = None) -> bool:
    """Verify C * X_{f,g} = [X_f, X_g] as equivalence classes.

    C = (p+q-1)!/(p!q!).  With this engine's sign convention (the bracket
    flipped to make {qhat, pihat} positive) the field bracket satisfies
    [X_f, X_g] = -C X_{{f,g}}, so the check is that -(1/C) [X_f, X_g] is a
    representative for {f,g}: equality is tested through the structure
    equation, which is gauge-invariant.

    ``gauge_seed`` shifts X_f and X_g by seeded random valid gauge terms
    (zero at rank 1) and is passed to the bracket; the verdict must not change.
    """
    p, q = f.rank(), g.rank()
    c = theorem1_constant(p, q)
    xf, xg = ham_vf(f), ham_vf(g)
    if gauge_seed is not None:
        rng = random.Random(gauge_seed)
        xf = add_gauge(xf, random_valid_gauge(f.n, p - 1, rng))
        xg = add_gauge(xg, random_valid_gauge(g.n, q - 1, rng))
    candidate = vf_bracket(xf, xg).scale(Fraction(-1, 1) / c)
    return structure_eq_check(bracket(f, g, gauge_seed=gauge_seed), candidate)


def grade_of_bracket(f: Observable, g: Observable) -> bool:
    """The rank law: the bracket is zero or homogeneous of rank p+q-1."""
    return GradedBracketResult(f, g).holds


def tensor_extension_identity_check(
    f: Observable, g: Observable, k: int, l: int
) -> bool:
    """{f x rhat(1)^k, g x rhat(1)^l} = {f, g} x rhat(1)^(k+l)."""
    from .algebra import make_rhat, sym_mul, sym_pow

    n = f.n

    def extend(obs: Observable, m: int) -> Observable:
        if m == 0:
            return obs
        return sym_mul(obs, sym_pow(make_rhat(n, 1), m))

    lhs = bracket(extend(f, k), extend(g, l))
    rhs = extend(bracket(f, g), k + l)
    return lhs == rhs


def min_rank(f: Observable) -> int | None:
    """Smallest nonempty grade; None is the marker for the zero observable."""
    return f.min_rank()


def is_in_Pk(f: Observable, k: int, slot: int = 1) -> bool:
    """Membership in the ideal of elements of minimum rank >= k."""
    if not in_b1_algebra(f, slot):
        raise NotInGeneratorAlgebra(
            "observable is outside the polynomial algebra of the basic set"
        )
    r = f.min_rank()
    return True if r is None else r >= k
