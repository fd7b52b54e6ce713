"""Polynomial-coefficient differential operators and the quantization maps.

An operator is a finite sum of terms c d^alpha, coefficients left and
derivatives right, where d^alpha is a derivative multi-degree over
q^1..q^n and c a coefficient polynomial.  Operators act on functions of
the position variables; coefficients are polynomials in q^i and in the
multiplication variables P_k (which reuse the coordinate key of pi^slot_k
and commute with everything).  The combination i*hbar is carried as the
single formal symbol IHBAR so that all identities stay in exact rational
arithmetic; its formal adjoint is -IHBAR.

*The canonical form.*  A :class:`DiffOperator` is a
:class:`~nsq.packed.PackedLinComb` whose keys are whole packed ints, in the
layout of :mod:`nsq.packed`: the derivative degree along each q^i, the
power of each coefficient variable (q^i, P_k or any other) and the power
of each symbol (IHBAR, A_i or any other).  Every operator operation runs
on this integer form: the linear structure, ``divide_by_ihbar``,
``ihbar_degree``, composition, the commutator and the formal adjoint.  Its
view, ``terms``, maps each derivative multi-degree to its coefficient
:class:`~nsq.polynomials.Poly` of Scalars; only the printers and the
constructors that take a view (``DiffOperator(n, terms)``,
``multiplication``, ``derivative``) read or build it.  A composition whose
result could pass ``POWER_BOUND`` is refused with EngineError before any
work.

*Composition.*  A term c1 d^alpha o c2 d^beta expands by the Leibniz rule
into sum_gamma w * c1 (d^gamma c2) d^(alpha-gamma+beta), where the integer
weight w is prod_i comb(alpha_i, gamma_i) times the falling factorial of
the lowered q^i power.  On keys that is key_a + key_b - delta, with delta
holding gamma in both the derivative and the q fields.  The (delta, w)
list depends only on alpha and the q powers of c2, and comes from one
bounded memo, :func:`_leibniz`, keyed on (n, alpha bits, q bits) and
shared: read it, never mutate it.  :func:`op_compose` accumulates every
product into one integer map over den(a)*den(b) and reduces it by the gcd;
:func:`commutator` accumulates a o b and -(b o a) into the same map, so
cancelling terms are never built.  Both go through one Leibniz loop on
numerator maps, :func:`_compose_into`, which the Weyl word oracle of
:mod:`nsq.symplectic_ref` also composes with, and so does
:func:`formal_adjoint`: (c d^alpha)* = (-1)^|alpha| d^alpha o c*, one
Leibniz expansion per term, with the sign (-1)^(|alpha| + the IHBAR
power) since conjugation sends IHBAR to -IHBAR.  Nothing in the engine
calls :func:`op_compose` itself; it stays as public API.

Two quantization maps are provided on the polynomial algebra of the
Heisenberg basic set:

* Q1 kills every element of minimum rank >= 2 and sends
  qhat(i,1) -> q^i,  pihat(k) -> -i*hbar d/dq^k,  rhat(1) -> 1.
* Q2 kills minimum rank >= 3 and additionally sends the quadratic
  generators qhat*qhat -> A^i A^j, qhat*pihat -> A^i P_k,
  pihat*pihat -> P_j P_k, and anything containing rhat(1) to zero,
  with A^1..A^n free real symbols.

A map memoizes the image of each generator monomial on itself, not
process-wide, since tests build corrupted maps through ``overrides``; the
overrides are copied into a read-only mapping when the map is built, so
that the memo cannot go stale.  The bracket-to-commutator condition, with
this engine's bracket sign, is

    [Q(f), Q(g)] = IHBAR * Q({f, g})

and is checked exactly by :func:`dirac_check`, as an equality of integer
forms: Q({f, g}) with one added to every key's IHBAR field against the
commutator.  An operator for the residual is built only when they differ.
This module builds no reports: :mod:`nsq.suites` records the condition and
runs the axiom sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, perm
from types import MappingProxyType
from typing import Mapping

from .algebra import Observable, basic_tags, check_index, in_b1_algebra
from .errors import DimensionMismatch, EngineError, NotInGeneratorAlgebra
from .linalg import exact_rank
from .packed import _FIELD_MASK, PackedLinComb, _normal, check_dimension, field_unit, pack_term, unpack_term
from .poisson import bracket
from .polynomials import Poly, Var, pivar, qvar
from .scalars import IHBAR, ONE, Scalar, signed_sum, signed_term

DerivDegree = tuple  # length-n tuple of natural numbers


@lru_cache(maxsize=16)
def _layout(n: int) -> tuple[tuple, int, int]:
    """((d/dq^i unit, q^i unit) for i = 1..n, the derivative fields' mask, the q fields' mask)."""
    units = tuple((field_unit("d", i, n), field_unit("var", qvar(i), n)) for i in range(1, n + 1))
    return (
        units,
        sum(du * _FIELD_MASK for du, _ in units),
        sum(qu * _FIELD_MASK for _, qu in units),
    )


# -- operators ---------------------------------------------------------------------


class DiffOperator(PackedLinComb):
    """Differential operator in canonical form: coefficients left, derivatives right.

    The form is packed key -> nonzero int numerator over one denominator
    (see :mod:`nsq.packed`); ``terms`` is the view that maps a derivative
    multi-degree over q^1..q^n to its coefficient polynomial.  Equality is
    structural on the integer form.  Every public constructor, :meth:`zero`
    included, refuses an n that is not an exact int >= 1 with
    IndexRangeError.
    """

    __slots__ = ()
    _power = "an operator"

    def __init__(self, n: int, terms: Mapping[DerivDegree, Poly] | None = None):
        check_dimension(n)
        view: dict = {}
        for alpha, poly in (terms or {}).items():
            if len(alpha) != n:
                raise EngineError("derivative degree length must equal the dimension")
            if not all(type(d) is int and d >= 0 for d in alpha):
                raise EngineError(f"derivative degree {alpha!r} must hold natural numbers")
            if poly:
                view[alpha] = poly
        super().__init__(n, view)

    @staticmethod
    def _packed_view(n: int, view: dict) -> tuple[list, int]:
        units = _layout(n)[0]
        terms, top = [], 0
        for alpha, poly in view.items():
            key_alpha = 0
            for (du, _), d in zip(units, alpha):
                key_alpha += du * d
                top = max(top, d)
            for mono, s in poly.terms.items():
                for sym, c in s.terms.items():
                    key, pw = pack_term(mono, sym, n)
                    terms.append((key_alpha + key, c))
                    top = max(top, pw)
        return terms, top

    def _unpacked(self) -> dict:
        """The derivative degree -> coefficient Poly map of the integer form."""
        terms: dict = {}
        for key, num in self._nums.items():
            mono, sym, derivs = unpack_term(key, self.n)
            alpha = [0] * self.n
            for i, d in derivs:
                alpha[i - 1] = d
            terms.setdefault(tuple(alpha), {}).setdefault(mono, {})[sym] = Fraction(num, self._den)
        return {alpha: Poly({mono: Scalar(c) for mono, c in poly.items()}) for alpha, poly in terms.items()}

    @staticmethod
    def _add_into(acc: dict, nums: dict, factor: int, shift: int, n: int) -> None:
        for k, v in nums.items():
            k += shift
            acc[k] = acc.get(k, 0) + v * factor

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "DiffOperator":
        return DiffOperator._of(check_dimension(n), {0: 1}, 1, 0)

    @staticmethod
    def multiplication(n: int, poly: Poly) -> "DiffOperator":
        return DiffOperator(n, {(0,) * check_dimension(n): poly})

    @staticmethod
    def derivative(n: int, k: int, coeff=None) -> "DiffOperator":
        check_index(k, check_dimension(n))
        alpha = tuple(1 if i == k - 1 else 0 for i in range(n))
        c = Poly.constant(coeff if coeff is not None else 1)
        return DiffOperator(n, {alpha: c})

    # -- symbol bookkeeping ----------------------------------------------------

    def divide_by_ihbar(self) -> "DiffOperator":
        """Exact division by the IHBAR symbol; raises if not divisible."""
        unit = field_unit("sym", IHBAR, self.n)
        if not all(k & unit * _FIELD_MASK for k in self._nums):
            raise ValueError(f"operator {self} is not divisible by {IHBAR}")
        return DiffOperator._of(self.n, {k - unit: v for k, v in self._nums.items()}, self._den, self._top)

    def ihbar_degree(self) -> int:
        unit = field_unit("sym", IHBAR, self.n)
        return max(((k // unit) & _FIELD_MASK for k in self._nums), default=0)

    def __repr__(self):
        return format_operator(self)


def op_compose(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """Operator composition, normalized by the Leibniz rule.

    Derivatives act on the q-dependence of coefficients; the P variables
    are multiplication variables and commute through.  Computed on integer
    numerators (see the module docstring).
    """
    a._require_same(b)
    if not a._nums or not b._nums:
        return DiffOperator.zero(a.n)
    top = DiffOperator._checked(a._top + b._top)
    acc: dict = {}
    _compose_into(acc, a._nums, b._nums, a.n, 1)
    return DiffOperator._of(a.n, *_normal(acc, a._den * b._den), top)


def commutator(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """[a, b] = a o b - b o a, both compositions summed into one numerator map."""
    a._require_same(b)
    if not a._nums or not b._nums:
        return DiffOperator.zero(a.n)
    top = DiffOperator._checked(a._top + b._top)
    acc: dict = {}
    _compose_into(acc, a._nums, b._nums, a.n, 1)
    _compose_into(acc, b._nums, a._nums, a.n, -1)
    return DiffOperator._of(a.n, *_normal(acc, a._den * b._den), top)


@lru_cache(maxsize=4096)
def _leibniz(n: int, alpha: int, qpow: int) -> tuple:
    """d^alpha o a monomial, as a multiplication operator, by the Leibniz rule.

    alpha is a key's derivative fields and qpow the monomial's q fields
    (keys masked by ``_layout(n)``).  One (delta, weight) per gamma <= alpha
    whose derivative of the monomial is nonzero: delta holds gamma in both
    the derivative and the q fields, so the term lands on the key sum minus
    delta, with the integer weight prod_i comb(alpha_i, gamma_i) * q_i-power
    falling factorial of length gamma_i.  gamma = 0 comes first, as (0, 1).
    Memoized on (n, alpha, qpow) and shared: read it, never mutate it.
    """
    fields = [((alpha // du) & _FIELD_MASK, (qpow // qu) & _FIELD_MASK, du + qu) for du, qu in _layout(n)[0]]
    out = []
    for gamma in itertools.product(*(range(min(d, pw) + 1) for d, pw, _ in fields)):
        weight, delta = 1, 0
        for (d, pw, unit), g in zip(fields, gamma):
            weight *= comb(d, g) * perm(pw, g)
            delta += g * unit
        out.append((delta, weight))
    return tuple(out)


def _compose_into(acc: dict, a: dict, b: dict, n: int, sign: int) -> None:
    """acc += sign * (a o b), for a and b operator numerator maps at dimension n, by packed key."""
    _, alpha_mask, q_mask = _layout(n)
    for ka, na in a.items():
        alpha, na = ka & alpha_mask, sign * na
        for kb, nb in b.items():
            key, w = ka + kb, na * nb
            for delta, weight in _leibniz(n, alpha, kb & q_mask):
                acc[key - delta] = acc.get(key - delta, 0) + w * weight


def formal_adjoint(a: DiffOperator) -> DiffOperator:
    """Integration-by-parts adjoint with respect to the flat density.

    (c d^alpha)* = (-1)^|alpha| d^alpha o c*, where coefficient conjugation
    sends IHBAR to -IHBAR while q and P stay real.  Each term of the integer
    form is one Leibniz expansion of d^alpha o c, signed by (-1)^(|alpha| +
    its IHBAR power); the expansion only lowers fields, so a's bound holds.
    """
    units, alpha_mask, _ = _layout(a.n)
    ih = field_unit("sym", IHBAR, a.n)
    acc: dict = {}
    for key, v in a._nums.items():
        alpha = key & alpha_mask
        flips = sum((alpha // du) & _FIELD_MASK for du, _ in units) + ((key // ih) & _FIELD_MASK)
        _compose_into(acc, {alpha: (-1) ** flips}, {key - alpha: v}, a.n, 1)
    return DiffOperator._of(a.n, *_normal(acc, a._den), a._top)


# -- quantization maps ---------------------------------------------------------

IMAGE_MEMO_BOUND = 1024  # images memoized per map


@dataclass
class QuantizationMap:
    """Linear quantization defined through a generator-monomial table.

    ``kill_rank`` is the minimum rank from which everything maps to zero;
    the table covers the surviving generator monomials.  ``overrides``
    allows tests to inject deliberate corruptions; it is copied into a
    read-only mapping when the map is built.  ``n`` must be an exact int
    >= 1, or the map is refused with IndexRangeError.  :meth:`image_of_monomial`
    memoizes on the map, at most ``IMAGE_MEMO_BOUND`` images, dropping the
    oldest first.
    """

    label: str
    n: int
    kill_rank: int
    overrides: Mapping = field(default_factory=dict)
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_dimension(self.n)
        self.overrides = MappingProxyType(dict(self.overrides))

    def kills(self, mono: tuple) -> bool:
        """True when mono maps to zero by rank: at or above kill_rank, with no override.

        This is the rule's one statement; :func:`quantize` applies the same
        test inline on its hot loop.
        """
        return len(mono) >= self.kill_rank and mono not in self.overrides

    def image_of_monomial(self, mono: tuple) -> DiffOperator:
        """The image of one generator monomial, memoized on this map; shared: never mutate it."""
        memo = self._images
        image = memo.get(mono)
        if image is None:
            if len(memo) >= IMAGE_MEMO_BOUND:
                del memo[next(iter(memo))]
            image = memo[mono] = self.build_image(mono)
        return image

    def build_image(self, mono: tuple) -> DiffOperator:
        """The image of one generator monomial, from the table and the overrides."""
        n = self.n
        if mono in self.overrides:
            return self.overrides[mono]
        if self.kills(mono):
            return DiffOperator.zero(n)
        if len(mono) == 1:
            tag = mono[0]
            if tag[0] == "q":
                return DiffOperator.multiplication(n, Poly.var(qvar(tag[1])))
            if tag[0] == "pi":
                return DiffOperator.derivative(n, tag[1], -Scalar.symbol(IHBAR))
            return DiffOperator.identity(n)
        if len(mono) == 2:
            (s, t) = mono
            if s[0] == "r" or t[0] == "r":
                return DiffOperator.zero(n)
            if s[0] == "q" and t[0] == "q":
                c = Scalar.symbol(f"A{s[1]}") * Scalar.symbol(f"A{t[1]}")
                return DiffOperator.multiplication(n, Poly.constant(c))
            if s[0] == "pi" and t[0] == "pi":
                poly = Poly.var(pivar(1, s[1])) * Poly.var(pivar(1, t[1]))
                return DiffOperator.multiplication(n, poly)
            qt = s if s[0] == "q" else t
            pt = t if s[0] == "q" else s
            poly = Poly.var(pivar(1, pt[1])).scale(Scalar.symbol(f"A{qt[1]}"))
            return DiffOperator.multiplication(n, poly)
        raise EngineError(f"no image for monomial of degree {len(mono)}")


def make_q1(n: int) -> QuantizationMap:
    return QuantizationMap("q1", n, kill_rank=2)


def make_q2(n: int) -> QuantizationMap:
    return QuantizationMap("q2", n, kill_rank=3)


def quantize(qmap: QuantizationMap, f: Observable) -> DiffOperator:
    """Apply a quantization map to an element of the basic polynomial algebra.

    When the map kills every monomial of f, the result is the shared zero.
    A unit coefficient leaves an image unscaled: for one term that is the
    map's shared memoized image itself.
    """
    if f.n != qmap.n:
        raise DimensionMismatch(f"n differs: {qmap.n} vs {f.n}")
    if not in_b1_algebra(f):
        raise NotInGeneratorAlgebra(
            "quantization is defined on the polynomial algebra of the basic set"
        )
    out = None
    kill_rank, overrides = qmap.kill_rank, qmap.overrides
    for mono, coeff in f.terms.items():
        if len(mono) < kill_rank or mono in overrides:  # not qmap.kills(mono)
            image = qmap.image_of_monomial(mono)
            if coeff is not ONE:
                image = image.scale(coeff)
            out = image if out is None else out + image
    return DiffOperator.zero(qmap.n) if out is None else out


def dirac_check(
    qmap: QuantizationMap,
    f: Observable,
    g: Observable,
    gauge_seed: int | None = None,
) -> bool:
    """Bracket-to-commutator condition: [Q(f), Q(g)] = IHBAR * Q({f, g})."""
    return _dirac_residual(qmap, f, g, gauge_seed) is None


def _dirac_residual(qmap, f, g, gauge_seed) -> DiffOperator | None:
    """None when [Q(f), Q(g)] = IHBAR * Q({f, g}); else their difference.

    The sides are compared as integer forms: IHBAR * Q({f, g}) is Q({f, g})
    with one more in every key's IHBAR field, over the same denominator.
    When Q({f, g}) is zero the residual is the commutator itself.
    """
    lhs = commutator(quantize(qmap, f), quantize(qmap, g))
    image = quantize(qmap, bracket(f, g, gauge_seed=gauge_seed))
    if not image._nums:
        return lhs if lhs._nums else None
    top = DiffOperator._checked(image._top + 1)
    unit = field_unit("sym", IHBAR, qmap.n)
    rhs = {k + unit: v for k, v in image._nums.items()}
    if lhs._den == image._den and lhs._nums == rhs:
        return None
    return lhs - DiffOperator._of(qmap.n, rhs, image._den, top)


# -- axiom verification ---------------------------------------------------------


def operators_linearly_independent(ops: list[DiffOperator]) -> bool:
    """Exact linear independence over the rationals in the term basis.

    Each operator is one row of its integer numerators by packed key:
    scaling a row by its positive denominator leaves the rank unchanged.
    """
    rows = [op._nums for op in ops]
    axes = {key for row in rows for key in row}
    return exact_rank([[row.get(key, 0) for key in axes] for row in rows]) == len(ops)


def b1_monomials(n: int, degree_cap: int) -> list[tuple]:
    """All generator monomials of the basic algebra up to a total degree."""
    tags = sorted(basic_tags(n))
    out = []
    for deg in range(1, degree_cap + 1):
        out.extend(itertools.combinations_with_replacement(tags, deg))
    return out


# -- printing -------------------------------------------------------------------


def scalar_hbar_str(s: Scalar) -> str:
    """Render a Scalar with IHBAR expanded into i and hbar factors."""
    if s.is_zero():
        return "0"
    parts = []
    for mono in sorted(s.terms):
        c = s.terms[mono]
        factors = []
        for sym, pw in mono:
            if sym == IHBAR:
                if pw % 2:
                    c = c * (-1) ** ((pw - 1) // 2)
                    factors.append("i")
                else:
                    c = c * (-1) ** (pw // 2)
                factors.append("hbar" if pw == 1 else f"hbar^{pw}")
            else:
                factors.append(sym if pw == 1 else f"{sym}^{pw}")
        parts.append(signed_term(str(c), factors))
    return signed_sum(parts)


def _coeff_var_name(v: Var) -> str:
    if v[0] == "q":
        return f"q{v[1]}"
    if v[0] == "pi":
        return f"P{v[2]}"
    return str(v)


def format_operator(op: DiffOperator) -> str:
    """Human-readable canonical form, e.g. ``-i*hbar d/dq2``."""
    if op.is_zero():
        return "0"
    parts = []
    for alpha in sorted(op.terms):
        cs = op.terms[alpha].format(_coeff_var_name, scalar_hbar_str)
        dfactors = [
            f"d/dq{i + 1}" if deg == 1 else f"d/dq{i + 1}^{deg}"
            for i, deg in enumerate(alpha)
            if deg
        ]
        # without derivatives the coefficient's own terms are the operator's
        parts.append(signed_term(cs, dfactors, " ") if dfactors else cs)
    return signed_sum(parts)
