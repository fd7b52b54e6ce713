"""The 2n-dimensional subbundle slices and the reduced observable algebra.

Freezing all coframe rows but one to the identity pattern,

    pi^A_j = delta^A_j   for A != slot,

cuts out a 2n-dimensional subbundle with coordinates Q^i = q^i and
P_j = pi^slot_j.  Its structure group is the semidirect product of the
nonzero reals with R^(n-1), embedded in GL(n) as the matrices that differ
from the identity only in the chosen row.  The pulled-back two-form is
dP_j ^ dQ^j concentrated in the one surviving vector slot, and the whole
polynomial algebra over {qhat(i,slot), pihat(k), rhat(slot)} descends to a
reduced algebra on the slice; the reduction is verified to be a bracket
homomorphism.

A slice observable is ``Observable(n, terms, slot=s)``: its generators
must lie in the slot's basic set, and it prints them as Qh(i), Pih(k),
rh.  Hamiltonian fields, both routes of the bracket and equality are the
upstairs ones, applied with the frozen rows substituted, and the
structure equation reads the slice two-form from ``slot``.

The default slot is 1, matching the parametrization by frames

    e_1 = alpha d/du^1,   e_A = d/du^A + mu_A d/du^1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import FramePoint, MultiIndex, Observable, check_index, in_b1_algebra
from .errors import DimensionMismatch, EngineError, NotInGeneratorAlgebra
from .forms import HamVF, TwoForm, ham_vf, soldering_dtheta
from .linalg import exact_det, exact_inverse, exact_rank
from .poisson import bracket
from .polynomials import Poly, pivar, qvar

# -- slice geometry -----------------------------------------------------------


def slice_check(u: FramePoint, slot: int = 1) -> bool:
    """True iff every coframe row other than ``slot`` is an identity row."""
    check_index(slot, u.n)
    for a in range(1, u.n + 1):
        if a == slot:
            continue
        for j in range(1, u.n + 1):
            if u.pi[a - 1][j - 1] != (1 if a == j else 0):
                return False
    return True


@dataclass
class SubbundlePoint:
    """Slice parametrization: base point, frame scale, and shears."""

    q: tuple
    alpha: Fraction
    mu: tuple

    def __post_init__(self):
        self.q = tuple(Fraction(x) for x in self.q)
        self.alpha = Fraction(self.alpha)
        self.mu = tuple(Fraction(x) for x in self.mu)
        if self.alpha == 0:
            raise ValueError("frame scale alpha must be nonzero")
        if len(self.mu) != len(self.q) - 1:
            raise DimensionMismatch("mu must have n-1 entries")


def frame_from_params(p: SubbundlePoint, slot: int = 1) -> FramePoint:
    """Frame point of the slice from its parameters.

    The frame matrix has e_slot = alpha d/du^slot and the other legs
    sheared into the slot direction; pi is its inverse, so det(pi) = 1/alpha.
    """
    n = len(p.q)
    check_index(slot, n)
    frame = [[Fraction(0)] * n for _ in range(n)]
    others = [b for b in range(1, n + 1) if b != slot]
    frame[slot - 1][slot - 1] = p.alpha
    for mu_val, b in zip(p.mu, others):
        frame[b - 1][b - 1] = Fraction(1)
        frame[slot - 1][b - 1] = mu_val
    pi = exact_inverse(frame)
    return FramePoint(p.q, pi)


# -- structure group ----------------------------------------------------------


@dataclass
class G1Element:
    """Element (a, b) of the semidirect product R* x R^(n-1)."""

    a: Fraction
    b: tuple

    def __post_init__(self):
        self.a = Fraction(self.a)
        self.b = tuple(Fraction(x) for x in self.b)
        if self.a == 0:
            raise ValueError("group element must have a != 0")


def g1_mul(g1: G1Element, g2: G1Element) -> G1Element:
    return G1Element(g1.a * g2.a, tuple(g1.a * y + x for x, y in zip(g1.b, g2.b)))


def g1_identity(n: int) -> G1Element:
    return G1Element(Fraction(1), (Fraction(0),) * (n - 1))


def g1_inv(g: G1Element) -> G1Element:
    return G1Element(1 / g.a, tuple(-x / g.a for x in g.b))


def g1_embed(g: G1Element, n: int, slot: int = 1) -> list[list[Fraction]]:
    """GL(n) matrix differing from the identity only in the chosen row."""
    if len(g.b) != n - 1:
        raise DimensionMismatch("group element size does not match dimension")
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m[slot - 1][slot - 1] = g.a
    others = [c for c in range(1, n + 1) if c != slot]
    for val, c in zip(g.b, others):
        m[slot - 1][c - 1] = val
    return m


def right_action(u: FramePoint, g: list[list[Fraction]]) -> FramePoint:
    """Right translation of a frame: pi(u.g) = g^{-1} pi(u), base unchanged."""
    if exact_det([list(r) for r in g]) == 0:
        raise ValueError("right translation requires an invertible matrix")
    ginv = exact_inverse([list(r) for r in g])
    n = u.n
    pi = [
        [sum(ginv[i][k] * u.pi[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return FramePoint(u.q, pi)


# -- pullback of the two-form -------------------------------------------------


def slice_substitution(n: int, slot: int = 1) -> dict:
    """Variable map realizing the slice: frozen coframe rows become constants."""
    sub = {}
    for a in range(1, n + 1):
        if a == slot:
            continue
        for j in range(1, n + 1):
            sub[pivar(a, j)] = Poly.constant(1 if a == j else 0)
    return sub


def pullback_two_form(n: int, slot: int = 1) -> dict[int, TwoForm]:
    """Pull the soldering two-form back to the slice by substitution.

    Differentials of frozen variables vanish, so only the slot component
    survives: sum_j dP_j ^ dQ^j with P_j = pi^slot_j.
    """
    check_index(slot, n)
    sub = slice_substitution(n, slot)
    frozen = set(sub)
    out: dict[int, TwoForm] = {}
    for i, omega in soldering_dtheta(n).items():
        out[i] = TwoForm({
            (v1, v2): coeff.substitute(sub)
            for (v1, v2), coeff in omega.terms.items()
            if v1 not in frozen and v2 not in frozen
        })
    return out


def two_form_rank(omega: TwoForm, n: int, slot: int = 1) -> int:
    """Exact rank of a constant-coefficient two-form on the slice tangent space."""
    basis = [qvar(j) for j in range(1, n + 1)] + [pivar(slot, j) for j in range(1, n + 1)]
    dim = len(basis)
    matrix = [[Fraction(0)] * dim for _ in range(dim)]
    for (v1, v2), coeff in omega.terms.items():
        if not coeff.is_constant():
            raise EngineError("rank check expects constant coefficients")
        c = coeff.constant_term().as_fraction()
        i, j = basis.index(v1), basis.index(v2)
        matrix[i][j] += c
        matrix[j][i] -= c
    return exact_rank(matrix)


# -- tangency and gauge fixing ------------------------------------------------


def tangency_check(x: HamVF, slot: int = 1) -> bool:
    """True iff no vertical component leaves the slice.

    Every coefficient on d/dpi^A_b with A != slot must vanish identically
    once the slice relations are substituted.
    """
    sub = slice_substitution(x.n, slot)
    for vf in x.terms.values():
        for var, coeff in vf.terms.items():
            if var[0] != "pi" or var[1] == slot:
                continue
            if not coeff.substitute(sub).is_zero():
                return False
    return True


def gauge_fix_for_B1(f: Observable, slot: int = 1) -> HamVF:
    """Representative of the Hamiltonian class of f tangent to the slice.

    Requires f in the polynomial algebra of the slot's basic set.  The
    canonical factor-rule representative already has all vertical legs on
    d/dpi^slot_i, because each generator qhat(i,slot) carries the slot as
    its lower index; the gauge correction is therefore zero, and tangency
    is asserted rather than repaired.
    """
    if not in_b1_algebra(f, slot):
        raise NotInGeneratorAlgebra(
            f"observable uses generators outside the slot-{slot} basic algebra"
        )
    x = ham_vf(f)
    if not tangency_check(x, slot):
        raise EngineError("canonical representative unexpectedly not tangent")
    return x


# -- reduced observables ------------------------------------------------------


def reduce_observable(f: Observable, slot: int = 1) -> Observable:
    """Restrict an observable of the basic algebra to the slice.

    Generator-wise: qhat(i,slot) -> Qhat(i), pihat(k) -> Pihat(k),
    rhat(slot) -> rhat.  The resulting components agree with substituting
    the slice relations into the original components.  Generators outside
    the slot's basic set raise NotInGeneratorAlgebra.  The benchmark tracer
    (``bench/nsqtrace.py``) binds this name.
    """
    return Observable(f.n, f.terms, slot=slot)


def substituted_components(f: Observable, slot: int = 1) -> dict:
    """Slice restriction done the long way: substitute into every component."""
    sub = slice_substitution(f.n, slot)
    out: dict[int, dict[MultiIndex, Poly]] = {}
    for rank, grade in f.components.items():
        new = {}
        for K, poly in grade.items():
            p = poly.substitute(sub)
            if not p.is_zero():
                new[K] = p
        if new:
            out[rank] = new
    return out


# -- the slice bracket ---------------------------------------------------------


def reduced_bracket(f: Observable, g: Observable) -> Observable:
    """Intrinsic Poisson bracket on the slice.

    The upstairs bracket on the slice algebra: the defining formula with the
    intrinsic fields, cross-checked against the generator-level expansion
    with {Qhat(i), Pihat(k)} = delta(i,k) rhat.  It is :func:`bracket`
    itself, kept under this name because the benchmark tracer
    (``bench/nsqtrace.py``) times the slice bracket through it.
    """
    return bracket(f, g)


def reduction_homomorphism_check(
    f: Observable, g: Observable, slot: int = 1, gauge_seed: int | None = None
) -> bool:
    """reduce({f, g}) = {reduce f, reduce g} on the slice.

    ``gauge_seed`` is passed to the upstairs bracket (see
    :func:`nsq.poisson.bracket`).
    """
    lhs = reduce_observable(bracket(f, g, gauge_seed=gauge_seed), slot)
    rhs = reduced_bracket(reduce_observable(f, slot), reduce_observable(g, slot))
    return lhs == rhs

