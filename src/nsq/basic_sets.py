"""Heisenberg-like algebra of the frame bundle and its basic sets.

The generators qhat(i,j), pihat(k), rhat(k) close under the Poisson
bracket with the single family of relations {qhat(i,j), pihat(k)} =
delta(i,k) rhat(j), mirroring the Heisenberg algebra of the cotangent
bundle.  This module builds the corresponding abstract Lie algebra (pairs
of a constant vector field and a central vector), its adjoint action, the
momentum-map components, and machine checks for the basic-set axioms:
finite generation, completeness of flows, transitivity and separation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .algebra import (
    FramePoint,
    Observable,
    basic_tags,
    full_tags,
    make_pihat,
    make_qhat,
    make_rhat,
    tag_str,
)
from .errors import DimensionMismatch, EngineError
from .forms import VectorField, ham_vf, soldering_dtheta, structure_eq_check
from .linalg import exact_rank
from .poisson import bracket
from .polynomials import pivar, qvar
from .reports import VerificationReport
from .subbundle import slice_check


@dataclass
class HLElement:
    """Element of the Heisenberg-like Lie algebra.

    Coefficients over the basis {qhat(i,j)} and {pihat(k)} describe the
    constant vector-field part; ``center`` holds the coefficients of the
    central rhat(k) directions.
    """

    n: int
    qcoef: dict = field(default_factory=dict)   # (i, j) -> Fraction
    pcoef: dict = field(default_factory=dict)   # k -> Fraction
    center: dict = field(default_factory=dict)  # k -> Fraction

    def field_part(self) -> VectorField:
        vf = VectorField.zero()
        for (i, j), c in self.qcoef.items():
            if c:
                vf = vf + ham_vf(make_qhat(self.n, i, j)).field(()).scale(Fraction(c))
        for k, c in self.pcoef.items():
            if c:
                vf = vf + ham_vf(make_pihat(self.n, k)).field(()).scale(Fraction(c))
        return vf

    def is_zero(self) -> bool:
        return (
            all(c == 0 for c in self.qcoef.values())
            and all(c == 0 for c in self.pcoef.values())
            and all(c == 0 for c in self.center.values())
        )


def hl_bracket(x: HLElement, y: HLElement) -> HLElement:
    """Lie bracket: field parts drop to the center through dtheta.

    The center coefficient of rhat(i) is dtheta^i(u1, u2) evaluated at the
    reference point; with this engine's orientation of dtheta the pair
    (X_qhat(1,1), X_pihat(1)) brackets to minus rhat(1).  Only internal
    consistency of the convention is asserted, never a global sign.
    """
    if x.n != y.n:
        raise DimensionMismatch("algebra elements over different dimensions")
    n = x.n
    u1, u2 = x.field_part(), y.field_part()
    dtheta = soldering_dtheta(n)
    center: dict[int, Fraction] = {}
    for i in range(1, n + 1):
        val = dtheta[i].evaluate_on(u1, u2)
        if not val.is_constant():
            raise EngineError("field parts must be constant-coefficient")
        c = val.constant_term().as_fraction()
        if c:
            center[i] = c
    return HLElement(n, {}, {}, center)


def adjoint_generator(xi: HLElement, m: HLElement) -> dict[int, Fraction]:
    """Adjoint action on the momentum directions, as a center vector.

    Coefficient of rhat(b):  sum_a xi_q[(a,b)] m_p[a] - sum_l m_q[(l,b)] xi_p[l].
    """
    if xi.n != m.n:
        raise DimensionMismatch("algebra elements over different dimensions")
    out: dict[int, Fraction] = {}
    for b in range(1, xi.n + 1):
        acc = Fraction(0)
        for (a, bb), c in xi.qcoef.items():
            if bb == b:
                acc += Fraction(c) * Fraction(m.pcoef.get(a, 0))
        for (l, bb), c in m.qcoef.items():
            if bb == b:
                acc -= Fraction(c) * Fraction(xi.pcoef.get(l, 0))
        if acc:
            out[b] = acc
    return out


def momentum_components(n: int) -> dict[str, list[Observable]]:
    """The momentum-map components: exactly the basic generators."""
    return {
        "J_q": [make_qhat(n, a, b) for a in range(1, n + 1) for b in range(1, n + 1)],
        "J_pi": [make_pihat(n, k) for k in range(1, n + 1)],
        "J_r": [make_rhat(n, j) for j in range(1, n + 1)],
    }


def momentum_map_condition_check(n: int) -> bool:
    """dJ(xi) + xi_infinitesimal _| dtheta = 0 for each basis generator.

    The infinitesimal generators are the Hamiltonian fields of the
    components, so the condition is the rank-1 structure equation.
    """
    return all(
        structure_eq_check(obs, ham_vf(obs))
        for group in momentum_components(n).values()
        for obs in group
    )


@dataclass
class BasicSet:
    """A finite generating set of observables with a label."""

    label: str
    n: int
    generators: list[Observable]
    names: list[str]


def make_bL(n: int) -> BasicSet:
    """Full basic set: all qhat(i,j), all pihat(k), all rhat(j)."""
    tags = full_tags(n)
    return BasicSet("b_L", n, [Observable.from_tag(n, t) for t in tags], [tag_str(t) for t in tags])


def make_b1(n: int, slot: int = 1) -> BasicSet:
    """Heisenberg basic set of one subbundle slot: qhat(i,slot), pihat(k), rhat(slot)."""
    tags = basic_tags(n, slot)
    return BasicSet(
        f"b_{slot}", n, [Observable.from_tag(n, t) for t in tags], [tag_str(t) for t in tags]
    )


def bracket_table(s: BasicSet) -> dict[tuple, Observable]:
    """All pairwise brackets of the generating set."""
    out = {}
    for a, (fa, na) in enumerate(zip(s.generators, s.names)):
        for fb, nb in list(zip(s.generators, s.names))[a + 1 :]:
            out[(na, nb)] = bracket(fa, fb)
    return out


def _field_row(vf: VectorField, point: FramePoint, slot: int | None) -> list[Fraction]:
    """Coordinates of a field value in the tangent basis: d/dq^a, then d/dpi^a_b.

    Row a runs over 1..n on the full bundle and is ``slot`` alone on a
    slice, whose tangent basis is (d/dQ^1 .. d/dQ^n, d/dP_1 .. d/dP_n).
    """
    vals = point.coordinate_values()
    n = point.n
    rows = range(1, n + 1) if slot is None else (slot,)
    directions = [qvar(a) for a in range(1, n + 1)]
    directions += [pivar(a, b) for a in rows for b in range(1, n + 1)]
    return [vf.coefficient(d).evaluate(vals).as_fraction() for d in directions]


def verify_transitive(
    s: BasicSet,
    points: Iterable[FramePoint],
    on_B1: bool = False,
    slot: int = 1,
) -> VerificationReport:
    """Exact-rank transitivity check at finitely many rational points.

    On the full bundle the Hamiltonian fields must span all n + n^2
    tangent directions; restricted to a subbundle slice they must span its
    2n directions (computed in the slice coordinates, from the fields of
    the generators reduced to the slice, so each must lie in the slot's
    basic set).
    """
    report = VerificationReport(suite="transitive", n=s.n, seed=0)
    n = s.n
    target = 2 * n if on_B1 else n + n * n
    space = slot if on_B1 else None
    for pt in points:
        if on_B1 and not slice_check(pt, slot):
            raise EngineError("point does not lie on the subbundle slice")
        rows = [
            _field_row(ham_vf(Observable(g.n, g.terms, slot=space)).field(()), pt, space)
            for g in s.generators
        ]
        rank = exact_rank(rows)
        report.record(
            f"span at q={pt.q}",
            rank == target,
            expected=f"rank {target}",
            actual=f"rank {rank}",
        )
    return report


def verify_separating(
    s: BasicSet, pairs: Iterable[tuple[FramePoint, FramePoint]]
) -> VerificationReport:
    """Some generator must take different values on each pair of points."""
    from .algebra import evaluate

    report = VerificationReport(suite="separating", n=s.n, seed=0)
    for idx, (u1, u2) in enumerate(pairs):
        if u1 == u2:
            raise EngineError("separation requires distinct points")
        separated = any(evaluate(g, u1) != evaluate(g, u2) for g in s.generators)
        report.record(f"pair {idx}", separated, actual="no separating generator")
    return report


def verify_complete(s: BasicSet) -> VerificationReport:
    """Sufficient completeness criterion: constant-coefficient fields.

    Generators whose fields have non-constant coefficients are reported as
    undetermined rather than failed; flow integration is out of scope.
    """
    report = VerificationReport(suite="complete", n=s.n, seed=0)
    for g, name in zip(s.generators, s.names):
        x = ham_vf(g)
        constant = all(
            poly.is_constant() for vf in x.terms.values() for poly in vf.terms.values()
        )
        report.record(
            name,
            constant,
            expected="constant-coefficient field",
            actual="undetermined: non-constant coefficients",
        )
    return report
