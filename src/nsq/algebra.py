"""Tensor-valued polynomial observables on the frame bundle of R^n.

The frame bundle carries global coordinates (q^i, pi^a_b) where the matrix
pi is invertible.  The observable universe of the engine is the algebra
generated, under the symmetric tensor product, by the rank-1 observables

    qhat(i, j) : component map  l -> q^i * delta(l, j)
    pihat(k)   : component map  l -> pi^l_k
    rhat(k)    : component map  l -> delta(l, k)

A general observable is graded: rank p >= 1 maps a nondecreasing
multi-index of length p to a polynomial component.  Components are stored
on canonical (sorted) multi-indices, so the required symmetry under index
permutations holds by representation.

An Observable is a :class:`~nsq.polynomials.LinComb` over generator
monomials: its ``terms`` map each sorted tuple of generator tags to a
nonzero Scalar, and ``+``, ``-`` and ``scale`` are the shared linear
structure.  The terms record how the observable was assembled from the
generators.  The component data alone does not determine that
decomposition -- e.g. qhat(i,j) sym rhat(k) and qhat(i,k) sym rhat(j)
expand to identical components -- but all derived quantities (brackets,
structure-equation checks) are independent of the choice, so any faithful
decomposition serves.  Equality and ``is_zero`` therefore stay on the
expanded components, not on the terms.

A slice observable (see :mod:`nsq.subbundle`) is ``Observable(n, terms,
slot=s)``.  It uses the same generator tags, restricted to the slot's
basic set qhat(i,s), pihat(k), rhat(s) (:func:`in_b1_algebra`), prints
them as Qh(i), Pih(k), rh, and expands pihat(k) with the frozen coframe
rows pi^A_j = delta^A_j substituted.  On the full bundle ``slot`` is None.

The symmetric product, route 1 of the bracket and the field bracket each
average a pairwise product over the position splits of a sorted K.  They
share one split-pair loop, :func:`split_pair_sum`: every pair (I, J) of the
two supports is formed once and lands on K = sorted(I + J), weighted by
the share of K's splits that put I on the subset (:func:`split_count`).

Generator-monomial expansions are memoized process-wide by
:func:`_monomial_components`, keyed on (mono, n, slot) and bounded at 1024
entries.  An observable that is one monomial with coefficient 1 takes the
memoized map itself as its only grade, uncopied; any other observable
builds its own scaled sum.  The cached component maps and their
polynomials are shared by every caller: read them, never mutate them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Mapping

from .errors import DimensionMismatch, EngineError, IndexRangeError, NotInGeneratorAlgebra
from .linalg import exact_det
from .polynomials import LinComb, Poly, accumulate, pivar, qvar
from .scalars import ONE, Scalar, _coerce, signed_sum, signed_term

MultiIndex = tuple
GenTag = tuple
GenMonomial = tuple


def check_dimension(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise IndexRangeError(f"dimension must be a positive integer, got {n!r}")
    return n


def check_index(i: int, n: int) -> int:
    if not isinstance(i, int) or not 1 <= i <= n:
        raise IndexRangeError(f"index {i!r} out of range 1..{n}")
    return i


def canonicalize(raw: Iterable[int], n: int) -> MultiIndex:
    """Sort a multi-index into canonical nondecreasing order."""
    idx = tuple(raw)
    for i in idx:
        check_index(i, n)
    return tuple(sorted(idx))


def all_multi_indices(n: int, rank: int) -> Iterable[MultiIndex]:
    """All canonical multi-indices of a given rank over 1..n."""
    return itertools.combinations_with_replacement(range(1, n + 1), rank)


class FramePoint:
    """A point of the frame bundle: base coordinates plus an invertible coframe matrix."""

    __slots__ = ("n", "q", "pi")

    def __init__(self, q: Iterable, pi: Iterable[Iterable]):
        self.q = tuple(Fraction(x) for x in q)
        self.n = len(self.q)
        self.pi = tuple(tuple(Fraction(x) for x in row) for row in pi)
        if len(self.pi) != self.n or any(len(r) != self.n for r in self.pi):
            raise DimensionMismatch("pi must be an n x n matrix")
        if exact_det([list(r) for r in self.pi]) == 0:
            raise ValueError("pi must be invertible: points are frames")

    def coordinate_values(self) -> dict:
        vals = {qvar(i + 1): self.q[i] for i in range(self.n)}
        for a in range(self.n):
            for b in range(self.n):
                vals[pivar(a + 1, b + 1)] = self.pi[a][b]
        return vals

    @staticmethod
    def identity(n: int, q: Iterable | None = None) -> "FramePoint":
        q = tuple(q) if q is not None else (0,) * n
        return FramePoint(q, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, FramePoint)
            and self.q == other.q
            and self.pi == other.pi
        )

    def __repr__(self):
        return f"FramePoint(q={self.q}, pi={self.pi})"


# -- generator tags ----------------------------------------------------------

def qtag(i: int, j: int) -> GenTag:
    return ("q", i, j)


def pitag(k: int) -> GenTag:
    return ("pi", k)


def rtag(k: int) -> GenTag:
    return ("r", k)


def full_tags(n: int) -> list[GenTag]:
    """The full generator set: qh(i,j) for every slot j, then pih(k), then rh(k)."""
    return (
        [qtag(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        + [pitag(k) for k in range(1, n + 1)]
        + [rtag(k) for k in range(1, n + 1)]
    )


def basic_tags(n: int, slot: int = 1) -> list[GenTag]:
    """The basic set of one slot: qh(i,slot), then pih(k), then rh(slot)."""
    return [qtag(i, slot) for i in range(1, n + 1)] + [pitag(k) for k in range(1, n + 1)] + [rtag(slot)]


def in_b1_algebra(f: Observable, slot: int = 1) -> bool:
    """Membership in the polynomial algebra over the slot's basic set.

    Every pihat(k) is in it; qhat(i,j) and rhat(j) are when j is the slot.
    """
    for tag in f.generator_tags():
        if tag[0] != "pi" and tag[-1] != slot:
            return False
    return True


def tag_str(tag: GenTag, slot: int | None = None) -> str:
    """A generator's name; on a slice (``slot`` set) its name there: Qh(i), Pih(k), rh."""
    if tag[0] == "q":
        return f"qh({tag[1]},{tag[2]})" if slot is None else f"Qh({tag[1]})"
    if tag[0] == "pi":
        return f"pih({tag[1]})" if slot is None else f"Pih({tag[1]})"
    return f"rh({tag[1]})" if slot is None else "rh"


def monomial_str(mono: GenMonomial, slot: int | None = None) -> str:
    return "*".join(tag_str(t, slot) for t in mono) if mono else "1"


# generator kind -> number of indices: qh(i,j), pih(k), rh(k)
_TAG_ARITY = {"q": 2, "pi": 1, "r": 1}


def _check_tag(tag: GenTag, n: int) -> None:
    if not (isinstance(tag, tuple) and tag and _TAG_ARITY.get(tag[0]) == len(tag) - 1):
        raise EngineError(f"not a generator tag: {tag!r}")
    for i in tag[1:]:
        check_index(i, n)


def _generator_components(tag: GenTag, n: int, slot: int | None) -> dict[MultiIndex, Poly]:
    kind = tag[0]
    if kind == "q":
        i, j = tag[1], tag[2]
        return {(j,): Poly.var(qvar(i))}
    if kind == "pi":
        k = tag[1]
        if slot is None:
            return {(l,): Poly.var(pivar(l, k)) for l in range(1, n + 1)}
        # on the slice pi^l_k = delta^l_k for every row l != slot
        comps = {(slot,): Poly.var(pivar(slot, k))}
        if k != slot:
            comps[(k,)] = Poly.constant(1)
        return comps
    k = tag[1]
    return {(k,): Poly.constant(1)}


def split_count(K: MultiIndex, I: MultiIndex) -> int:
    """How many position splits of the sorted multi-index K put I on the subset.

    I must be a sub-multiset of K.  Each value v of I picks I.count(v) of
    the K.count(v) positions that carry v, so an average over the
    comb(len(K), len(I)) splits of K weighs the pair (I, K - I) by
    split_count(K, I) / comb(len(K), len(I)).
    """
    out = 1
    for v in set(I):
        out *= comb(K.count(v), I.count(v))
    return out


def split_pair_sum(
    f: Mapping[MultiIndex, object],
    g: Mapping[MultiIndex, object],
    product: Callable,
    factor: int = 1,
) -> dict:
    """The one split-pair loop: average product(a, b) over index splits.

    For every pair (I, a) of f and (J, b) of g, product(a, b) lands on
    K = sorted(I + J) with weight factor * split_count(K, I) / comb(|K|, |I|),
    the share of K's position splits that feed I to f.  Only the support
    pairs are visited, and each product is formed once.
    """
    out: dict = {}
    for I, a in f.items():
        for J, b in g.items():
            K = tuple(sorted(I + J))
            weight = Fraction(factor * split_count(K, I), comb(len(K), len(I)))
            accumulate(out, K, product(a, b).scale(weight))
    return out


def sym_components(
    f: Mapping[MultiIndex, Poly], p: int, g: Mapping[MultiIndex, Poly], q: int
) -> dict[MultiIndex, Poly]:
    """Components of the normalized symmetric product of two homogeneous maps.

    The component at a sorted multi-index K of rank p+q is the average over
    all splits of K's positions into a p-subset fed to f and the complement
    fed to g (:func:`split_pair_sum` of the products).
    """
    return split_pair_sum(f, g, Poly.__mul__)


@lru_cache(maxsize=1024)
def _monomial_components(
    mono: GenMonomial, n: int, slot: int | None
) -> dict[MultiIndex, Poly]:
    """Expand one generator monomial into its symmetric-tensor components.

    Memoized process-wide on (mono, n, slot), with a fixed bound so that
    memory stays flat on long runs.  The returned map is shared between
    callers: read it, never mutate it.
    """
    if len(mono) == 1:
        return _generator_components(mono[0], n, slot)
    head = _monomial_components(mono[:-1], n, slot)
    tail = _generator_components(mono[-1], n, slot)
    return sym_components(head, len(mono) - 1, tail, 1)


class Observable(LinComb):
    """Graded symmetric-tensor-valued polynomial observable.

    Assemble these from :func:`make_qhat`, :func:`make_pihat`,
    :func:`make_rhat` with ``+``, ``-``, :meth:`scale` and
    :func:`sym_mul`.  ``terms`` maps sorted generator monomials to nonzero
    Scalars; the constructor sorts each monomial, so monomials that differ
    only in factor order sum.  Equality is structural equality of the
    expanded component maps, within one algebra: ``slot`` is None on the
    full bundle and the slice index for a slice observable, whose
    generators must lie in the slot's basic set.
    """

    _space = ("n", "slot")
    slot: int | None = None
    _components: dict[int, dict[MultiIndex, Poly]] | None = None

    def __init__(
        self, n: int, terms: Mapping[GenMonomial, Scalar], slot: int | None = None
    ):
        self.n = check_dimension(n)
        self.terms: dict[GenMonomial, Scalar] = {}
        for mono, c in terms.items():
            if not mono:
                raise EngineError("a generator monomial has at least one factor")
            for tag in mono:
                _check_tag(tag, n)
            accumulate(self.terms, tuple(sorted(mono)), _coerce(c))
        if slot is not None:
            self.slot = check_index(slot, n)
            if not in_b1_algebra(self, slot):
                raise NotInGeneratorAlgebra(
                    f"observable uses generators outside the slot-{slot} basic algebra"
                )

    @property
    def genpoly(self) -> dict[GenMonomial, Scalar]:
        """Read-only alias of ``terms``.

        Only the benchmark tracer (``bench/nsqtrace.py``) reads it; the
        benchmark refresh (ROADMAP item 1) switches the tracer to ``terms``
        and deletes this alias.
        """
        return self.terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Observable":
        return Observable(n, {})

    @staticmethod
    def from_tag(n: int, tag: GenTag) -> "Observable":
        return Observable(n, {(tag,): Scalar.one()})

    # -- structure ----------------------------------------------------------

    @property
    def components(self) -> dict[int, dict[MultiIndex, Poly]]:
        """Graded component maps: rank -> canonical multi-index -> polynomial."""
        if self._components is None:
            if len(self.terms) == 1 and ONE in self.terms.values():
                # a unit monomial reads the shared memoized map, uncopied
                (mono,) = self.terms
                self._components = {len(mono): _monomial_components(mono, self.n, self.slot)}
                return self._components
            by_rank: dict[int, dict[MultiIndex, Poly]] = {}
            for mono, coeff in self.terms.items():
                rank = len(mono)
                comps = _monomial_components(mono, self.n, self.slot)
                grade = by_rank.setdefault(rank, {})
                for K, poly in comps.items():
                    accumulate(grade, K, poly.scale(coeff))
            self._components = {r: g for r, g in by_rank.items() if g}
        return self._components

    def ranks(self) -> list[int]:
        return sorted(self.components)

    def is_zero(self) -> bool:
        return not self.components

    def rank(self) -> int:
        """The rank of a homogeneous observable."""
        ranks = self.ranks()
        if len(ranks) != 1:
            raise ValueError(f"observable is not homogeneous: ranks {ranks}")
        return ranks[0]

    def component(self, idx: Iterable[int]) -> Poly:
        key = canonicalize(idx, self.n)
        grade = self.components.get(len(key), {})
        return grade.get(key, Poly.zero())

    def grade_part(self, rank: int) -> "Observable":
        """The homogeneous part of one rank, as an observable."""
        part = {m: c for m, c in self.terms.items() if len(m) == rank}
        return self._like(part)

    def min_rank(self) -> int | None:
        """Smallest nonempty grade; None marks the zero observable."""
        ranks = self.ranks()
        return ranks[0] if ranks else None

    # -- algebra -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Observable):
            return NotImplemented
        return (
            self.n == other.n
            and self.slot == other.slot
            and self.components == other.components
        )

    __hash__ = None

    def generator_tags(self) -> set:
        out = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        return signed_sum([
            signed_term(str(self.terms[mono]), [monomial_str(mono, self.slot)], " ")
            for mono in sorted(self.terms)
        ])


def make_qhat(n: int, i: int, j: int) -> Observable:
    """The rank-1 observable q^i placed in the j-th tensor slot."""
    return Observable.from_tag(n, qtag(i, j))


def make_pihat(n: int, k: int) -> Observable:
    """The rank-1 momentum observable with components pi^l_k."""
    return Observable.from_tag(n, pitag(k))


def make_rhat(n: int, k: int) -> Observable:
    """The constant rank-1 basis observable."""
    return Observable.from_tag(n, rtag(k))


def sym_mul(f: Observable, g: Observable) -> Observable:
    """Symmetric tensor product, normalized so repeated factors square cleanly.

    Bilinear; homogeneous ranks p and q multiply to rank p+q.  Commutative
    and associative.
    """
    f._require_same(g)
    out: dict[GenMonomial, Scalar] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            accumulate(out, tuple(sorted(m1 + m2)), c1 * c2)
    return f._like(out)


def sym_pow(f: Observable, k: int) -> Observable:
    if k < 1:
        raise ValueError("symmetric power must be >= 1")
    out = f
    for _ in range(k - 1):
        out = sym_mul(out, f)
    return out


def evaluate(f: Observable, u: FramePoint) -> dict[MultiIndex, Scalar]:
    """Evaluate all components at a frame point.

    Returns one entry per canonical multi-index of every nonempty rank,
    including exact zeros, so the caller sees each grade in full.
    """
    if u.n != f.n:
        raise DimensionMismatch(f"point dimension {u.n} != observable dimension {f.n}")
    vals = u.coordinate_values()
    out: dict[MultiIndex, Scalar] = {}
    for rank, grade in f.components.items():
        for K in all_multi_indices(f.n, rank):
            poly = grade.get(K)
            out[K] = poly.evaluate(vals) if poly is not None else Scalar.zero()
    return out
