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

An Observable is a :class:`~nsq.scalars.LinComb` over generator
monomials: its ``terms`` map each sorted tuple of generator tags to a
nonzero Scalar, and ``+``, ``-`` and ``scale`` are the shared linear
structure.  The terms record how the observable was assembled from the
generators.  The component data alone does not determine that
decomposition -- e.g. qhat(i,j) sym rhat(k) and qhat(i,k) sym rhat(j)
expand to identical components -- but all derived quantities (brackets,
structure-equation checks) are independent of the choice, so any faithful
decomposition serves.  Equality and the zero test are on the components.

A slice observable (see :mod:`nsq.subbundle`) is ``Observable(n, terms,
slot=s)``.  It uses the same generator tags, restricted to the slot's
basic set qhat(i,s), pihat(k), rhat(s) (:func:`in_b1_algebra`), prints
them as Qh(i), Pih(k), rh, and expands pihat(k) with the frozen coframe
rows pi^A_j = delta^A_j substituted.  On the full bundle ``slot`` is None.

*The one expansion.*  :func:`_monomial_components` builds r! times the
components of a degree-r generator monomial straight from the generators,
as one flat map {key: int}: each key packs a multi-index K and a monomial
m as ``(m << FIELD_BITS * n) + K counts``, K's count of each index value
1..n in the low n fields (the layout of :mod:`nsq.packed`).  It is
memoized on (mono, n, slot) and bounded at 1,024 entries.  The forms
layer and both routes of the bracket read the same tables.  An
observable's integer form is rank -> {flat key: int} over one
denominator, zeros dropped: the tables times its coefficients' numerators
(a symbol monomial shifted above the index fields), over the lcm of r!
times their denominators, or, for one monomial with coefficient 1, its
shared table itself over r!.  ``==`` compares two forms directly when
their denominators are equal and cross-multiplied when they differ;
``is_zero``, ``ranks``, ``rank`` and ``min_rank`` read the form, and
``components`` is the Poly view unpacked from it on first read
(:func:`_unflattened` gives K back as a sorted tuple).  The tables, forms
and views are shared: read them, never mutate them.  A monomial of degree
past ``POWER_BOUND``, or a coefficient with a symbol power past it, could
carry out of its packed field, so it has no form and is refused with
EngineError.

The Observable constructor checks and sorts each generator monomial once
per (mono, n) in one memo, (mono, n) -> (the checked monomial object, its
sorted form), bounded at 1024 entries (:func:`_sorted_monomial`).  An
input that *is* the stored object is served with no walk over its tags:
the memo keeps that object alive, so no other object can take its id,
and a tuple of tuples of exact ints cannot change.  An equal input that
is another object is served only when its indices are exact ints, and any
other input is checked every time, so every refusal stands whatever the
memo holds.  A coefficient that is the shared ``ONE`` is stored as is.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Iterable, Mapping

from .errors import DimensionMismatch, EngineError, IndexRangeError, NotInGeneratorAlgebra
from .linalg import exact_det
from .packed import FIELD_BITS, _FIELD_MASK, _nonzero, _scalar_numerators, check_dimension, checked_power, packed_units, unpack_poly
from .polynomials import Poly, Var, pivar, qvar
from .scalars import ONE, LinComb, Scalar, _coerce, accumulate, signed_sum, signed_term

MultiIndex = tuple
GenTag = tuple
GenMonomial = tuple


def check_index(i: int, n: int) -> int:
    """i itself when it is an exact int in 1..n (``True`` is not one); IndexRangeError otherwise."""
    if type(i) is not int or not 1 <= i <= n:
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
    A slot outside 1..n is refused with IndexRangeError, also when f is zero
    (the exact int 1 is in range at every n).
    """
    if type(slot) is not int or slot != 1:
        check_index(slot, f.n)
    for mono in f.terms:
        for tag in mono:
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


def _check_and_sort(mono: GenMonomial, n: int) -> GenMonomial:
    """Check that mono is a generator monomial at dimension n; its factors sorted."""
    if not mono:
        raise EngineError("a generator monomial has at least one factor")
    for tag in mono:
        _check_tag(tag, n)
    return tuple(sorted(mono))


MONOMIAL_MEMO_BOUND = 1024  # (mono, n) pairs memoized by the Observable constructor
_SORTED_MONOMIALS: dict = {}


def _sorted_monomial(mono: GenMonomial, n: int) -> GenMonomial:
    """:func:`_check_and_sort` for a constructor input that is not an exact-object hit.

    ``_SORTED_MONOMIALS`` maps (mono, n) to (the checked monomial object,
    its sorted form), at most MONOMIAL_MEMO_BOUND entries, the oldest
    dropped first; the constructor serves an entry whose stored object is
    its input itself (see the module docstring).  An equal key alone does
    not vouch for an input: ``("q", 1.0, 1)`` and ``("q", True, 1)`` equal
    ``("q", 1, 1)``, with equal hashes, but only the last is a generator
    (:func:`check_index` takes exact ints only and refuses the others).  So
    an equal entry is served, and an input stored, only when its tags are
    plain tuples of exact ints after the kind (:func:`_int_indices`); any
    other input is checked every time.  A refusal raises and is not stored.
    """
    if not _int_indices(mono):
        return _check_and_sort(mono, n)
    hit = _SORTED_MONOMIALS.get((mono, n))
    if hit is not None:
        return hit[1]
    out = _check_and_sort(mono, n)
    if len(_SORTED_MONOMIALS) >= MONOMIAL_MEMO_BOUND:
        del _SORTED_MONOMIALS[next(iter(_SORTED_MONOMIALS))]
    _SORTED_MONOMIALS[mono, n] = (mono, out)
    return out


def _int_indices(mono) -> bool:
    """Whether mono is a tuple of plain tuples whose entries after the first are exact ints."""
    if type(mono) is not tuple:
        return False
    for tag in mono:
        if type(tag) is not tuple:
            return False
        for i in tag[1:]:
            if type(i) is not int:
                return False
    return True


def _generator_variables(tag: GenTag, n: int, slot: int | None) -> tuple[tuple[int, Var | None], ...]:
    """The components of one generator, in order: (index, its variable), None for the constant 1."""
    kind = tag[0]
    if kind == "q":
        return ((tag[2], qvar(tag[1])),)
    if kind == "pi":
        k = tag[1]
        if slot is None:
            return tuple((l, pivar(l, k)) for l in range(1, n + 1))
        # on the slice pi^l_k = delta^l_k for every row l != slot
        return ((slot, pivar(slot, k)),) + (((k, None),) if k != slot else ())
    return ((tag[1], None),)


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


SPLIT_MEMO_BOUND = 4096  # (I, J) split counts memoized for route 1 and vf_bracket
_SPLIT_COUNTS: dict = {}


def _split_count(I: int, J: int) -> int:
    """split_count(K, I) for K = I + J, multi-indices as packed index counts: a product over the fields.

    The count is symmetric in I and J, since comb(a + b, a) = comb(a + b,
    b) in each field.  Stored in ``_SPLIT_COUNTS``, which route 1 and
    :func:`~nsq.forms.vf_bracket` read first; at most SPLIT_MEMO_BOUND
    counts, the oldest dropped first.  No count is 0.
    """
    K, i, out = I + J, I, 1
    while K:
        out *= comb(K & _FIELD_MASK, i & _FIELD_MASK)
        K, i = K >> FIELD_BITS, i >> FIELD_BITS
    if len(_SPLIT_COUNTS) >= SPLIT_MEMO_BOUND:
        del _SPLIT_COUNTS[next(iter(_SPLIT_COUNTS))]
    _SPLIT_COUNTS[I, J] = out
    return out


def sym_components(f: Mapping[MultiIndex, Poly], g: Mapping[MultiIndex, Poly]) -> dict[MultiIndex, Poly]:
    """Components of the normalized symmetric product of homogeneous maps of ranks p and q.

    The component at a sorted multi-index K of rank p+q is the average over
    all splits of K's positions into a p-subset fed to f and the complement
    fed to g: every pair (I, a) of f and (J, b) of g lands on K = sorted(I +
    J) with weight split_count(K, I) / comb(|K|, |I|).  Nothing in nsq calls
    it: only the benchmark tracer (``bench/nsqtrace.py``) binds it, and the
    benchmark refresh (ROADMAP item 1) deletes it.
    """
    out: dict = {}
    for I, a in f.items():
        for J, b in g.items():
            K = tuple(sorted(I + J))
            weight = Fraction(split_count(K, I), comb(len(K), len(I)))
            accumulate(out, K, (a * b).scale(weight))
    return out


_EMPTY_REST = {0: 1}  # the components of the empty product, over 0! = 1


@lru_cache(maxsize=1024)
def _monomial_components(mono: GenMonomial, n: int, slot: int | None) -> dict[int, int]:
    """r! times the components of a degree-r generator monomial, one flat map {key: int}.

    A key is ``(m << FIELD_BITS * n) + K counts`` (see the module
    docstring).  The table of mono[:-1] joined with the last generator's
    components {(j,): x_j} (x_j a variable or 1): each entry and each j
    land on the key plus x_j's packed unit (0 for the constant 1) above the
    index fields and one count in field j - 1, with weight K.count(j) =
    split_count(K, I), read from that field of the new key.  A degree past
    POWER_BOUND is refused with EngineError.  Memoized process-wide on
    (mono, n, slot), with a fixed bound so that memory stays flat on long
    runs; the returned map is shared between callers: read it, never
    mutate it.
    """
    checked_power(len(mono), "an observable")
    units, shift = packed_units(n), FIELD_BITS * n
    head = _monomial_components(mono[:-1], n, slot) if len(mono) > 1 else _EMPTY_REST
    out: dict = {}
    for j, var in _generator_variables(mono[-1], n, slot):
        field = FIELD_BITS * (j - 1)
        step = (0 if var is None else units[var] << shift) + (1 << field)
        for key, c in head.items():
            key += step
            weight = key >> field & _FIELD_MASK
            out[key] = out.get(key, 0) + weight * c
    return out


@lru_cache(maxsize=1024)
def _index_of(counts: int) -> MultiIndex:
    """The sorted multi-index of packed index counts, value j's count in field j - 1."""
    out: list = []
    j = 1
    while counts:
        out += [j] * (counts & _FIELD_MASK)
        counts >>= FIELD_BITS
        j += 1
    return tuple(out)


def _unflattened(flat: dict, n: int) -> dict[MultiIndex, dict[int, int]]:
    """K -> {packed monomial: int} of a flat map {key: int}, K a sorted tuple."""
    shift = FIELD_BITS * n
    mask = (1 << shift) - 1
    out: dict = {}
    for key, c in flat.items():
        out.setdefault(key & mask, {})[key >> shift] = c
    return {_index_of(counts): num for counts, num in out.items()}


def _scaled(graded: dict, factor: int) -> dict:
    """factor times an integer form rank -> {flat key: int}."""
    return {rank: {k: c * factor for k, c in flat.items()} for rank, flat in graded.items()}


class Observable(LinComb):
    """Graded symmetric-tensor-valued polynomial observable.

    Assemble these from :func:`make_qhat`, :func:`make_pihat`,
    :func:`make_rhat` with ``+``, ``-``, :meth:`scale` and
    :func:`sym_mul`.  ``terms`` maps sorted generator monomials to nonzero
    Scalars; the constructor sorts each monomial, so monomials that differ
    only in factor order sum.  Equality is equality of the components'
    integer forms (see the module docstring), within one algebra: ``slot``
    is None on the full bundle and the slice index for a slice observable,
    whose generators must lie in the slot's basic set.
    """

    _space = ("n", "slot")
    slot: int | None = None
    _form: tuple[dict[int, dict[int, int]], int] | None = None
    _components: dict[int, dict[MultiIndex, Poly]] | None = None

    def __init__(
        self, n: int, terms: Mapping[GenMonomial, Scalar], slot: int | None = None
    ):
        self.n = check_dimension(n)
        self.terms: dict[GenMonomial, Scalar] = {}
        memo = _SORTED_MONOMIALS
        for mono, c in terms.items():
            hit = memo.get((mono, n))
            key = hit[1] if hit is not None and hit[0] is mono else _sorted_monomial(mono, n)
            accumulate(self.terms, key, c if c is ONE else _coerce(c))
        if slot is not None:
            if not in_b1_algebra(self, slot):
                raise NotInGeneratorAlgebra(
                    f"observable uses generators outside the slot-{slot} basic algebra"
                )
            self.slot = slot

    @property
    def genpoly(self) -> dict[GenMonomial, Scalar]:
        """Read-only alias of ``terms``.

        Only the benchmark tracer (``bench/nsqtrace.py``) reads it; the
        benchmark refresh (ROADMAP item 1) switches the tracer to ``terms``
        and deletes this alias.
        """
        return self.terms

    def _like(self, terms: dict) -> "Observable":
        """An observable in the same algebra as self over a zero-free term map (trusted)."""
        out = object.__new__(Observable)
        out.terms, out.n, out.slot = terms, self.n, self.slot
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Observable":
        return Observable(n, {})

    @staticmethod
    def from_tag(n: int, tag: GenTag) -> "Observable":
        return Observable(n, {(tag,): Scalar.one()})

    # -- structure ----------------------------------------------------------

    def _numerators(self) -> tuple[dict[int, dict[int, int]], int]:
        """(rank -> {flat key: int}, denominator): the components' integer form, zeros dropped."""
        if self._form is None:
            n, slot = self.n, self.slot
            if len(self.terms) == 1 and ONE in self.terms.values():
                # a unit monomial is its shared table, uncopied
                (mono,) = self.terms
                self._form = {len(mono): _monomial_components(mono, n, slot)}, factorial(len(mono))
                return self._form
            parts, den = [], 1
            for mono, coeff in self.terms.items():
                cnums, cden, ctop = _scalar_numerators(coeff, n)
                checked_power(ctop, "an observable")
                d = factorial(len(mono)) * cden
                den = lcm(den, d)
                parts.append((mono, cnums, d))
            by_rank: dict = {}
            above = FIELD_BITS * n  # a symbol monomial sits above the index fields
            for mono, cnums, d in parts:
                acc = by_rank.setdefault(len(mono), {})
                table = _monomial_components(mono, n, slot)
                for sym, c in cnums.items():
                    w, sym = c * (den // d), sym << above
                    for k, v in table.items():
                        k += sym
                        acc[k] = acc.get(k, 0) + w * v
            graded = ((rank, _nonzero(acc)) for rank, acc in by_rank.items())
            self._form = {rank: flat for rank, flat in graded if flat}, den
        return self._form

    @property
    def components(self) -> dict[int, dict[MultiIndex, Poly]]:
        """Graded component maps: rank -> canonical multi-index -> polynomial.

        The Poly view of the integer form, unpacked on first read.
        """
        if self._components is None:
            graded, den = self._numerators()
            self._components = {
                rank: {K: unpack_poly(num, den, self.n) for K, num in _unflattened(flat, self.n).items()}
                for rank, flat in graded.items()
            }
        return self._components

    def ranks(self) -> list[int]:
        return sorted(self._numerators()[0])

    def is_zero(self) -> bool:
        return not self._numerators()[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

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
        if self.n != other.n or self.slot != other.slot:
            return False
        a, da = self._numerators()
        b, db = other._numerators()
        # a / da == b / db, cross-multiplied when the denominators differ
        return a == b if da == db else _scaled(a, db) == _scaled(b, da)

    __hash__ = None

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
