"""The packed integer form shared by Hamiltonian fields and differential operators.

*The packed layout.*  A packed key is one int holding a field of
``FIELD_BITS`` bits per variable: the packed exponent vectors of Monagan and
Pearce (CASC 2007) and of FLINT's ``fmpz_mpoly``.  At dimension n the first
n + n^2 fields are the frame-bundle variables, q^1..q^n and then pi^a_b row
by row (:func:`packed_units`), one layout for the full bundle and every
slice, so the bracket's tables stay as narrow as they need to be.  Every
other variable, every formal symbol (IHBAR, A_i) and every derivative
degree d/dq^i of an operator gets a field above those n + n^2 from one
append-only, process-wide registry, the first time it is met
(:func:`field_unit`).  So every input is accepted, a key is the same int in
every field and operator of the process at one n, and the product of two
monomials, or the shift of a derivative degree, is one int add, so long as
no power passes ``POWER_BOUND``.

*The flat component key.*  A component entry of an observable's tables
(:mod:`nsq.algebra`), and a term of a Hamiltonian field's form
(:class:`nsq.forms.HamVF`, keyed (variable, flat key) with its grade as
the multi-index), is one int of the same fields: the multi-index K sits
in the low n fields, as the count of each index value 1..n (value j in
field j - 1), and the packed monomial sits above them, so
``key = (m << FIELD_BITS * n) + K counts``.  No count carries, since a rank
past ``POWER_BOUND`` is refused; joining two multi-indices, or a
multi-index and a monomial, is one int add.

*The canonical form.*  A :class:`PackedLinComb` holds a map from keys to
nonzero ints over one positive denominator reduced by the gcd
(:func:`_normal`), as FLINT's ``fmpq_poly`` does, so equal elements have
equal forms, and ``==``, ``hash``, ``+``, ``-`` and :meth:`PackedLinComb.scale`
run on the ints.  Each form also records the largest power any field could
hold, and a result that could pass ``POWER_BOUND`` is refused with
EngineError before any work, so that no field carries.  ``terms`` is the
view the rest of the engine reads: an element built from a view (the
constructor) packs it once, and one built by a kernel holds only its ints
and unpacks the view the first time it is read.  Both are shared once
built: read them, never mutate them.

A subclass says what its keys are: where a key's packed part sits
(:meth:`PackedLinComb._add_into`), how a view packs and unpacks, and how a
refusal names its powers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping

from .errors import EngineError, IndexRangeError
from .polynomials import Monomial, Poly, Var, pivar, qvar
from .scalars import LinComb, Scalar, _coerce

POWER_BOUND = 255  # the largest power a packed field holds
FIELD_BITS = POWER_BOUND.bit_length()
_FIELD_MASK = (1 << FIELD_BITS) - 1


def check_dimension(n: int) -> int:
    """n itself when it is an exact int >= 1 (``True`` is not one); IndexRangeError otherwise."""
    if type(n) is not int or n < 1:
        raise IndexRangeError(f"dimension must be a positive integer, got {n!r}")
    return n


@lru_cache(maxsize=16)
def packed_units(n: int) -> dict[Var, int]:
    """var -> the packed monomial of var^1, over the frame-bundle variables at dimension n.

    Memoized and shared: read it, never mutate it.
    """
    variables = [qvar(i) for i in range(1, n + 1)]
    variables += [pivar(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    return {v: 1 << (FIELD_BITS * k) for k, v in enumerate(variables)}


_FIELDS: list = []  # registry index -> (kind, name); kind "var", "sym" or "d" (name i)
_INDEX: dict = {}  # the inverse of _FIELDS


def field_unit(kind: str, name, n: int) -> int:
    """The key at dimension n of power 1 of a variable, symbol or derivative, handing out the next field on first use."""
    if kind == "var":
        unit = packed_units(n).get(name)
        if unit is not None:
            return unit
    k = _INDEX.get((kind, name))
    if k is None:
        k = _INDEX[kind, name] = len(_FIELDS)
        _FIELDS.append((kind, name))
    return 1 << (FIELD_BITS * (n + n * n + k))


def variable_units(n: int) -> list[tuple[Var, int]]:
    """(variable, unit) of every variable with a field at dimension n: the frame bundle's, then the registry's."""
    frame = packed_units(n)
    base = n + n * n
    registry = [
        (name, 1 << (FIELD_BITS * (base + k)))
        for k, (kind, name) in enumerate(_FIELDS)
        if kind == "var" and name not in frame
    ]
    return list(frame.items()) + registry


def checked_power(top: int, what: str) -> int:
    """top, when a packed field holds it; else EngineError saying that what's power could pass the bound."""
    if top > POWER_BOUND:
        raise EngineError(f"{what} power could reach {top}, past the {POWER_BOUND} that a packed field holds")
    return top


def pack_term(mono: Monomial, sym: tuple, n: int) -> tuple[int, int]:
    """(key, largest power) of a variable monomial times a symbol monomial."""
    key = top = 0
    for v, pw in mono:
        key += pw * field_unit("var", v, n)
        top = max(top, pw)
    for name, pw in sym:
        key += pw * field_unit("sym", name, n)
        top = max(top, pw)
    return key, top


def unpack_monomial(key: int, n: int) -> Monomial:
    """The sorted (variable, power) monomial of the frame-bundle fields of a packed key."""
    powers = ((v, (key // unit) & _FIELD_MASK) for v, unit in packed_units(n).items())
    return tuple(sorted((v, pw) for v, pw in powers if pw))


def unpack_term(key: int, n: int) -> tuple[Monomial, tuple, tuple]:
    """(variable monomial, symbol monomial, derivative degrees (i, power)) of a packed key."""
    out: dict = {"var": list(unpack_monomial(key, n)), "sym": [], "d": []}
    key >>= FIELD_BITS * (n + n * n)
    for kind, name in _FIELDS:
        if not key:
            break
        if key & _FIELD_MASK:
            out[kind].append((name, key & _FIELD_MASK))
        key >>= FIELD_BITS
    return tuple(sorted(out["var"])), tuple(sorted(out["sym"])), tuple(sorted(out["d"]))


def unpack_poly(num: Mapping[int, int], den: int | Fraction, n: int) -> Poly:
    """The polynomial num / den, with Scalar coefficients, of a map from packed keys to ints."""
    terms: dict = {}
    for key, c in num.items():
        mono, sym, _ = unpack_term(key, n)
        terms.setdefault(mono, {})[sym] = Fraction(c, den)
    return Poly({mono: Scalar(s) for mono, s in terms.items()})


_ONE_TERMS = {(): 1}  # the terms of the Scalar 1
_UNIT_NUMERATORS = ({0: 1}, 1, 0)  # _scalar_numerators of 1


def _scalar_numerators(c: Scalar, n: int) -> tuple[dict, int, int]:
    """(packed symbol monomial -> numerator, denominator, largest symbol power) of a nonzero Scalar."""
    if c.terms == _ONE_TERMS:
        return _UNIT_NUMERATORS
    den = lcm(*(v.denominator for v in c.terms.values()))
    nums, top = {}, 0
    for sym, v in c.terms.items():
        key, pw = pack_term((), sym, n)
        nums[key] = v.numerator * (den // v.denominator)
        top = max(top, pw)
    return nums, den, top


def _nonzero(acc: dict) -> dict:
    """acc without its zero values; acc itself when it holds none."""
    return {key: c for key, c in acc.items() if c} if 0 in acc.values() else acc


def _normal(acc: dict, den: int) -> tuple[dict, int]:
    """The canonical form of key -> int over den: zeros dropped, reduced by the gcd."""
    nums = _nonzero(acc)
    g = gcd(den, *nums.values()) if den != 1 else 1
    if g != 1:
        return {key: c // g for key, c in nums.items()}, den // g
    return nums, den


class PackedLinComb(LinComb):
    """A combination in packed integer form: key -> nonzero int over one denominator.

    See the module docstring.  A subclass defines what its keys mean:

    * ``_packed_view(n, view)``: ([(key, Fraction)] for every term of a
      view, the largest power);
    * ``_unpacked()``: the view of the integer form;
    * ``_add_into(acc, nums, factor, shift, n)``: acc += factor * nums,
      with the packed part of every key moved by shift, a packed monomial at
      dimension n, over a whole map;
    * ``_power``: what a refusal says could pass the bound.
    """

    __slots__ = ("n", "_nums", "_den", "_top", "_view")
    _space = ("n",)
    _power: str

    def __init__(self, n: int, view: dict):
        terms, top = self._packed_view(n, view)
        # the lcm of the denominators shares no prime with every numerator
        den = lcm(*(c.denominator for _, c in terms))
        self.n, self._den, self._top, self._view = n, den, self._checked(top), view
        self._nums = {key: c.numerator * (den // c.denominator) for key, c in terms}

    @classmethod
    def _checked(cls, top: int) -> int:
        """top, when a packed field holds it; else EngineError."""
        return checked_power(top, cls._power)

    @classmethod
    def _of(cls, n: int, nums: dict, den: int, top: int):
        """The element of a canonical integer form (trusted)."""
        out = object.__new__(cls)
        out.n, out._nums, out._den, out._view = n, nums, den, None
        out._top = cls._checked(top) if nums else 0
        return out

    @classmethod
    def zero(cls, n: int):
        """The zero of the class at dimension n: one shared element, never mutate it.

        IndexRangeError when n is not a dimension (:func:`check_dimension`).
        """
        if type(n) is not int:  # True and 2.0 would hit the entries of 1 and 2
            check_dimension(n)
        return _shared_zero(cls, n)

    def _like(self, terms: dict):
        """The element of a view in the same space as self."""
        return type(self)(self.n, terms)

    @property
    def terms(self) -> dict:
        if self._view is None:
            if not self._nums:
                return {}  # a zero may be the shared one, so it stores no view
            self._view = self._unpacked()
        return self._view

    # -- the linear structure, on the integer form ----------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self.n, self._den, frozenset(self._nums.items())))

    def __add__(self, other):
        """self + other over the lcm of the denominators."""
        self._require_same(other)
        if not other._nums:
            return self
        if not self._nums:
            return other
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        acc = {key: c * fa for key, c in self._nums.items()}
        for key, c in other._nums.items():
            acc[key] = acc.get(key, 0) + c * fb
        return self._of(self.n, *_normal(acc, den), max(self._top, other._top))

    def __neg__(self):
        return self._of(self.n, {key: -c for key, c in self._nums.items()}, self._den, self._top)

    def scale(self, c):
        """c * self for a Scalar, int or Fraction c."""
        c = _coerce(c)
        if not c or not self._nums:
            return self.zero(self.n)
        cnums, cden, ctop = _scalar_numerators(c, self.n)
        if cnums is _UNIT_NUMERATORS[0]:
            return self
        top = self._checked(self._top + ctop)
        acc: dict = {}
        for shift, factor in cnums.items():
            self._add_into(acc, self._nums, factor, shift, self.n)
        return self._of(self.n, *_normal(acc, self._den * cden), top)


@lru_cache(maxsize=64)
def _shared_zero(cls: type, n: int) -> PackedLinComb:
    return cls._of(check_dimension(n), {}, 1, 0)
