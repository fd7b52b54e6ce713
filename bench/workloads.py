"""The benchmark's workloads: seeded inputs and one exact verdict per case.

A workload is built from its seed alone; nsq receives only the generated
inputs.  ``specs()`` yields plain tuples (generator tags, exponents), and
``run(spec)`` builds fresh nsq objects from one spec, runs the case through
nsq's public functions and returns its verdict, which must be True.  Fresh
objects per case keep one case's stored expansions from serving the next,
as in ``nsq verify``.  Functions are looked up on their module at call time,
so trace wrappers installed by the benchmark are seen.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from nsq import algebra, forms, parsing, poisson, quantization, subbundle, symplectic_ref
from nsq.scalars import Scalar


def _full_tags(n: int) -> list:
    """qh(i,j) for every slot, pih(k) and rh(k)."""
    return (
        [algebra.qtag(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        + [algebra.pitag(k) for k in range(1, n + 1)]
        + [algebra.rtag(k) for k in range(1, n + 1)]
    )


def _b1_tags(n: int) -> list:
    """The basic set of slot 1: qh(i,1), pih(k), rh(1)."""
    return (
        [algebra.qtag(i, 1) for i in range(1, n + 1)]
        + [algebra.pitag(k) for k in range(1, n + 1)]
        + [algebra.rtag(1)]
    )


def _monomial(n: int, mono: tuple):
    return algebra.Observable(n, {mono: Scalar.one()})


class Cycler:
    """Endless stream over items, one seeded permutation after another.

    Every len(items) draws hold each item once, so the mix of a run's cases
    barely depends on the seed.
    """

    def __init__(self, rng: random.Random, items):
        self.rng, self.items = rng, list(items)
        self.pos = len(self.items)

    def __next__(self):
        if self.pos == len(self.items):
            self.rng.shuffle(self.items)
            self.pos = 0
        self.pos += 1
        return self.items[self.pos - 1]


class MonomialDrawer:
    """The monomials of one case over some letters.  The case's tuple of
    degrees cycles through every combination of the allowed degrees, and
    each degree cycles through all its distinct monomials."""

    def __init__(self, rng: random.Random, letters: list, degrees: range, count: int):
        self.degrees = Cycler(rng, itertools.product(degrees, repeat=count))
        self.by_degree = {
            d: Cycler(rng, itertools.combinations_with_replacement(sorted(letters), d)) for d in degrees
        }

    def __next__(self) -> tuple:
        return tuple(next(self.by_degree[d]) for d in next(self.degrees))


class DiracQ1:
    """dirac_check(make_q1(3), f, g) over all pairs of basic-algebra monomials
    of degree <= 3, visited in seeded order (a new order on each sweep)."""

    name = "dirac-q1-n3"
    n = 3

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        tags = sorted(_b1_tags(self.n))
        self.monomials = [
            mono for deg in (1, 2, 3) for mono in itertools.combinations_with_replacement(tags, deg)
        ]
        self.pairs = list(itertools.product(range(len(self.monomials)), repeat=2))
        self.rng.shuffle(self.pairs)
        self.qmap = quantization.make_q1(self.n)

    def specs(self):
        while True:
            for i, j in self.pairs:
                yield (self.monomials[i], self.monomials[j])
            self.rng.shuffle(self.pairs)

    def run(self, spec) -> bool:
        f, g = (_monomial(self.n, m) for m in spec)
        return quantization.dirac_check(self.qmap, f, g)

    def label(self, spec) -> str:
        f, g = (_monomial(self.n, m) for m in spec)
        return f"dirac ({f!r}; {g!r})"


class _MixedKinds:
    """Cases of several kinds in seeded order; each block of len(KINDS) cases
    holds KINDS once.  Subclasses set ``kinds`` (a Cycler over KINDS) and
    ``draws``: kind -> MonomialDrawer."""

    def specs(self):
        while True:
            kind = next(self.kinds)
            yield (kind, next(self.draws[kind]))


class LawsMixed(_MixedKinds):
    """Seeded random monomials of degree <= 3 in three kinds of case:

    * jacobi: the Jacobi residual of three monomials over the full generator
      set is zero (brackets of multi-term brackets);
    * thm1: -(1/C) [X_f, X_g] satisfies the structure equation of {f, g},
      and {f, g} survives a print -> parse round trip;
    * reduction: reducing to the slot-1 slice is a bracket homomorphism, on
      two basic-algebra monomials.
    """

    name = "laws-mixed-n3"
    n = 3
    KINDS = ("jacobi", "thm1", "reduction")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        full, b1 = _full_tags(self.n), _b1_tags(self.n)
        self.kinds = Cycler(rng, self.KINDS)
        self.draws = {
            "jacobi": MonomialDrawer(rng, full, range(1, 4), 3),
            "thm1": MonomialDrawer(rng, full, range(1, 4), 2),
            "reduction": MonomialDrawer(rng, b1, range(1, 4), 2),
        }

    def run(self, spec) -> bool:
        kind, monos = spec
        obs = [_monomial(self.n, m) for m in monos]
        if kind == "jacobi":
            return poisson.jacobi_residual(*obs).is_zero()
        if kind == "reduction":
            return subbundle.reduction_homomorphism_check(*obs)
        f, g = obs
        fg = poisson.bracket(f, g)
        round_trip = parsing.parse_observable(parsing.print_observable(fg), self.n)
        c = poisson.theorem1_constant(f.rank(), g.rank())
        candidate = forms.vf_bracket(forms.ham_vf(f), forms.ham_vf(g)).scale(Fraction(-1) / c)
        return round_trip == fg and forms.structure_eq_check(fg, candidate)

    def label(self, spec) -> str:
        kind, monos = spec
        return f"{kind} ({'; '.join(repr(_monomial(self.n, m)) for m in monos)})"


class WeylOps(_MixedKinds):
    """Cotangent monomials q^a p^b in two modes, in two kinds of case, one
    brute and two jacobi per block of three:

    * brute: the McCoy Weyl quantization of a monomial of degree 2..5 equals
      the brute-force word-averaging oracle;
    * jacobi: the operator Jacobi identity holds on the commutators of the
      Weyl quantizations of three monomials of degree 2..4.

    The slowest cases are then brute on degree-5 monomials, whose cost is
    set by their number of distinct words (60 for the four with every
    letter, 30 for the next twelve), so case_p99_ms falls inside one cost
    class instead of between jacobi triples of widely varying cost.
    """

    name = "weyl-ops-n2"
    n = 2
    KINDS = ("brute", "jacobi", "jacobi")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        letters = list(range(2 * self.n))  # q1, q2, p1, p2
        self.kinds = Cycler(rng, self.KINDS)
        self.draws = {
            "brute": MonomialDrawer(rng, letters, range(2, 6), 1),
            "jacobi": MonomialDrawer(rng, letters, range(2, 5), 3),
        }

    def _poly(self, letters: tuple):
        """The product of the letters' variables."""
        out = symplectic_ref.sp_q(1) ** 0
        for mode in range(1, self.n + 1):
            out = out * symplectic_ref.sp_q(mode) ** letters.count(mode - 1)
            out = out * symplectic_ref.sp_p(mode) ** letters.count(self.n + mode - 1)
        return out

    def run(self, spec) -> bool:
        kind, monos = spec
        polys = [self._poly(m) for m in monos]
        if kind == "brute":
            (f,) = polys
            return symplectic_ref.weyl_quantize(f, self.n) == symplectic_ref.weyl_quantize_brute(f, self.n)
        a, b, c = (symplectic_ref.weyl_quantize(f, self.n) for f in polys)
        comm = quantization.commutator
        return (comm(a, comm(b, c)) + comm(b, comm(c, a)) + comm(c, comm(a, b))).is_zero()

    def label(self, spec) -> str:
        kind, monos = spec
        return f"{kind} ({'; '.join(str(self._poly(m)) for m in monos)})"


WORKLOADS = {w.name: w for w in (DiracQ1, LawsMixed, WeylOps)}
