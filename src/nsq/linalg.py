"""Small exact linear-algebra helpers over Fraction entries.

All three run one Gauss-Jordan elimination, :func:`_eliminate`, over
Fractions.
"""

from __future__ import annotations

from fractions import Fraction


def _eliminate(m: list[list[Fraction]], ncols: int) -> tuple[int, Fraction]:
    """Gauss-Jordan elimination of m in place, with pivots in the first ncols columns.

    Each pivot row is divided by its pivot, and the pivot column is cleared
    in every other row.  Returns the rank and the product of the pivots,
    negated once per row swap: the determinant of a square m of full rank.
    """
    rank, det = 0, Fraction(1)
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        pv = m[rank][col]
        det *= pv
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            factor = m[r][col]
            if r != rank and factor:
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank, det


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix."""
    m = [list(map(Fraction, row)) for row in rows]
    return _eliminate(m, len(m[0]))[0] if m else 0


def exact_det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix."""
    n = len(matrix)
    rank, det = _eliminate([list(map(Fraction, row)) for row in matrix], n)
    return det if rank == n else Fraction(0)


def exact_inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square rational matrix; raises on singular input."""
    n = len(matrix)
    m = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    if _eliminate(m, n)[0] < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in m]
