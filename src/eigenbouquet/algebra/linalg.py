"""Fraction-free linear algebra over polynomial rings.

Bareiss elimination keeps every intermediate value a polynomial (divisions
are exact), so ranks and determinants over the fraction field of the
parameter ring come out exactly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .gcdtools import divexact
from .poly import Polynomial
from .scalars import Scalar

Matrix = list[list[Polynomial]]


def bareiss_det(matrix: Matrix) -> Polynomial:
    """Determinant of a square polynomial matrix by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    universe = matrix[0][0].universe
    if n == 1:
        return matrix[0][0]
    m = [row[:] for row in matrix]
    sign = 1
    prev = Polynomial.constant(universe, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot_row is None:
                return Polynomial.zero(universe)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                num = pivot * m[r][c] - m[r][k] * m[k][c]
                m[r][c] = divexact(num, prev)
            m[r][k] = Polynomial.zero(universe)
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def _strip_row_content(row: list[Polynomial]) -> list[Polynomial]:
    """Divide a row by its monomial and integer content (rank-preserving)."""
    nonzero = [p for p in row if not p.is_zero()]
    if not nonzero:
        return row
    nvars = nonzero[0].universe.nvars
    mins = [min(e[k] for p in nonzero for e in p.terms) for k in range(nvars)]
    num = 0
    den = 1
    real_only = True
    for p in nonzero:
        for c in p.terms.values():
            if c.imag:
                real_only = False
                break
            num = math.gcd(num, c.numerator)
            den = math.lcm(den, c.denominator)
        if not real_only:
            break
    out = []
    factor = Fraction(den, num) if (real_only and num) else Fraction(1)
    for p in row:
        if p.is_zero():
            out.append(p)
            continue
        terms = {
            tuple(e[k] - mins[k] for k in range(nvars)): c * factor
            for e, c in p.terms.items()
        }
        out.append(Polynomial(p.universe, terms))
    return out


def eval_matrix_rational(matrix: Matrix, point: dict[str, Fraction]) -> list[list[Fraction | Scalar]]:
    return [[p.eval_scalar(point) for p in row] for row in matrix]


def scalar_matrix_rank(m: list[list[Fraction | Scalar]]) -> int:
    """Exact rank of a Q or Q(i) matrix."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [row[:] for row in m]
    r = 0
    for c in range(cols):
        pivot = next((k for k in range(r, rows) if a[k][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][c]
        for k in range(r + 1, rows):
            if a[k][c]:
                f = a[k][c] / inv
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
        r += 1
        if r == rows:
            break
    return r


def _symbolic_rank(matrix: Matrix) -> int:
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    universe = matrix[0][0].universe
    m = [_strip_row_content(row[:]) for row in matrix]
    prev = Polynomial.constant(universe, 1)
    r = 0
    while r < rows and r < cols:
        # pivot with fewest terms to limit growth
        best = None
        for i in range(r, rows):
            for j in range(r, cols):
                if m[i][j].is_zero():
                    continue
                key = (len(m[i][j].terms), m[i][j].total_degree(), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        m[r], m[pi] = m[pi], m[r]
        for row in m:
            row[r], row[pj] = row[pj], row[r]
        pivot = m[r][r]
        for i in range(r + 1, rows):
            if all(m[i][j].is_zero() for j in range(r, cols)):
                continue
            for j in range(r + 1, cols):
                num = pivot * m[i][j] - m[i][r] * m[r][j]
                m[i][j] = divexact(num, prev)
            m[i][r] = Polynomial.zero(universe)
        prev = pivot
        r += 1
    return r


def bareiss_rank(matrix: Matrix, seed: int = 20240601) -> int:
    """Rank over the fraction field of the parameter ring.

    Fast path: evaluating at a rational point certifies full-rank answers
    (a nonzero rational value of the minor is a nonvanishing certificate).
    Otherwise falls back to symbolic fraction-free elimination.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0 or cols == 0:
        return 0
    names = matrix[0][0].universe.names
    rng = random.Random(seed)
    bound = min(rows, cols)
    for _ in range(4):
        point = {name: Fraction(rng.randint(-97, 97), rng.randint(1, 31)) for name in names}
        if scalar_matrix_rank(eval_matrix_rational(matrix, point)) == bound:
            return bound
    return _symbolic_rank(matrix)


def submatrix(matrix: Matrix, rows, cols) -> Matrix:
    return [[matrix[r][c] for c in cols] for r in rows]
