"""Fraction-free linear algebra over polynomial rings.

Minors come from Laplace expansion, which never divides; ranks from Bareiss
elimination, whose divisions are exact. So ranks and determinants over the
fraction field of the parameter ring come out exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .gcdtools import divexact
from .poly import Polynomial, _add_into
from .scalars import Scalar

Matrix = list[list[Polynomial]]


def laplace_minors(matrix: Matrix, rows, col_sets) -> dict[tuple[int, ...], Polynomial]:
    """The minors of matrix on the row tuple rows and on each sorted column
    tuple in col_sets, by division-free Laplace expansion along the last row,
    one row prefix at a time. Zero minors are left out of the dict.

    Top down, a level's column sets are those a set of the level above
    leaves when one column where the dropped row is nonzero is taken out.
    Bottom up, det(rows[:k], C) = sum_j (-1)^(k-1+j) a[rows[k-1]][C[j]]
    det(rows[:k-1], C minus C[j]); only the level below is kept alive.
    """
    support = {r: {c for c, p in enumerate(matrix[r]) if p} for r in rows[1:]}
    needed = [set(col_sets)]
    for r in reversed(rows[1:]):
        needed.append({
            cols[:j] + cols[j + 1 :] for cols in needed[-1] for j, c in enumerate(cols) if c in support[r]
        })
    first = matrix[rows[0]]
    universe = first[0].universe
    level = {cols: first[cols[0]] for cols in needed.pop() if first[cols[0]]}
    for k, r in enumerate(rows[1:], start=1):
        below, level, row, live = level, {}, matrix[r], support[r]
        for cols in needed.pop():
            products = [
                (-1 if (k + j) % 2 else 1, row[c] * sub)
                for j, c in enumerate(cols)
                if c in live and (sub := below.get(cols[:j] + cols[j + 1 :])) is not None
            ]
            # one accumulator over one denominator: the terms land in the
            # order adding the signed products one by one gives them
            den = lcm(*(p.den for _, p in products))
            out: dict = {}
            for sign, p in products:
                _add_into(out, sign * (den // p.den), 0, p._t)
            if out:
                level[cols] = Polynomial._make(universe, out, den)
    return level


def _strip_row_content(row: list[Polynomial]) -> list[Polynomial]:
    """Divide a row by the monomial its entries share (rank-preserving)."""
    nonzero = [p for p in row if p]
    if not nonzero:
        return row
    least = tuple(map(min, zip(*(p.monomial_content() for p in nonzero))))
    return [divexact(p, Polynomial(p.universe, {least: 1})) if p else p for p in row]


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
                key = (len(m[i][j]), m[i][j].total_degree(), i, j)
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
