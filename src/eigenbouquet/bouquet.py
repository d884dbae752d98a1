"""The quadratic system cutting out the union of eigenspaces.

For a verified family M the quadratics

    Q[i,j](v) = (M v)_i v_j - (M v)_j v_i,   i < j,

vanish exactly on the union of the eigenspaces of M at each parameter
point. Expanded in the fiber monomial basis V_a V_b (a <= b, row-major)
they form a coefficient matrix of parameter polynomials whose generic rank
and maximal-minor ideal drive the whole resolution pipeline.

Complex (gaussian) families are rewritten over 2n real fiber coordinates,
real and imaginary parts of each quadratic doubling the row count, so the
exact layer stays over Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .algebra import (
    Polynomial,
    VarUniverse,
    all_exact,
    bareiss_det,
    bareiss_rank,
    divexact,
    eval_matrix_rational,
    gcd_multivariate,
    monic,
    primitive_normalize,
    scalar_matrix_rank,
    submatrix,
)
from .family import MatrixFamily, check_structure
from .oracle import eigh_jacobi


class ScalarOperator(Exception):
    """Signals that the family is a multiple of the identity (no quadratics)."""


def quad_monomials(n: int) -> list[tuple[int, int]]:
    """Index pairs of the fiber monomial basis: V1^2, V1V2, ..., V2^2, ..."""
    return [(a, b) for a in range(n) for b in range(a, n)]


def quad_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass
class QuadForm:
    """A quadratic in the fiber variables with parameter-polynomial coefficients."""

    universe: VarUniverse
    coeffs: dict[tuple[int, int], Polynomial]

    def as_polynomial(self) -> Polynomial:
        u = self.universe
        total = Polynomial.zero(u)
        nparams = len(u.params)
        for (a, b), p in self.coeffs.items():
            exps = [0] * u.nvars
            exps[nparams + a] += 1
            exps[nparams + b] += 1
            total = total + p * Polynomial(u, {tuple(exps): Fraction(1)})
        return total


@dataclass
class QuadSystem:
    family: MatrixFamily
    fiber_universe: VarUniverse  # fiber coordinates the quadratics live over
    row_labels: list[tuple]  # ("re"|"im", i, j) for gaussian, (i, j) otherwise
    quads: list[QuadForm]
    coeff_matrix: list[list[Polynomial]]
    generic_rank: int = -1

    @property
    def fiber_dim(self) -> int:
        return len(self.fiber_universe.fibers)

    @property
    def monomials(self) -> list[tuple[int, int]]:
        return quad_monomials(self.fiber_dim)

    def rank_at(self, point: dict) -> int:
        return scalar_matrix_rank(eval_matrix_rational(self.coeff_matrix, point))


def _real_doubled_universe(universe: VarUniverse) -> VarUniverse:
    fibers = universe.fibers
    doubled = tuple(f"{f}_re" for f in fibers) + tuple(f"{f}_im" for f in fibers)
    return VarUniverse(universe.params, doubled, universe.exceptional)


def wedge_quadratics(family: MatrixFamily) -> QuadSystem:
    """Expand (Mv)_i v_j - (Mv)_j v_i into the fiber monomial basis."""
    if not family.verified:
        check_structure(family)
    n = family.n
    universe = family.universe
    if family.fld == "gaussian":
        return _wedge_quadratics_gaussian(family)
    mono_index = {m: k for k, m in enumerate(quad_monomials(n))}
    rows: list[QuadForm] = []
    labels: list[tuple] = []
    matrix: list[list[Polynomial]] = []
    zero = Polynomial.zero(universe)
    for i, j in quad_pairs(n):
        coeffs: dict[tuple[int, int], Polynomial] = {}

        def add(a, b, poly):
            key = (a, b) if a <= b else (b, a)
            coeffs[key] = coeffs.get(key, zero) + poly

        # (Mv)_i v_j = sum_k M[i][k] v_k v_j ; minus the (i <-> j) swap
        for k in range(n):
            add(k, j, family.entries[i][k])
            add(k, i, -family.entries[j][k])
        coeffs = {key: p for key, p in coeffs.items() if not p.is_zero()}
        rows.append(QuadForm(universe, coeffs))
        labels.append((i, j))
        matrix.append([coeffs.get(m, zero) for m in quad_monomials(n)])
    return QuadSystem(family, universe, labels, rows, matrix)


def _wedge_quadratics_gaussian(family: MatrixFamily) -> QuadSystem:
    """Real/imaginary split over doubled real fiber coordinates."""
    n = family.n
    target = _real_doubled_universe(family.universe)
    nn = 2 * n
    zero = Polynomial.zero(target)

    def part(poly: Polynomial, which: str) -> Polynomial:
        terms = {}
        for e, c in poly.terms.items():
            v = c.real if which == "re" else c.imag
            if v:
                terms[e] = v
        return Polynomial(family.universe, terms).in_universe(target)

    re_m = [[part(family.entries[r][c], "re") for c in range(n)] for r in range(n)]
    im_m = [[part(family.entries[r][c], "im") for c in range(n)] for r in range(n)]

    rows: list[QuadForm] = []
    labels: list[tuple] = []
    matrix: list[list[Polynomial]] = []
    monos = quad_monomials(nn)
    for i, j in quad_pairs(n):
        re_coeffs: dict[tuple[int, int], Polynomial] = {}
        im_coeffs: dict[tuple[int, int], Polynomial] = {}

        def add(store, a, b, poly):
            if poly.is_zero():
                return
            key = (a, b) if a <= b else (b, a)
            store[key] = store.get(key, zero) + poly

        # fiber v = x + i y with x_k at index k and y_k at index n + k.
        # (Mv)_i v_j - (Mv)_j v_i, split into real and imaginary parts:
        for k in range(n):
            for (this, other, sign) in ((k, j, 1), (k, i, -1)):
                row = i if sign > 0 else j
                add(re_coeffs, this, other, re_m[row][this].scale(sign))
                add(re_coeffs, n + this, n + other, re_m[row][this].scale(-sign))
                add(re_coeffs, n + this, other, im_m[row][this].scale(-sign))
                add(re_coeffs, this, n + other, im_m[row][this].scale(-sign))
                add(im_coeffs, this, n + other, re_m[row][this].scale(sign))
                add(im_coeffs, n + this, other, re_m[row][this].scale(sign))
                add(im_coeffs, this, other, im_m[row][this].scale(sign))
                add(im_coeffs, n + this, n + other, im_m[row][this].scale(-sign))
        for which, coeffs in (("re", re_coeffs), ("im", im_coeffs)):
            coeffs = {key: p for key, p in coeffs.items() if not p.is_zero()}
            rows.append(QuadForm(target, coeffs))
            labels.append((which, i, j))
            matrix.append([coeffs.get(m, zero) for m in monos])
    return QuadSystem(family, target, labels, rows, matrix)


def generic_rank(system: QuadSystem, seed: int = 20240601) -> int:
    """Generic rank of the coefficient matrix over the parameter function field."""
    if all(all(p.is_zero() for p in row) for row in system.coeff_matrix):
        system.generic_rank = 0
        return 0
    system.generic_rank = bareiss_rank(system.coeff_matrix, seed=seed)
    return system.generic_rank


def expected_quadratic_dim(multiplicities) -> int:
    """Dimension of the quadratic part of the bouquet ideal: sum e_i e_j, i<j."""
    e = tuple(multiplicities)
    if not e or any(k < 1 for k in e):
        raise ValueError("multiplicities must be positive integers")
    total = 0
    for a in range(len(e)):
        for b in range(a + 1, len(e)):
            total += e[a] * e[b]
    return total


@dataclass
class FittingIdeal:
    gens: list[Polynomial]
    generic_rank: int
    # raw indexed minors: (row_set, col_set) -> (index into gens, scalar factor)
    minor_table: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, Fraction]] = field(
        default_factory=dict
    )


def fitting_minors(system: QuadSystem) -> FittingIdeal:
    """All generic-rank-sized minors, deduplicated up to scalar multiples.

    Generators are kept in canonical normalized form (integer-primitive with
    positive leading coefficient over Q, monic over Q(i)); the minor table
    remembers every nonzero raw minor as scalar * generator so downstream
    wedge-coordinate bookkeeping keeps exact relative scales.
    """
    d = system.generic_rank
    if d < 0:
        d = generic_rank(system)
    if d == 0:
        raise ScalarOperator("all quadratics vanish identically")
    rows = len(system.coeff_matrix)
    cols = len(system.coeff_matrix[0])
    gens: list[Polynomial] = []
    keys: dict[tuple, int] = {}
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, Fraction]] = {}
    for rset in combinations(range(rows), d):
        if any(
            all(system.coeff_matrix[r][c].is_zero() for c in range(cols)) for r in rset
        ):
            continue
        for cset in combinations(range(cols), d):
            minor = bareiss_det(submatrix(system.coeff_matrix, rset, cset))
            if minor.is_zero():
                continue
            normal = _canonical_gen(minor, system.family.fld)
            key = normal.sort_key()
            if key not in keys:
                keys[key] = len(gens)
                gens.append(normal)
            idx = keys[key]
            scale = _leading_ratio(minor, normal)
            table[(rset, cset)] = (idx, scale)
    order = sorted(range(len(gens)), key=lambda k: gens[k].sort_key())
    remap = {old: new for new, old in enumerate(order)}
    gens = [gens[k] for k in order]
    table = {key: (remap[idx], sc) for key, (idx, sc) in table.items()}
    return FittingIdeal(gens, d, table)


def _canonical_gen(p: Polynomial, fld: str) -> Polynomial:
    return primitive_normalize(p) if fld == "rational" else monic(p)


def _leading_ratio(p: Polynomial, base: Polynomial) -> Fraction:
    _, cp = p.leading()
    _, cb = base.leading()
    return cp / cb


def jacobian_rank_at(system: QuadSystem, point: dict, fiber, tol: float = 1e-7) -> int:
    """Rank of [dQ_row/dV_k] at (point, fiber).

    Exact over Q when both the point and the fiber vector are rational;
    otherwise numeric with singular values thresholded at tol * (1 + max).
    """
    fibers = system.fiber_universe.fibers
    at = {**point, **dict(zip(fibers, fiber))}
    polys = [q.as_polynomial() for q in system.quads]
    rows = [[p.derivative(f) for f in fibers] for p in polys]
    if all_exact(point.values()) and all_exact(fiber):
        return scalar_matrix_rank(eval_matrix_rational(rows, at))
    jac = np.array([[d.eval_complex(at).real for d in row] for row in rows])
    if not jac.size:
        return 0
    normal = jac.T @ jac
    sample = eigh_jacobi(normal)
    sv = np.sqrt(np.clip(sample.eigenvalues, 0.0, None))
    cut = tol * (1.0 + (float(sv.max()) if sv.size else 0.0))
    return int(np.sum(sv > cut))


def diagonalizability(matrix: list[list], fld: str = "rational") -> str:
    """Classify a constant matrix: "diagonalizable", "not" or "scalar".

    Decided exactly: a matrix is diagonalizable over C iff the squarefree
    part of its characteristic polynomial annihilates it. The quadratic
    ideal of its eigenspace union is then generated in degree two iff this
    holds, with the scalar case (null ideal) split out first.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    diag = matrix[0][0]
    is_scalar = all(
        matrix[r][c] == (diag if r == c else 0) for r in range(n) for c in range(n)
    )
    if is_scalar:
        return "scalar"
    universe = VarUniverse(("T__",))
    t = Polynomial.variable(universe, "T__")
    grid = [
        [
            (t if r == c else Polynomial.zero(universe))
            - Polynomial.constant(universe, matrix[r][c])
            for c in range(n)
        ]
        for r in range(n)
    ]
    char = bareiss_det(grid)
    squarefree = divexact(char, gcd_multivariate(char, char.derivative("T__")))
    # evaluate the squarefree part at the matrix with exact arithmetic
    coeffs: dict = {}
    for e, c in squarefree.terms.items():
        coeffs[e[0]] = c
    deg = max(coeffs)
    acc = [[Fraction(1) if r == c else Fraction(0) for c in range(n)] for r in range(n)]
    total = [[Fraction(0) for _ in range(n)] for _ in range(n)]
    for k in range(deg + 1):
        c = coeffs.get(k)
        if c:
            for r in range(n):
                for s in range(n):
                    total[r][s] = total[r][s] + c * acc[r][s]
        if k < deg:
            acc = [
                [
                    sum((acc[r][m] * matrix[m][s] for m in range(n)), Fraction(0))
                    for s in range(n)
                ]
                for r in range(n)
            ]
    vanishes = all(not total[r][s] for r in range(n) for s in range(n))
    return "diagonalizable" if vanishes else "not"
