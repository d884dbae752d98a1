"""The quadratic system cutting out the union of eigenspaces.

For a verified family M the quadratics

    Q[i,j](v) = (M v)_i v_j - (M v)_j v_i,   i < j,

vanish exactly on the union of the eigenspaces of M at each parameter
point. Expanded in the fiber monomial basis V_a V_b (a <= b, row-major)
they form a coefficient matrix of parameter polynomials whose generic rank
and maximal-minor ideal drive the whole resolution pipeline.

One builder serves both fields. It forms each Q[i,j] as a polynomial in
parameters and fibers and reads one coefficient-matrix row off it per fiber
monomial. A complex (gaussian) family takes the fiber v = x + i*y over 2n
real coordinates V_k_re, V_k_im; the real and imaginary parts of each
quadratic give two rows, so the exact layer stays over Q. The coefficient
matrix, with its row labels, is the system's one stored form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .algebra import (
    Polynomial,
    Scalar,
    VarUniverse,
    bareiss_rank,
    laplace_minors,
    monic,
    primitive_normalize,
)
from .family import MatrixFamily


class ScalarOperator(Exception):
    """Signals that the family is a multiple of the identity (no quadratics)."""


def quad_monomials(n: int) -> list[tuple[int, int]]:
    """Index pairs of the fiber monomial basis: V1^2, V1V2, ..., V2^2, ..."""
    return [(a, b) for a in range(n) for b in range(a, n)]


def quad_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass
class QuadSystem:
    family: MatrixFamily
    fiber_universe: VarUniverse  # fiber coordinates the quadratics live over
    row_labels: list[tuple]  # ("re"|"im", i, j) for gaussian, (i, j) otherwise
    coeff_matrix: list[list[Polynomial]]  # rows by row_labels, columns by monomials
    generic_rank: int = -1

    @property
    def fiber_dim(self) -> int:
        return len(self.fiber_universe.fibers)

    @property
    def monomials(self) -> list[tuple[int, int]]:
        return quad_monomials(self.fiber_dim)


def wedge_quadratics(family: MatrixFamily) -> QuadSystem:
    """Expand (Mv)_i v_j - (Mv)_j v_i into the fiber monomial basis.

    Each quadratic is formed as one polynomial in parameters and fibers,
    v_k = V_k_re + i*V_k_im for a gaussian family, and read off by fiber
    monomial: one coefficient-matrix row, or its real then imaginary part.
    The coefficient of V_a V_b in a quadratic form is its second derivative
    in V_a and V_b, halved when a = b.
    """
    n = family.n
    gaussian = family.fld == "gaussian"
    target = family.universe.derived_fibers("_re", "_im") if gaussian else family.universe
    fibers, half = target.fibers, Fraction(1, 2)
    v = [Polynomial.variable(target, f) for f in fibers]
    if gaussian:
        v = [x + y.scale(Scalar(0, 1)) for x, y in zip(v[:n], v[n:])]
    zero = Polynomial.zero(target)
    mv = [sum((family.entries[r][k].in_universe(target) * v[k] for k in range(n)), zero) for r in range(n)]
    labels: list[tuple] = []
    matrix: list[list[Polynomial]] = []
    for i, j in quad_pairs(n):
        q = mv[i] * v[j] - mv[j] * v[i]
        parts = {(i, j): q}
        if gaussian:  # the real part (q + conj q) / 2, the imaginary part (q - conj q) / 2i
            parts = {
                ("re", i, j): (q + q.conjugate()).scale(half),
                ("im", i, j): (q - q.conjugate()).scale(Scalar(0, -half)),
            }
        for label, part in parts.items():
            labels.append(label)
            matrix.append([
                part.derivative(fibers[a]).derivative(fibers[b]).scale(half if a == b else 1)
                for a, b in quad_monomials(len(fibers))
            ])
    return QuadSystem(family, target, labels, matrix)


def generic_rank(system: QuadSystem, seed: int = 20240601) -> int:
    """Generic rank of the coefficient matrix over the parameter function field."""
    if all(all(p.is_zero() for p in row) for row in system.coeff_matrix):
        system.generic_rank = 0
        return 0
    system.generic_rank = bareiss_rank(system.coeff_matrix, seed=seed)
    return system.generic_rank


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

    Per row set, every column set of the columns its rows reach is handed
    to the Laplace expansion. The expansion's top-down pass keeps only the
    sub-minors a nonzero entry leads to, so a column set whose rows cannot
    pair off with its columns inside the nonzero support costs no product
    and gives no minor.

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
    support = [
        {c for c in range(cols) if not system.coeff_matrix[r][c].is_zero()} for r in range(rows)
    ]
    gens: list[Polynomial] = []
    keys: dict[Polynomial, int] = {}
    scaled: dict[Polynomial, tuple[int, Fraction]] = {}  # raw minor -> its table entry
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, Fraction]] = {}
    for rset in combinations(range(rows), d):
        if not all(support[r] for r in rset):
            continue
        # a column no row reaches gives a zero minor
        reach = sorted(set().union(*(support[r] for r in rset)))
        minors = laplace_minors(system.coeff_matrix, rset, combinations(reach, d))
        for cset, minor in sorted(minors.items()):  # as combinations(range(cols), d) orders them
            if minor not in scaled:  # the same minor recurs under many row and column sets
                normal = _canonical_gen(minor, system.family.fld)
                if normal not in keys:  # canonical forms: equal exactly when their sort keys are
                    keys[normal] = len(gens)
                    gens.append(normal)
                scaled[minor] = (keys[normal], _leading_ratio(minor, normal))
            table[(rset, cset)] = scaled[minor]
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
