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
from .family import MatrixFamily, check_structure


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


def _real_doubled_universe(universe: VarUniverse) -> VarUniverse:
    fibers = universe.fibers
    doubled = tuple(f"{f}_re" for f in fibers) + tuple(f"{f}_im" for f in fibers)
    return VarUniverse(universe.params, doubled, universe.exceptional)


def wedge_quadratics(family: MatrixFamily) -> QuadSystem:
    """Expand (Mv)_i v_j - (Mv)_j v_i into the fiber monomial basis.

    Each quadratic is formed as one polynomial in parameters and fibers,
    v_k = V_k_re + i*V_k_im for a gaussian family, and read off by fiber
    monomial: one coefficient-matrix row, or its real then imaginary part.
    The coefficient of V_a V_b in a quadratic form is its second derivative
    in V_a and V_b, halved when a = b.
    """
    if not family.verified:
        check_structure(family)
    n = family.n
    gaussian = family.fld == "gaussian"
    target = _real_doubled_universe(family.universe) if gaussian else family.universe
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

    Only row and column sets with a perfect matching in the nonzero support
    are computed: any other minor is identically zero.

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
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, Fraction]] = {}
    for rset in combinations(range(rows), d):
        if not all(support[r] for r in rset):
            continue
        # only reachable columns can be matched; sorted, the column sets come
        # in the order combinations(range(cols), d) gives them
        reach = sorted(set().union(*(support[r] for r in rset)))
        # a column set without a matching has a zero factor in every term
        csets = [c for c in combinations(reach, d) if _perfect_matching(rset, set(c), support)]
        minors = laplace_minors(system.coeff_matrix, rset, csets)
        for cset in csets:
            minor = minors.get(cset)
            if minor is None:
                continue
            normal = _canonical_gen(minor, system.family.fld)
            if normal not in keys:  # canonical forms: equal exactly when their sort keys are
                keys[normal] = len(gens)
                gens.append(normal)
            table[(rset, cset)] = (keys[normal], _leading_ratio(minor, normal))
    order = sorted(range(len(gens)), key=lambda k: gens[k].sort_key())
    remap = {old: new for new, old in enumerate(order)}
    gens = [gens[k] for k in order]
    table = {key: (remap[idx], sc) for key, (idx, sc) in table.items()}
    return FittingIdeal(gens, d, table)


def _perfect_matching(rset, cset: set[int], support: list[set[int]]) -> bool:
    """Whether the rows of rset pair off with the columns of cset inside the
    nonzero support (Kuhn's augmenting paths); if not, the minor vanishes."""
    owner: dict[int, int] = {}  # column -> row
    return all(_augment(r, set(), owner, cset, support) for r in rset)


def _augment(r: int, seen: set[int], owner: dict[int, int], cset: set[int], support) -> bool:
    """Match row r, re-matching owners along an augmenting path (a plain
    function: a nested one calling itself would be a reference cycle)."""
    for c in sorted(support[r] & cset):
        if c not in seen:
            seen.add(c)
            if c not in owner or _augment(owner[c], seen, owner, cset, support):
                owner[c] = r
                return True
    return False


def _canonical_gen(p: Polynomial, fld: str) -> Polynomial:
    return primitive_normalize(p) if fld == "rational" else monic(p)


def _leading_ratio(p: Polynomial, base: Polynomial) -> Fraction:
    _, cp = p.leading()
    _, cb = base.leading()
    return cp / cb
