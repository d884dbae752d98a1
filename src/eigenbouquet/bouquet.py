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

from .algebra import (
    Polynomial,
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
class QuadForm:
    """A quadratic in the fiber variables with parameter-polynomial coefficients."""

    universe: VarUniverse
    coeffs: dict[tuple[int, int], Polynomial]


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
    keys: dict[tuple, int] = {}
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
