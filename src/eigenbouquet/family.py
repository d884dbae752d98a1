"""Polynomial matrix families: structure checks and spectral data.

A MatrixFamily is an n x n grid of parameter polynomials with a declared
structure tag, verified as exact polynomial identities when the family is
built. The spectral summary carries the characteristic
polynomial, its squarefree part over the parameter function field, the
generic count of distinct eigenvalues, the discriminant ideal and the ideal
of matrix coefficients. A rational normal or skew family splits exactly
into its symmetric and skew halves and the symmetric doubling of the skew
half; ``realnormal`` reads the halves' eigenstructure on float grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    Polynomial,
    VarUniverse,
    divexact,
    gcd_multivariate,
    laplace_minors,
    parse_polynomial,
    primitive_normalize,
)

STRUCTURES = ("symmetric", "hermitian", "skew", "normal")
FIELDS = ("rational", "gaussian")


class StructureViolation(ValueError):
    def __init__(self, structure: str, position: tuple[int, int], residual: Polynomial):
        super().__init__(
            f"structure {structure!r} violated at entry {position}: residual {residual}"
        )
        self.position = position
        self.residual = residual


@dataclass
class MatrixFamily:
    n: int
    universe: VarUniverse
    entries: list[list[Polynomial]]
    structure: str
    fld: str = "rational"

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.fld not in FIELDS:
            raise ValueError(f"unknown field {self.fld!r}")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entry grid must be n x n")
        for row in self.entries:
            for p in row:
                bad = p.support_vars() & set(self.universe.fibers)
                if bad:
                    raise ValueError(f"matrix entry uses fiber variables {sorted(bad)}")
        if self.fld == "rational":
            for row in self.entries:
                for p in row:
                    if p != p.conjugate():
                        raise ValueError("rational-field family has complex coefficients")
        check_structure(self)

    @classmethod
    def from_strings(
        cls,
        rows: list[list[str]],
        params: list[str],
        structure: str,
        fld: str = "rational",
        fibers: list[str] | None = None,
    ) -> "MatrixFamily":
        n = len(rows)
        if fibers is None:
            fibers = default_fiber_names(n)
        universe = VarUniverse(tuple(params), tuple(fibers))
        entries = [[parse_polynomial(text, universe) for text in row] for row in rows]
        return cls(n, universe, entries, structure, fld)

    def entry_conj(self, r: int, c: int) -> Polynomial:
        return self.entries[r][c].conjugate()


def default_fiber_names(n: int) -> list[str]:
    return [f"V{k + 1}" for k in range(n)]


def check_structure(family: MatrixFamily) -> MatrixFamily:
    """Verify the declared structure as exact polynomial identities."""
    n = family.n
    entries = family.entries

    def fail(pos, residual):
        raise StructureViolation(family.structure, pos, residual)

    if family.structure == "symmetric":
        for r in range(n):
            for c in range(r + 1, n):
                residual = entries[r][c] - entries[c][r]
                if not residual.is_zero():
                    fail((r, c), residual)
    elif family.structure == "skew":
        for r in range(n):
            for c in range(r, n):
                residual = entries[r][c] + entries[c][r]
                if not residual.is_zero():
                    fail((r, c), residual)
    elif family.structure == "hermitian":
        # over the rational field this degenerates to the symmetric identity
        for r in range(n):
            for c in range(r, n):
                residual = entries[r][c] - family.entry_conj(c, r)
                if not residual.is_zero():
                    fail((r, c), residual)
    elif family.structure == "normal":
        adj = [[family.entry_conj(c, r) for c in range(n)] for r in range(n)]
        for r in range(n):
            for c in range(n):
                left = sum(
                    (entries[r][k] * adj[k][c] for k in range(n)),
                    Polynomial.zero(family.universe),
                )
                right = sum(
                    (adj[r][k] * entries[k][c] for k in range(n)),
                    Polynomial.zero(family.universe),
                )
                residual = left - right
                if not residual.is_zero():
                    fail((r, c), residual)
    return family


@dataclass
class SplitFamily:
    original: MatrixFamily
    sym: MatrixFamily  # (L + L^T) / 2
    skew: MatrixFamily  # (L - L^T) / 2
    doubled: MatrixFamily  # symmetric 2n x 2n block matrix [[0, -B], [B, 0]]


def split_and_double(family: MatrixFamily) -> SplitFamily:
    """Exact halves A, B and the symmetric doubling of B, of a rational
    normal or skew family."""
    if family.structure not in {"normal", "skew"} or family.fld != "rational":
        raise ValueError("splitting applies to real normal families")
    n = family.n
    universe = family.universe
    half = Fraction(1, 2)
    sym_entries = [
        [(family.entries[r][c] + family.entries[c][r]).scale(half) for c in range(n)]
        for r in range(n)
    ]
    skew_entries = [
        [(family.entries[r][c] - family.entries[c][r]).scale(half) for c in range(n)]
        for r in range(n)
    ]
    doubled_universe = universe.derived_fibers("a", "b")
    zero = Polynomial.zero(doubled_universe)
    doubled_entries = [[zero for _ in range(2 * n)] for _ in range(2 * n)]
    for r in range(n):
        for c in range(n):
            doubled_entries[r][n + c] = (-skew_entries[r][c]).in_universe(doubled_universe)
            doubled_entries[n + r][c] = skew_entries[r][c].in_universe(doubled_universe)
    sym = MatrixFamily(n, universe, sym_entries, "symmetric")
    skew = MatrixFamily(n, universe, skew_entries, "skew")
    doubled = MatrixFamily(2 * n, doubled_universe, doubled_entries, "symmetric")
    return SplitFamily(family, sym, skew, doubled)


@dataclass
class SpectralSummary:
    char_poly: Polynomial
    reduced_char_poly: Polynomial
    generic_distinct_eigenvalues: int  # generic count of distinct eigenvalues
    disc_gens: list[Polynomial] = field(default_factory=list)
    coeff_ideal_gens: list[Polynomial] = field(default_factory=list)


def _char_universe(family: MatrixFamily) -> tuple[VarUniverse, str]:
    aux = family.universe.fresh_param_name("T")
    return family.universe.with_extra_param(aux), aux


def reduced_char_poly(family: MatrixFamily) -> tuple[Polynomial, Polynomial, int, str]:
    """det(T*Id - M) fraction-free, its squarefree part, and the degree.

    The characteristic polynomial is monic in the auxiliary variable, so the
    gcd with its derivative has scalar leading coefficient in that variable
    and exact division lands back in the polynomial ring. The squarefree
    part is normalized monic in the auxiliary variable.
    """
    universe, aux = _char_universe(family)
    t = Polynomial.variable(universe, aux)
    n = family.n
    grid = [
        [
            (t if r == c else Polynomial.zero(universe)) - family.entries[r][c].in_universe(universe)
            for c in range(n)
        ]
        for r in range(n)
    ]
    char = _det(grid)
    deriv = char.derivative(aux)
    g = gcd_multivariate(char, deriv)
    reduced = divexact(char, g)
    # scalar leading coefficient in the auxiliary variable; make it monic there
    top = reduced.degree_in(aux)
    lead = reduced.coeffs_in(universe.index(aux))[top]
    if not lead.is_constant():
        raise AssertionError("squarefree part has non-scalar leading coefficient")
    reduced = reduced.scale(1 / lead.constant_value())
    return char, reduced, top, aux


def _det(grid: list[list[Polynomial]]) -> Polynomial:
    cols = tuple(range(len(grid)))
    return laplace_minors(grid, cols, [cols]).get(cols, Polynomial.zero(grid[0][0].universe))


def _sylvester_resultant(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Resultant with respect to var via the Sylvester matrix determinant."""
    universe = p.universe
    idx = universe.index(var)
    dp, dq = p.degree_in(var), q.degree_in(var)
    if dp < 0 or dq < 0:
        raise ValueError("resultant of a zero polynomial")
    pc, qc = p.coeffs_in(idx), q.coeffs_in(idx)  # degree -> coefficient of var^degree
    size = dp + dq
    grid = [[Polynomial.zero(universe) for _ in range(size)] for _ in range(size)]
    for r in range(dq):
        for k, c in pc.items():
            grid[r][r + dp - k] = c
    for r in range(dp):
        for k, c in qc.items():
            grid[dq + r][r + dq - k] = c
    return _det(grid)


def discriminant_ideal(family: MatrixFamily, summary_parts=None) -> list[Polynomial]:
    """Generators of the locus where distinct-eigenvalue count drops.

    Realized as the discriminant of the squarefree characteristic
    polynomial: (-1)^(s(s-1)/2) Res(h, dh/dT), normalized primitive.
    A generically-scalar family has an empty discriminant by convention.
    """
    char, reduced, s_count, aux = summary_parts or reduced_char_poly(family)
    if s_count <= 1:
        return []
    universe = reduced.universe
    res = _sylvester_resultant(reduced, reduced.derivative(aux), aux)
    sign = -1 if (s_count * (s_count - 1) // 2) % 2 else 1
    disc = res if sign > 0 else -res
    disc = primitive_normalize(disc.in_universe(family.universe))
    return [disc]


def coefficient_ideal(family: MatrixFamily) -> list[Polynomial]:
    """Distinct nonzero entry polynomials, canonically normalized."""
    seen = {}
    for row in family.entries:
        for p in row:
            if p.is_zero():
                continue
            q = primitive_normalize(p)
            seen[tuple(q.sort_key())] = q
    return [seen[k] for k in sorted(seen)]


def analyze_spectrum(family: MatrixFamily) -> SpectralSummary:
    parts = reduced_char_poly(family)
    char, reduced, s_count, aux = parts
    return SpectralSummary(
        char_poly=char,
        reduced_char_poly=reduced,
        generic_distinct_eigenvalues=s_count,
        disc_gens=discriminant_ideal(family, parts),
        coeff_ideal_gens=coefficient_ideal(family),
    )
