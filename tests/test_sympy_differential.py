"""Differential tests of the exact layer against sympy, driven by hypothesis.

Seeded (``derandomize=True``) so every run draws the same examples; sympy and
hypothesis are test-only and the module is skipped where they are missing.
"""

from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eigenbouquet.algebra import (  # noqa: E402
    Polynomial,
    Scalar,
    VarUniverse,
    divexact,
    gcd_multivariate,
    laplace_minors,
)
from eigenbouquet.family import MatrixFamily, _det, check_structure, discriminant_ideal  # noqa: E402
from reference import bareiss_det, submatrix  # noqa: E402

SEEDED = settings(derandomize=True, deadline=None, max_examples=30, database=None)

U = VarUniverse(("x", "y"))
X, Y, T = sympy.symbols("x y T")

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussians = st.builds(Scalar, rationals, rationals)


def polynomials(max_deg=2, max_terms=4, coeffs=rationals):
    exps = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return (
        st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms)
        .map(lambda terms: Polynomial(U, terms))
        .filter(lambda p: not p.is_zero())
    )


def to_sympy(value):
    """A Fraction or Scalar as a sympy number."""
    return sympy.Rational(value.real) + sympy.I * sympy.Rational(value.imag)


def poly_to_sympy(p: Polynomial):
    return sympy.Add(
        *(to_sympy(c) * X ** e[0] * Y ** e[1] for e, c in p.terms.items())
    )


def constant_multiple(a, b) -> bool:
    """a = k * b for a nonzero constant k."""
    ratio = sympy.cancel(a / b)
    return ratio.is_number and ratio != 0


OPERATIONS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}
operands = rationals | gaussians | st.integers(-4, 4)


@SEEDED
@given(st.sampled_from(sorted(OPERATIONS)), rationals | gaussians, operands, st.booleans())
def test_gaussian_arithmetic_matches_sympy(name, a, b, swap):
    if swap:
        a, b = b, a
    assume(b != 0 or name != "div")
    got = OPERATIONS[name](a, b)
    want = sympy.expand(OPERATIONS[name](to_sympy(a), to_sympy(b)))
    assert sympy.re(want) == sympy.Rational(got.real)
    assert sympy.im(want) == sympy.Rational(got.imag)
    assert type(got) is (Fraction if not got.imag else Scalar)
    assert to_sympy(got.conjugate()) == sympy.conjugate(want)


@SEEDED
@given(polynomials(), polynomials(), polynomials(max_deg=1, max_terms=3))
def test_gcd_agrees_with_sympy(a, b, common):
    ours = gcd_multivariate(a * common, b * common)
    ref = sympy.gcd(poly_to_sympy(a * common), poly_to_sympy(b * common))
    assert constant_multiple(poly_to_sympy(ours), ref)


@SEEDED
@given(polynomials(coeffs=rationals | gaussians), polynomials(coeffs=rationals | gaussians))
def test_divexact_inverts_multiplication(a, b):
    assert divexact(a * b, b) == a


def square_matrices(sizes, entries):
    def rows(n):
        row = st.lists(entries, min_size=n, max_size=n)
        return st.lists(row, min_size=n, max_size=n)

    return st.integers(*sizes).flatmap(rows)


@SEEDED
@given(square_matrices((1, 3), polynomials(max_deg=1) | st.just(Polynomial.zero(U))))
def test_bareiss_det_agrees_with_sympy(grid):
    ref = sympy.Matrix([[poly_to_sympy(p) for p in row] for row in grid]).det()
    assert sympy.expand(poly_to_sympy(_det(grid)) - ref) == 0


def sparse_matrices(coeffs):
    """m x n matrices, m <= n, m <= 4, n <= 6, many of their entries zero."""
    entry = polynomials(max_deg=1, max_terms=2, coeffs=coeffs) | st.just(Polynomial.zero(U))
    shapes = st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), st.integers(m, 6)))
    return shapes.flatmap(
        lambda mn: st.lists(st.lists(entry, min_size=mn[1], max_size=mn[1]), min_size=mn[0], max_size=mn[0])
    )


@settings(SEEDED, max_examples=20)
@given(sparse_matrices(rationals) | sparse_matrices(rationals | gaussians))
def test_laplace_minors_agree_with_bareiss_and_sympy(grid):
    rows, width = tuple(range(len(grid))), len(grid[0])
    csets = list(combinations(range(width), len(rows)))
    minors = laplace_minors(grid, rows, csets)
    assert set(minors) <= set(csets)
    full = sympy.Matrix([[poly_to_sympy(p) for p in row] for row in grid])
    for cset in csets:
        got = minors.get(cset, Polynomial.zero(U))
        assert got == bareiss_det(submatrix(grid, rows, cset))
        want = full.extract(list(rows), list(cset)).det(method="berkowitz")
        assert sympy.expand(poly_to_sympy(got) - want) == 0


@settings(SEEDED, max_examples=12)
@given(square_matrices((2, 3), polynomials(max_deg=1, max_terms=3)))
def test_discriminant_agrees_with_sympy(grid):
    n = len(grid)
    entries = [[grid[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
    family = check_structure(MatrixFamily(n, U, entries, "symmetric"))
    matrix = sympy.Matrix([[poly_to_sympy(p) for p in row] for row in entries])
    char = sympy.expand((T * sympy.eye(n) - matrix).det())
    ref = sympy.discriminant(char, T)
    assume(ref != 0)  # a squarefree characteristic polynomial
    (ours,) = discriminant_ideal(family)
    assert constant_multiple(poly_to_sympy(ours), ref)
