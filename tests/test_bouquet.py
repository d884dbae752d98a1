import gc
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from eigenbouquet import cli
from eigenbouquet.algebra import Polynomial, Scalar, VarUniverse, eval_matrix_rational, parse_polynomial
from eigenbouquet.bouquet import (
    ScalarOperator,
    fitting_minors,
    generic_rank,
    wedge_quadratics,
)
from eigenbouquet.family import MatrixFamily, check_structure
from eigenbouquet.family import split_and_double
from reference import (
    bareiss_det,
    bench_jobs,
    diagonalizability,
    expected_quadratic_dim,
    jacobian_rank_at,
    quadratics,
    rank_at,
    spectral_sample,
    submatrix,
    wedge_quadratics_reference,
)


def kupa():
    return check_structure(
        MatrixFamily.from_strings(
            [["x^2", "x*y"], ["x*y", "y^2"]], ["x", "y"], "symmetric", fibers=["X", "Y"]
        )
    )


def quad_value(quad, point, fiber):
    """Float value of a quadratic at (point, fiber)."""
    at = {**point, **dict(zip(quad.universe.fibers, fiber))}
    return quad.eval_complex(at).real


def diag_family(*entries):
    n = len(entries)
    rows = [[entries[r] if r == c else "0" for c in range(n)] for r in range(n)]
    params = sorted({v for e in entries for v in e if v.isalpha()})
    return check_structure(MatrixFamily.from_strings(rows, params, "symmetric"))


class TestWedgeQuadratics:
    def test_worked_example_single_quad(self):
        system = wedge_quadratics(kupa())
        assert system.row_labels == [(0, 1)]
        u = system.fiber_universe
        got = quadratics(system)[0]
        expected = parse_polynomial("-x*y*X^2 + (x^2 - y^2)*X*Y + x*y*Y^2", u)
        assert got == expected
        # unit multiple of the product of the two line forms
        product = parse_polynomial("(y*Y + x*X)*(y*X - x*Y)", u)
        assert got == -product

    def test_scalar_family_all_zero(self):
        fam = check_structure(
            MatrixFamily.from_strings([["x", "0"], ["0", "x"]], ["x"], "symmetric")
        )
        system = wedge_quadratics(fam)
        assert all(q.is_zero() for q in quadratics(system))

    def test_diag_two(self):
        system = wedge_quadratics(diag_family("x", "y"))
        u = system.fiber_universe
        assert quadratics(system)[0] == parse_polynomial("(x - y)*V1*V2", u)


def random_entry(rng, u, gaussian=False):
    """Up to three terms of degree at most 2 in the parameters x, y; a
    gaussian entry has at least one, each with a nonzero imaginary part."""
    terms = {}
    for _ in range(rng.randint(int(gaussian), 3)):
        e = rng.choice([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]) + (0,) * len(u.fibers)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        terms[e] = Scalar(c, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))) if gaussian else c
    return Polynomial(u, terms)


def random_family(rng, n, structure):
    """A seeded family of the structure: hermitian ones over Q(i); normal ones
    H D H for a rational Householder reflection H and D of 2 x 2 blocks
    [[p, q], [-q, p]] and a 1 x 1 block when n is odd."""
    u = VarUniverse(("x", "y"), tuple(f"V{k + 1}" for k in range(n)))
    zero = Polynomial.zero(u)
    m = [[zero] * n for _ in range(n)]
    if structure == "normal":
        for r in range(0, n - 1, 2):
            m[r][r] = m[r + 1][r + 1] = random_entry(rng, u)
            m[r][r + 1] = random_entry(rng, u)
            m[r + 1][r] = -m[r][r + 1]
        if n % 2:
            m[n - 1][n - 1] = random_entry(rng, u)
        w = [rng.randint(-3, 3) for _ in range(n - 1)] + [1]
        h = [[int(r == c) - Fraction(2 * w[r] * w[c], sum(x * x for x in w)) for c in range(n)] for r in range(n)]
        m = [
            [sum((m[k][l].scale(h[r][k] * h[l][c]) for k in range(n) for l in range(n)), zero) for c in range(n)]
            for r in range(n)
        ]
    for r in range(n):
        if structure in ("symmetric", "hermitian"):
            m[r][r] = random_entry(rng, u)
        for c in range(r + 1, n):
            if structure == "symmetric":
                m[r][c] = m[c][r] = random_entry(rng, u)
            elif structure == "skew":
                m[r][c] = random_entry(rng, u)
                m[c][r] = -m[r][c]
            elif structure == "hermitian":
                m[r][c] = random_entry(rng, u, gaussian=True)
                m[c][r] = Polynomial(u, {e: k.conjugate() for e, k in m[r][c].terms.items()})
    fld = "gaussian" if structure == "hermitian" else "rational"
    return check_structure(MatrixFamily(n, u, m, structure, fld))


def split_halves(job):
    """The symmetric and doubled halves split_and_double gives for a job."""
    fam = cli.build_family(cli.JobConfig.from_dict(job.config))
    split = split_and_double(check_structure(MatrixFamily(fam.n, fam.universe, fam.entries, "normal")))
    return [split.sym, split.doubled]


class TestBuilderDifferential:
    """The one builder against the frozen two: the same coefficient matrix
    entry by entry, the same row labels and fiber universe."""

    @staticmethod
    def assert_same(fam):
        got, want = wedge_quadratics(fam), wedge_quadratics_reference(fam)
        assert got.row_labels == want.row_labels
        assert got.fiber_universe == want.fiber_universe
        assert len(got.coeff_matrix) == len(want.coeff_matrix)
        for got_row, want_row in zip(got.coeff_matrix, want.coeff_matrix):
            assert got_row == want_row

    @pytest.mark.parametrize("structure", ["symmetric", "skew", "normal"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rational(self, structure, n):
        rng = random.Random(f"{structure}{n}")
        for _ in range(4):
            self.assert_same(random_family(rng, n, structure))

    @pytest.mark.parametrize("n", [2, 3])
    def test_gaussian_hermitian(self, n):
        rng = random.Random(n)
        for _ in range(4):
            fam = random_family(rng, n, "hermitian")
            assert any(c.imag for row in fam.entries for p in row for c in p.terms.values())
            self.assert_same(fam)

    @pytest.mark.parametrize("name", ["skew2", "normal_rotation"])
    def test_split_halves(self, name):
        (job,) = [job for job in bench_jobs() if job.name == name]
        for fam in split_halves(job):
            self.assert_same(fam)


class TestGenericRank:
    def test_worked_example(self):
        system = wedge_quadratics(kupa())
        assert generic_rank(system) == 1

    def test_identity_family(self):
        fam = check_structure(
            MatrixFamily.from_strings([["1", "0"], ["0", "1"]], ["x"], "symmetric")
        )
        assert generic_rank(wedge_quadratics(fam)) == 0

    def test_diag_three(self):
        system = wedge_quadratics(diag_family("x", "y", "z"))
        assert generic_rank(system) == 3


class TestExpectedQuadraticDim:
    def test_pairs(self):
        assert expected_quadratic_dim((1, 1)) == 1
        assert expected_quadratic_dim((1, 1, 1)) == 3

    def test_saturates_bound(self):
        for n in range(2, 7):
            assert expected_quadratic_dim((1,) * n) == n * (n - 1) // 2

    def test_rejects_bad_tuple(self):
        with pytest.raises(ValueError):
            expected_quadratic_dim((0, 2))


class TestFittingMinors:
    def test_worked_example(self):
        system = wedge_quadratics(kupa())
        generic_rank(system)
        ideal = fitting_minors(system)
        u = system.fiber_universe
        assert set(ideal.gens) == {
            parse_polynomial("x*y", u),
            parse_polynomial("x^2 - y^2", u),
        }
        # the raw minor table reproduces each nonzero minor as scalar * gen
        mono = system.monomials
        for (rows, cols), (idx, scale) in ideal.minor_table.items():
            assert len(rows) == len(cols) == 1
            raw = system.coeff_matrix[rows[0]][cols[0]]
            assert ideal.gens[idx].scale(scale) == raw

    def test_traceless(self):
        fam = check_structure(
            MatrixFamily.from_strings([["x", "y"], ["y", "-x"]], ["x", "y"], "symmetric")
        )
        system = wedge_quadratics(fam)
        generic_rank(system)
        ideal = fitting_minors(system)
        u = system.fiber_universe
        assert set(ideal.gens) == {
            parse_polynomial("x", u),
            parse_polynomial("y", u),
        }

    def test_diag_two(self):
        system = wedge_quadratics(diag_family("x", "y"))
        generic_rank(system)
        ideal = fitting_minors(system)
        assert ideal.gens == [parse_polynomial("x - y", system.fiber_universe)]

    def test_scalar_short_circuit(self):
        fam = check_structure(
            MatrixFamily.from_strings([["x", "0"], ["0", "x"]], ["x"], "symmetric")
        )
        system = wedge_quadratics(fam)
        generic_rank(system)
        with pytest.raises(ScalarOperator):
            fitting_minors(system)


def brute_force_minors(system):
    """Every nonzero minor of the generic rank, by Bareiss on every row and
    column set."""
    d, matrix = system.generic_rank, system.coeff_matrix
    out = {}
    for rset in combinations(range(len(matrix)), d):
        for cset in combinations(range(len(matrix[0])), d):
            minor = bareiss_det(submatrix(matrix, rset, cset))
            if not minor.is_zero():
                out[rset, cset] = minor
    return out


def assert_all_minors(system, ideal):
    """The minor table holds every nonzero minor, in enumeration order, as a
    multiple of a generator, and the generators are exactly the distinct
    normalized minors."""
    brute = brute_force_minors(system)
    assert list(ideal.minor_table) == list(brute)
    for key, minor in brute.items():
        idx, scale = ideal.minor_table[key]
        assert ideal.gens[idx].scale(scale) == minor
    assert {idx for idx, _ in ideal.minor_table.values()} == set(range(len(ideal.gens)))
    assert len({g.sort_key() for g in ideal.gens}) == len(ideal.gens)


def sparse_family(rng, n, structure):
    pool = ["0", "0", "0", "1", "x", "y", "x*y", "x - y", "2*x + 1", "y^2"]
    entries = [["0"] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            if structure == "symmetric":
                entries[r][c] = entries[c][r] = rng.choice(pool)
            elif r != c:
                entries[r][c] = rng.choice(pool)
                entries[c][r] = "0" if entries[r][c] == "0" else f"-({entries[r][c]})"
    return check_structure(MatrixFamily.from_strings(entries, ["x", "y"], structure))


class TestReachableMinors:
    """Per row set, every column set of the columns its rows reach goes to
    the expansion; the table and generators are those of all row and column
    sets, by brute force."""

    def test_seeded_sparse_families(self):
        rng = random.Random(7)
        checked = 0
        # doubled 2 x 2 skew families give sparse 6 x 10 coefficient matrices,
        # symmetric 3 x 3 ones denser 3 x 6 ones
        for structure in ["skew"] * 4 + ["symmetric"] * 12:
            fam = sparse_family(rng, 2 if structure == "skew" else 3, structure)
            if structure == "skew":
                normal = MatrixFamily(fam.n, fam.universe, fam.entries, "normal")
                fam = split_and_double(check_structure(normal)).doubled
            system = wedge_quadratics(fam)
            if generic_rank(system) == 0:
                continue
            assert_all_minors(system, fitting_minors(system))
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("job", bench_jobs(), ids=lambda job: job.name)
    def test_benchmark_families(self, job):
        bundle = cli.analyze(cli.JobConfig.from_dict(job.config)).bundle
        if bundle.ideal is not None:
            assert_all_minors(bundle.system, bundle.ideal)


SYM5_GENERIC = Path(__file__).resolve().parent / "data" / "sym5_generic.json"
SYM6_GENERIC = Path(__file__).resolve().parent / "data" / "sym6_generic.json"


class TestFittingScale:
    def test_sym5_generic(self):
        """The n = 5 family's ideal in seconds; a seeded sample of its table
        against the reference Bareiss minors."""
        config = json.loads(SYM5_GENERIC.read_text())
        bundle = cli.analyze(cli.JobConfig.from_dict(config)).bundle
        ideal, matrix = bundle.ideal, bundle.system.coeff_matrix
        assert len(ideal.gens) == 1461
        assert len(ideal.minor_table) == 2712
        for rset, cset in random.Random(5).sample(sorted(ideal.minor_table), 30):
            idx, scale = ideal.minor_table[rset, cset]
            assert ideal.gens[idx].scale(scale) == bareiss_det(submatrix(matrix, rset, cset))

    def test_budget_refuses_generic_six_before_any_minor(self, monkeypatch):
        """A generic symmetric 6 x 6 family has 54,264 maximal minors but its
        expansion would store 2,069,255 sub-minors: refused up front, before
        any minor and before its characteristic polynomial."""

        def no_minors(*args):
            raise AssertionError("a minor was computed")

        def no_spectrum(*args):
            raise AssertionError("the spectrum was analyzed")

        monkeypatch.setattr("eigenbouquet.bouquet.laplace_minors", no_minors)
        monkeypatch.setattr(cli, "analyze_spectrum", no_spectrum)
        config = json.loads(SYM6_GENERIC.read_text())
        with pytest.raises(cli.ConfigError, match="2069255 sub-minors"):
            cli.analyze(cli.JobConfig.from_dict(config))

    def test_no_garbage_cycle(self):
        """Nothing the expansion builds waits for the cyclic collector."""
        job = next(job for job in bench_jobs() if job.name == "sym4_generic")
        system = cli.analyze(cli.JobConfig.from_dict(job.config)).bundle.system
        gc.collect()
        gc.disable()
        try:
            fitting_minors(system)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestJacobianRank:
    def test_worked_example_basis_vector(self):
        system = wedge_quadratics(kupa())
        rank = jacobian_rank_at(system, {"x": 1, "y": 0}, [Fraction(1), Fraction(0)])
        assert rank == 1  # n - e with e = 1

    def test_scalar_family_rank_zero(self):
        fam = check_structure(
            MatrixFamily.from_strings([["x", "0"], ["0", "x"]], ["x"], "symmetric")
        )
        system = wedge_quadratics(fam)
        assert jacobian_rank_at(system, {"x": 3}, [1, 1]) == 0

    def test_diagonal_point(self):
        system = wedge_quadratics(kupa())
        rank = jacobian_rank_at(system, {"x": 1, "y": 1}, [Fraction(1), Fraction(1)])
        assert rank == 1

    def test_jacobian_matches_finite_differences(self):
        # independent check of the derivative polynomials the numeric path uses
        system = wedge_quadratics(kupa())
        fibers = system.fiber_universe.fibers
        pt = {"x": 0.7, "y": -0.3}
        rng = np.random.default_rng(3)
        vec = rng.normal(size=2)
        at = {**pt, **dict(zip(fibers, vec))}
        h = 1e-6
        for quad in quadratics(system):
            for k, name in enumerate(fibers):
                grad = quad.derivative(name).eval_complex(at).real
                step = np.zeros(2)
                step[k] = h
                fd = (quad_value(quad, pt, vec + step) - quad_value(quad, pt, vec - step)) / (2 * h)
                assert abs(fd - grad) < 1e-6

    def test_numeric_rank_matches_exact_rank(self):
        system = wedge_quadratics(kupa())
        for pt, fiber in (
            ({"x": 1, "y": 0}, [1, 0]),
            ({"x": 1, "y": 1}, [1, 1]),
            ({"x": Fraction(1, 2), "y": 2}, [Fraction(3), Fraction(-1, 4)]),
        ):
            exact = jacobian_rank_at(system, pt, fiber)
            numeric = jacobian_rank_at(
                system, {k: float(v) for k, v in pt.items()}, [float(v) for v in fiber]
            )
            assert numeric == exact


class TestDiagonalizability:
    def test_nilpotent(self):
        m = [[Scalar(0), Scalar(1)], [Scalar(0), Scalar(0)]]
        assert diagonalizability(m) == "not"

    def test_distinct_diagonal(self):
        m = [[Scalar(2), Scalar(0)], [Scalar(0), Scalar(3)]]
        assert diagonalizability(m) == "diagonalizable"

    def test_scalar(self):
        m = [[Scalar(5), Scalar(0)], [Scalar(0), Scalar(5)]]
        assert diagonalizability(m) == "scalar"

    def test_defective_vs_semisimple_double_eigenvalue(self):
        sem = [[Scalar(2), Scalar(0)], [Scalar(0), Scalar(2)]]
        assert diagonalizability(sem) == "scalar"
        jordan = [[Scalar(2), Scalar(1)], [Scalar(0), Scalar(2)]]
        assert diagonalizability(jordan) == "not"
        rotation = [[Scalar(0), Scalar(1)], [Scalar(-1), Scalar(0)]]
        assert diagonalizability(rotation) == "diagonalizable"


class TestRankInvariants:
    def make_random_symmetric_family(self, rng, n, nparams, deg):
        names = ["x", "y", "z"][:nparams]
        entries = [["0"] * n for _ in range(n)]
        monos = ["1"] + names + [
            f"{a}*{b}" for i, a in enumerate(names) for b in names[i:]
        ]
        monos = [m for m in monos if deg >= (0 if m == "1" else (1 if "*" not in m else 2))]
        for r in range(n):
            for c in range(r, n):
                terms = rng.sample(monos, k=min(len(monos), rng.randint(1, 2)))
                pieces = []
                for t in terms:
                    coeff = rng.randint(-3, 3)
                    sign = "-" if coeff < 0 else ("+" if pieces else "")
                    pieces.append(f"{sign} {abs(coeff)}*{t}".strip())
                entries[r][c] = entries[c][r] = " ".join(pieces)
        return check_structure(
            MatrixFamily.from_strings(entries, names, "symmetric")
        )

    def test_rank_equals_expected_dim_off_locus(self):
        rng = random.Random(7)
        for trial in range(10):
            n = rng.choice([2, 3])
            fam = self.make_random_symmetric_family(rng, n, 2, 2)
            system = wedge_quadratics(fam)
            d = generic_rank(system)
            checked = 0
            for _ in range(10):
                pt = {
                    name: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    for name in fam.universe.params
                }
                r = rank_at(system, pt)
                if r != d:
                    continue  # on the drop locus; covered by the next test
                m = np.array(
                    [[float(c) for c in row] for row in eval_matrix_rational(fam.entries, pt)]
                )
                sample = spectral_sample(m, tol=1e-6)
                if len(sample.clusters) < 2 and d > 0:
                    continue
                assert expected_quadratic_dim(sample.multiplicities) == d if d else True
                checked += 1
            assert checked >= 1 or d == 0

    def test_vanishing_on_eigenvectors(self):
        system = wedge_quadratics(kupa())
        rng = np.random.default_rng(11)
        for _ in range(20):
            pt = {"x": float(rng.uniform(0.2, 1.5)), "y": float(rng.uniform(0.2, 1.5))}
            m = np.array([[pt["x"] ** 2, pt["x"] * pt["y"]], [pt["x"] * pt["y"], pt["y"] ** 2]])
            sample = spectral_sample(m, tol=1e-6)
            for cluster in sample.clusters:
                for k in range(cluster.multiplicity):
                    w = cluster.basis[:, k]
                    for quad in quadratics(system):
                        assert abs(quad_value(quad, pt, w)) <= 1e-10 * (1 + np.linalg.norm(m))
