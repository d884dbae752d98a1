import random
from fractions import Fraction

import numpy as np
import pytest

from eigenbouquet.algebra import eval_matrix_rational, parse_polynomial
from eigenbouquet.family import (
    MatrixFamily,
    StructureViolation,
    analyze_spectrum,
    check_structure,
    coefficient_ideal,
    discriminant_ideal,
    reduced_char_poly,
)
from reference import spectral_sample


def kupa_family():
    return MatrixFamily.from_strings(
        [["x^2", "x*y"], ["x*y", "y^2"]], ["x", "y"], "symmetric", fibers=["X", "Y"]
    )


class TestCheckStructure:
    def test_symmetric_accepted(self):
        fam = check_structure(kupa_family())
        assert fam.verified

    def test_normal_rejected_with_residual(self):
        fam = MatrixFamily.from_strings(
            [["x", "y"], ["0", "x"]], ["x", "y"], "normal"
        )
        with pytest.raises(StructureViolation) as err:
            check_structure(fam)
        assert err.value.position == (0, 0)
        u = fam.universe
        assert err.value.residual == parse_polynomial("y^2", u)

    def test_skew_accepted_any_polynomial(self):
        fam = MatrixFamily.from_strings(
            [["0", "x^2 - 3*y"], ["-x^2 + 3*y", "0"]], ["x", "y"], "skew"
        )
        assert check_structure(fam).verified

    def test_hermitian_gaussian(self):
        fam = MatrixFamily.from_strings(
            [["x", "i*y"], ["-i*y", "x"]], ["x", "y"], "hermitian", fld="gaussian"
        )
        assert check_structure(fam).verified

    def test_hermitian_violation(self):
        fam = MatrixFamily.from_strings(
            [["x", "i*y"], ["i*y", "x"]], ["x", "y"], "hermitian", fld="gaussian"
        )
        with pytest.raises(StructureViolation):
            check_structure(fam)


class TestReducedCharPoly:
    def test_worked_example(self):
        fam = check_structure(kupa_family())
        char, reduced, s_count, aux = reduced_char_poly(fam)
        u = char.universe
        expected = parse_polynomial(f"{aux}^2 - (x^2 + y^2)*{aux}", u)
        assert char == expected
        assert reduced == expected
        assert s_count == 2

    def test_scalar_multiple_identity(self):
        fam = check_structure(
            MatrixFamily.from_strings([["x", "0"], ["0", "x"]], ["x"], "symmetric")
        )
        char, reduced, s_count, aux = reduced_char_poly(fam)
        u = char.universe
        assert char == parse_polynomial(f"({aux} - x)^2", u)
        assert reduced == parse_polynomial(f"{aux} - x", u)
        assert s_count == 1

    def test_diag_three(self):
        fam = check_structure(
            MatrixFamily.from_strings(
                [["x", "0", "0"], ["0", "y", "0"], ["0", "0", "z"]],
                ["x", "y", "z"],
                "symmetric",
            )
        )
        char, reduced, s_count, _ = reduced_char_poly(fam)
        assert reduced == char
        assert s_count == 3


class TestDiscriminantIdeal:
    def test_worked_example(self):
        fam = check_structure(kupa_family())
        gens = discriminant_ideal(fam)
        u = fam.universe
        assert gens == [parse_polynomial("x^4 + 2*x^2*y^2 + y^4", u)]

    def test_traceless_symmetric(self):
        fam = check_structure(
            MatrixFamily.from_strings([["x", "y"], ["y", "-x"]], ["x", "y"], "symmetric")
        )
        gens = discriminant_ideal(fam)
        u = fam.universe
        # 4(x^2+y^2) up to the primitive normalization
        assert gens == [parse_polynomial("x^2 + y^2", u)]

    def test_scalar_family_empty(self):
        fam = check_structure(
            MatrixFamily.from_strings([["x", "0"], ["0", "x"]], ["x"], "symmetric")
        )
        assert discriminant_ideal(fam) == []


class TestCoefficientIdeal:
    def test_worked_example(self):
        fam = kupa_family()
        gens = coefficient_ideal(fam)
        u = fam.universe
        expected = {
            parse_polynomial("x^2", u),
            parse_polynomial("x*y", u),
            parse_polynomial("y^2", u),
        }
        assert set(gens) == expected

    def test_identity_family(self):
        fam = MatrixFamily.from_strings([["1", "0"], ["0", "1"]], ["x"], "symmetric")
        gens = coefficient_ideal(fam)
        assert gens == [parse_polynomial("1", fam.universe)]

    def test_zero_family(self):
        fam = MatrixFamily.from_strings([["0", "0"], ["0", "0"]], ["x"], "symmetric")
        assert coefficient_ideal(fam) == []


class TestSpectralInvariants:
    def test_cluster_count_off_discriminant(self):
        fam = check_structure(kupa_family())
        summary = analyze_spectrum(fam)
        rng = random.Random(42)
        hits = 0
        for _ in range(100):
            pt = {
                "x": Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
                "y": Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
            }
            if any(not g.eval_scalar(pt) for g in summary.disc_gens):
                # discriminant generator vanishes: skip (stay off the locus)
                if all(not g.eval_scalar(pt) for g in summary.disc_gens):
                    continue
            m = np.array(
                [[float(c) for c in row] for row in eval_matrix_rational(fam.entries, pt)]
            )
            sample = spectral_sample(m, tol=1e-6)
            assert len(sample.clusters) == summary.generic_distinct_eigenvalues
            hits += 1
        assert hits >= 90

    def test_fewer_clusters_on_discriminant(self):
        fam = check_structure(kupa_family())
        summary = analyze_spectrum(fam)
        pt = {"x": 0, "y": 0}
        assert all(not g.eval_scalar(pt) for g in summary.disc_gens)
        sample = spectral_sample(np.zeros((2, 2)), tol=1e-6)
        assert len(sample.clusters) < summary.generic_distinct_eigenvalues

    def test_reduced_poly_nonzero_discriminant(self):
        fam = check_structure(kupa_family())
        summary = analyze_spectrum(fam)
        assert summary.generic_distinct_eigenvalues >= 2
        assert summary.disc_gens and not summary.disc_gens[0].is_zero()

    @pytest.mark.parametrize(
        "rows",
        [
            [["x^2", "x*y"], ["x*y", "y^2"]],
            [["x", "y"], ["y", "-x"]],
            [["x", "0"], ["0", "y"]],
        ],
    )
    def test_disc_and_fitting_zero_sets_agree_on_grid(self, rows):
        from eigenbouquet.bouquet import fitting_minors, generic_rank, wedge_quadratics

        fam = check_structure(
            MatrixFamily.from_strings(rows, ["x", "y"], "symmetric")
        )
        summary = analyze_spectrum(fam)
        system = wedge_quadratics(fam)
        generic_rank(system)
        fitting = fitting_minors(system).gens
        step = Fraction(1, 20)
        for i in range(41):
            for j in range(41):
                pt = {"x": -1 + i * step, "y": -1 + j * step}
                disc_zero = all(not g.eval_scalar(pt) for g in summary.disc_gens)
                fit_zero = all(not g.eval_scalar(pt) for g in fitting)
                assert disc_zero == fit_zero, pt

    def test_coefficient_zero_locus_inside_discriminant(self):
        # V_L (all entries vanish) sits inside D_L when s >= 2
        fam = check_structure(kupa_family())
        summary = analyze_spectrum(fam)
        assert summary.generic_distinct_eigenvalues >= 2
        rng = random.Random(77)
        found = 0
        for _ in range(500):
            pt = {
                "x": Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                "y": Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            }
            if all(not g.eval_scalar(pt) for g in summary.coeff_ideal_gens):
                found += 1
                assert all(not g.eval_scalar(pt) for g in summary.disc_gens)
        pt = {"x": 0, "y": 0}
        assert all(not g.eval_scalar(pt) for g in summary.coeff_ideal_gens)
        assert all(not g.eval_scalar(pt) for g in summary.disc_gens)
