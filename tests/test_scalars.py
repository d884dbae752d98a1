"""Every real value is a plain Fraction; Scalar holds only non-real Q(i) values."""

from fractions import Fraction

import pytest

from eigenbouquet import cli
from eigenbouquet.algebra import Scalar, VarUniverse, as_scalar, parse_polynomial

SYM3_QUAD = {
    "structure": "symmetric",
    "params": ["x", "y"],
    "matrix": [["x^2", "x*y", "y"], ["x*y", "y^2", "x"], ["y", "x", "x+y"]],
    "resolution": [{"path": [], "center": ["x", "y"]}],
}
HERMITIAN_VORTEX = {
    "field": "gaussian",
    "structure": "hermitian",
    "params": ["x", "y"],
    "matrix": [["0", "x - i*y"], ["x + i*y", "0"]],
    "resolution": [{"path": [], "center": ["x", "y"]}],
}


def resolved(config):
    state = cli.RunState(cli.JobConfig.from_dict(config))
    cli.stage_analyze(state)
    cli.stage_resolve(state)
    return state


def charts(node):
    yield node
    for child in node.children:
        yield from charts(child)


def exact_polynomials(state):
    """Named groups of the polynomials an analyze + resolve run builds."""
    analysis = state.analysis
    summary = analysis.summary
    groups = {
        "entries": [p for row in analysis.family.entries for p in row],
        "char_poly": [summary.char_poly, summary.reduced_char_poly, *summary.disc_gens],
        "quadratic_system": [
            p for b in analysis.bundles for row in b.system.coeff_matrix for p in row
        ],
        "fitting_gens": [g for b in analysis.bundles for g in b.ideal.gens],
        "pulled_minors": [],
        "weak_gens": [],
        "chart_maps": [],
    }
    for node in charts(state.outcome.root):
        groups["pulled_minors"] += node.pulled_minors + [node.local_generator]
        groups["weak_gens"] += node.weak_gens + (node.certificate or [])
        groups["chart_maps"] += list(node.to_base.values())
    return groups


@pytest.mark.parametrize("config", [cli.FIXTURES["kupa"], SYM3_QUAD], ids=["kupa", "sym3_quad"])
def test_rational_runs_hold_only_fractions(config):
    state = resolved(config)
    for group, polys in exact_polynomials(state).items():
        assert polys, group
        kinds = {type(c) for p in polys for c in p.terms.values()}
        assert kinds == {Fraction}, group
    for b in state.analysis.bundles:
        assert all(type(s) is Fraction for _, s in b.ideal.minor_table.values())


def test_gaussian_run_wraps_only_non_real_coefficients():
    state = resolved(HERMITIAN_VORTEX)
    entries = [p for row in state.analysis.family.entries for p in row]
    coeffs = [c for p in entries for c in p.terms.values()]
    assert {type(c) for c in coeffs if c.imag} == {Scalar}
    assert {type(c) for c in coeffs if not c.imag} == {Fraction}
    assert any(type(c) is Scalar for c in coeffs)
    # the quadratic system is rewritten over real fiber coordinates
    groups = exact_polynomials(state)
    for group in ("quadratic_system", "fitting_gens", "weak_gens", "chart_maps"):
        assert {type(c) for p in groups[group] for c in p.terms.values()} == {Fraction}, group


class TestScalar:
    def test_real_parts_collapse_to_fraction(self):
        assert type(Scalar(3, 0)) is Fraction and Scalar(3, 0) == 3
        assert type(Scalar(Fraction(1, 2))) is Fraction
        assert type(Scalar(1, 2)) is Scalar

    def test_rejects_inexact_parts(self):
        with pytest.raises(TypeError):
            Scalar(0.5, 1)
        with pytest.raises(TypeError):
            as_scalar(0.5)

    def test_as_scalar_coerces_ints(self):
        assert type(as_scalar(2)) is Fraction
        z = Scalar(1, 1)
        assert as_scalar(z) is z

    def test_arithmetic_lands_in_q_when_imaginary_part_cancels(self):
        z = Scalar(Fraction(1, 2), 3)
        w = z.conjugate()
        for value in (z + w, z * w, z - Scalar(0, 3), z / z, (z - z.real) * Scalar(0, 1)):
            assert type(value) is Fraction
        assert z * w == Fraction(37, 4)
        assert z - z == 0

    def test_reflected_operators(self):
        z = Scalar(1, 2)
        assert 1 + z == Scalar(2, 2) and Fraction(1, 2) + z == Scalar(Fraction(3, 2), 2)
        assert 1 - z == Scalar(0, -2)
        assert 2 * z == Scalar(2, 4)
        assert 5 / z == Scalar(1, -2)
        assert Fraction(5) / z * z == 5

    def test_never_equal_to_a_real(self):
        z = Scalar(1, 1)
        assert z != 1 and Fraction(1) != z and z != Scalar(1, -1)
        assert bool(z)
        assert hash(z) == hash(Scalar(1, 1))

    def test_complex_and_text(self):
        assert complex(Scalar(Fraction(1, 4), -2)) == complex(0.25, -2.0)
        assert complex(Fraction(3, 4)) == complex(0.75, 0.0)
        assert [str(Scalar(0, 1)), str(Scalar(0, -1)), str(Scalar(0, Fraction(3, 2)))] == [
            "i",
            "-i",
            "3/2*i",
        ]
        assert str(Scalar(1, -2)) == "(1 - 2*i)"

    def test_parser_gives_fraction_for_real_coefficients(self):
        u = VarUniverse(("x", "y"))
        p = parse_polynomial("i*x*i + 3/2*y - (1 + i)*(1 - i)", u)
        assert {type(c) for c in p.terms.values()} == {Fraction}
        assert p == parse_polynomial("-x + 3/2*y - 2", u)
