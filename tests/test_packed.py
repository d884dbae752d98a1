"""The packed polynomial layer against its frozen predecessor.

Every public method of ``Polynomial`` (integer numerators on packed
monomials) is compared with ``PolynomialReference`` (exponent tuples mapped
to Fractions, ``tests/reference.py``) on seeded random polynomials over Q
and Q(i) in one to four variables: term for term, in dict order, with the
coefficients' types (``exact_terms``), and float evaluation bit for bit. The
gcd, exact division, Laplace minors and Buchberger run are compared with
their references on the same inputs. The exponent bound gets its own exit
path, tested at the boundary both ways.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from eigenbouquet import cli
from eigenbouquet.algebra import (
    ExponentOverflow,
    NotDivisible,
    Polynomial,
    Scalar,
    VarUniverse,
    divexact,
    gcd_multivariate,
    ideal_contains_one,
    laplace_minors,
    monic,
    parse_polynomial,
    primitive_normalize,
)
from eigenbouquet.algebra.poly import EXP_BITS
from reference import (
    PolynomialReference,
    divexact_reference,
    exact_terms,
    gcd_multivariate_reference,
    ideal_contains_one_reference,
    laplace_minors_reference,
    membership_terms,
    monic_reference,
    primitive_normalize_reference,
)

UNIVERSES = [
    VarUniverse(("x",)),
    VarUniverse(("x", "y")),
    VarUniverse(("x", "y"), ("X",)),
    VarUniverse(("x", "y", "z"), ("X",)),
]
CASES = [(u, gaussian) for u in UNIVERSES for gaussian in (False, True)]
IDS = [f"{u.nvars}vars-{'gaussian' if g else 'rational'}" for u, g in CASES]


def rand_coeff(rng, gaussian):
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if gaussian and rng.random() < 0.6 else 0
    return Scalar(re, im)


def rand_terms(rng, universe, gaussian, max_deg=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * universe.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(universe.nvars)] += 1
        terms[tuple(exps)] = rand_coeff(rng, gaussian)
    return terms


def small(rng, universe, gaussian, max_terms):
    """A random polynomial of degree at most 2 for the kernels' inputs."""
    return Polynomial(universe, rand_terms(rng, universe, gaussian, max_deg=2, max_terms=max_terms))


def pair(rng, universe, gaussian, **kwargs):
    """The same random polynomial in both classes."""
    terms = rand_terms(rng, universe, gaussian, **kwargs)
    return Polynomial(universe, terms), PolynomialReference(universe, terms)


def same(ours, ref):
    assert exact_terms(ours) == exact_terms(ref)


def same_value(ours, ref):
    assert (type(ours), ours) == (type(ref), ref)


def outcome(fn, *args):
    """exact_terms of the result, or the NotDivisible message."""
    try:
        return exact_terms(fn(*args))
    except NotDivisible as err:
        return ("NotDivisible", str(err))


@pytest.mark.parametrize("universe, gaussian", CASES, ids=IDS)
class TestMethodsMatchReference:
    def test_ring_operations(self, universe, gaussian):
        rng = random.Random(100 + universe.nvars + 10 * gaussian)
        for _ in range(30):
            (a, ra), (b, rb) = pair(rng, universe, gaussian), pair(rng, universe, gaussian)
            same(a, ra)
            for ours, ref in [(a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra)]:
                same(ours, ref)
            same(a - a, ra - ra)
            for k in range(4):
                same(a ** k, ra ** k)
            for c in (3, Fraction(-5, 6), rand_coeff(rng, gaussian), 0):
                same(a.scale(c), ra.scale(c))
            assert (a == b) == (ra == rb) and a == Polynomial(universe, dict(ra.terms))

    def test_structure(self, universe, gaussian):
        rng = random.Random(200 + universe.nvars + 10 * gaussian)
        for _ in range(30):
            a, ra = pair(rng, universe, gaussian)
            if a:
                assert a.leading()[0] == ra.leading()[0]
                same_value(a.leading()[1], ra.leading()[1])
            assert a.sort_key() == ra.sort_key()
            assert a.to_string() == ra.to_string()
            assert (a.total_degree(), a.support_vars()) == (ra.total_degree(), ra.support_vars())
            assert (a.is_zero(), a.is_constant()) == (ra.is_zero(), ra.is_constant())
            if a.is_constant():
                same_value(a.constant_value(), ra.constant_value())
            for idx, name in enumerate(universe.names):
                assert a.degree_in(name) == ra.degree_in(name)
                same(a.derivative(name), ra.derivative(name))
                ours, ref = a.coeffs_in(idx), ra.coeffs_in(idx)
                assert [(d, exact_terms(c)) for d, c in ours.items()] == [
                    (d, exact_terms(c)) for d, c in ref.items()
                ]
            same(primitive_normalize(a), primitive_normalize_reference(ra))
            same(monic(a), monic_reference(ra))

    def test_transport_and_substitution(self, universe, gaussian):
        rng = random.Random(300 + universe.nvars + 10 * gaussian)
        wider = VarUniverse(("s",) + universe.params, universe.fibers)
        for _ in range(20):
            a, ra = pair(rng, universe, gaussian)
            same(a.in_universe(wider), ra.in_universe(wider))
            names = [n for n in universe.names if rng.random() < 0.7]
            terms = {n: rand_terms(rng, universe, gaussian, max_deg=2, max_terms=3) for n in names}
            same(
                a.substitute({n: Polynomial(universe, t) for n, t in terms.items()}),
                ra.substitute({n: PolynomialReference(universe, t) for n, t in terms.items()}),
            )
            # a chart-like map into a wider universe: the rest carried by name
            image = rand_terms(rng, wider, gaussian, max_deg=2, max_terms=3)
            first = universe.names[0]
            same(
                a.substitute({first: Polynomial(wider, image)}, wider),
                ra.substitute({first: PolynomialReference(wider, image)}, wider),
            )

    def test_evaluation(self, universe, gaussian):
        rng = random.Random(400 + universe.nvars + 10 * gaussian)
        names = universe.names
        for _ in range(30):
            a, ra = pair(rng, universe, gaussian, max_deg=5)
            point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in names}
            same_value(a.eval_scalar(point), ra.eval_scalar(point))
            gaussian_point = {n: Scalar(rng.randint(-3, 3), rng.randint(1, 3)) for n in names}
            same_value(a.eval_scalar(gaussian_point), ra.eval_scalar(gaussian_point))
            floats = {n: rng.uniform(-3, 3) for n in names}
            assert repr(a.eval_complex(floats)) == repr(ra.eval_complex(floats))
            arrays = {n: np.array([rng.uniform(-3, 3) for _ in range(6)]) for n in names}
            assert a.eval_complex(arrays).tobytes() == ra.eval_complex(arrays).tobytes()
            den = rng.choice((1, 6, 840))
            numerators = {n: [rng.randint(-2 * den, 2 * den) for _ in range(5)] for n in names}
            (values, scale), (ref_values, ref_scale) = (
                a.eval_integer(numerators, den, 5),
                ra.eval_integer({n: np.array(col, dtype=object) for n, col in numerators.items()}, den, 5),
            )
            assert scale == ref_scale
            # ints, and Gaussian integers where not real: the reference gives an
            # integral Fraction where the imaginary parts of a sum cancel
            assert [(type(v), v) for v in values] == [
                (type(v), v) for v in (r if r.imag else int(r) for r in ref_values)
            ]


@pytest.mark.parametrize("universe, gaussian", CASES, ids=IDS)
class TestKernelsMatchReference:
    def test_divexact_and_gcd(self, universe, gaussian):
        rng = random.Random(500 + universe.nvars + 10 * gaussian)
        for _ in range(15):
            a, b, m = (small(rng, universe, gaussian, 3) for _ in range(3))
            if a.is_zero() or b.is_zero() or m.is_zero():
                continue
            for f, g in [(a * m, m), (a * m, a), (a * b + m, b), (m, a * m)]:
                assert outcome(divexact, f, g) == outcome(divexact_reference, f, g)
            am, bm = a * m, b * m
            assert outcome(gcd_multivariate, am, bm) == outcome(gcd_multivariate_reference, am, bm)
        # (x^2 + x + 1)(x^2 + 2x - 2): the first step cancels the remainder's
        # x^2 term, the second brings it back
        x, one = Polynomial.variable(universe, "x"), Polynomial.constant(universe, 1)
        f, g = (x * x + x + one) * (x * x + x.scale(2) - one.scale(2)), x * x + x + one
        assert outcome(divexact, f, g) == outcome(divexact_reference, f, g)

    def test_laplace_minors(self, universe, gaussian):
        rng = random.Random(600 + universe.nvars + 10 * gaussian)
        matrices = [[[small(rng, universe, gaussian, 2) for _ in range(4)] for _ in range(3)] for _ in range(3)]
        # every 2 x 2 minor of the first two rows is 1, so the minor on columns
        # (0, 1, 2) adds c*x + 1, takes c*x away and adds c*x + 2: x cancels
        # mid-sum and comes back after the constant
        x, one = Polynomial.variable(universe, "x"), Polynomial.constant(universe, 1)
        cx, zero = x.scale(Scalar(0, 1) if gaussian else 1), Polynomial.zero(universe)
        matrices.append([[one, one, zero, one], [zero, one, one, x], [cx + one, cx, cx + one.scale(2), one]])
        for matrix in matrices:
            col_sets = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
            ours = laplace_minors(matrix, (0, 1, 2), col_sets)
            ref = laplace_minors_reference(matrix, (0, 1, 2), col_sets)
            assert [(k, exact_terms(v)) for k, v in ours.items()] == [
                (k, exact_terms(v)) for k, v in ref.items()
            ]

    def test_ideal_contains_one(self, universe, gaussian):
        rng = random.Random(700 + universe.nvars + 10 * gaussian)
        for trial in range(4):
            gens = [g for g in (small(rng, universe, gaussian, 3) for _ in range(2 + trial % 2)) if g]
            if gens:
                ours = ideal_contains_one(gens, step_budget=400)
                ref = ideal_contains_one_reference(gens, step_budget=400)
                assert membership_terms(ours) == membership_terms(ref)


class TestExponentBound:
    """A total degree of 2^EXP_BITS or more would carry into the next field
    of a packed key; it raises ExponentOverflow instead."""

    TOP = (1 << EXP_BITS) - 1

    def test_largest_degree_round_trips(self):
        u = VarUniverse(("x", "y"))
        p = Polynomial(u, {(self.TOP, 0): 1, (0, self.TOP): Fraction(1, 2), (1, self.TOP - 1): -3})
        assert list(p.terms) == [(self.TOP, 0), (0, self.TOP), (1, self.TOP - 1)]
        assert p.leading() == ((self.TOP, 0), 1)
        assert p.total_degree() == self.TOP
        assert parse_polynomial(p.to_string(), u) == p
        top_x = Polynomial(u, {(self.TOP, 0): 1})
        assert divexact(top_x, Polynomial.variable(u, "x")) == Polynomial(u, {(self.TOP - 1, 0): 1})

    def test_degree_beyond_raises(self):
        u = VarUniverse(("x", "y"))
        half = 1 << (EXP_BITS - 1)
        for exps in [(self.TOP + 1, 0), (0, self.TOP + 1), (half, half), (self.TOP, 1)]:
            with pytest.raises(ExponentOverflow):
                Polynomial(u, {exps: 1})
        x, y = Polynomial.variable(u, "x"), Polynomial.variable(u, "y")
        big = parse_polynomial(f"x^{self.TOP}", u)
        beyond = [
            lambda: big * y,
            lambda: big * (x + Polynomial.constant(u, 1)),
            lambda: x ** (self.TOP + 1),
            lambda: big.substitute({"x": x * y}),
            lambda: parse_polynomial(f"y^{self.TOP + 1}", u),
        ]
        for make in beyond:
            with pytest.raises(ExponentOverflow):
                make()
        assert issubclass(ExponentOverflow, ValueError)

    def test_config_exponent_is_a_config_error(self, tmp_path, capsys):
        matrix = [[f"x^{self.TOP + 1}", "0"], ["0", "1"]]
        config = {"structure": "symmetric", "params": ["x"], "matrix": matrix}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        assert cli.cmd_dispatch(["analyze", "--config", str(path)]) == cli.EXIT_CONFIG
        assert f"2^{EXP_BITS}" in capsys.readouterr().err

    def test_overflow_mid_pipeline_ends_in_a_report(self, tmp_path):
        # entries below the bound whose product in det(T - M) is not
        half = 1 << (EXP_BITS - 1)
        matrix = [[f"x^{half}", "1"], ["1", f"-x^{half}"]]
        config = {"structure": "symmetric", "params": ["x"], "matrix": matrix}
        path, out = tmp_path / "job.json", tmp_path / "report.json"
        path.write_text(json.dumps(config))
        code = cli.cmd_dispatch(["analyze", "--config", str(path), "--report", str(out)])
        assert code == cli.EXIT_ERROR
        report = json.loads(out.read_text())
        assert report["verdict"] == "error"
        assert report["error"]["type"] == "ExponentOverflow"
