import random
from fractions import Fraction

import numpy as np
import pytest

from eigenbouquet.algebra import (
    NotDivisible,
    ParseError,
    Polynomial,
    Scalar,
    UniverseMismatch,
    UnknownVariable,
    VarUniverse,
    bareiss_rank,
    divexact,
    gcd_multivariate,
    ideal_contains_one,
    monic,
    parse_polynomial,
)
from reference import bareiss_det

U_XY = VarUniverse(("x", "y"), ("X", "Y"))
U_UV = VarUniverse(("u", "v"), ("X", "Y"))


def p(text, universe=U_XY):
    return parse_polynomial(text, universe)


def rand_poly(rng, universe, max_deg=4, max_terms=5, gaussian=False):
    nv = universe.nvars
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nv
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exps[rng.randrange(nv)] += 1
        re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        im = Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if gaussian else 0
        terms[tuple(exps)] = Scalar(re, im)
    return Polynomial(universe, {e: c for e, c in terms.items() if c})


class TestParsePrint:
    def test_simple_sum(self):
        q = p("x^2 + x*y")
        ux, uy = U_XY.index("x"), U_XY.index("y")
        exps = {e for e in q.terms}
        assert len(exps) == 2
        assert all(c == Scalar(1) for c in q.terms.values())

    def test_worked_example_expansion(self):
        q = p("(y*Y + x*X)*(y*X - x*Y)")
        expected = p("x*y*X^2 + (y^2 - x^2)*X*Y - x*y*Y^2")
        assert q == expected

    def test_gaussian_coefficient(self):
        q = p("3/2*i*x")
        assert len(q.terms) == 1
        ((e, c),) = q.terms.items()
        assert c == Scalar(0, Fraction(3, 2))

    def test_roundtrip_canonical(self):
        rng = random.Random(7)
        for k in range(300):
            q = rand_poly(rng, U_XY, gaussian=(k % 3 == 0))
            assert parse_polynomial(q.to_string(), U_XY) == q

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            p("x + * y")
        assert err.value.pos == 4

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            p("x + z")

    def test_no_bare_slash_after_variable(self):
        with pytest.raises(ParseError):
            p("x/2")


class TestArithmetic:
    def test_product_of_conjugates(self):
        assert p("x + y") * p("x - y") == p("x^2 - y^2")

    def test_additive_inverse(self):
        q = p("x^2 + 3*x*y - 2")
        assert (q + (-q)).is_zero()

    def test_multiplicative_identity(self):
        q = p("x^2 - y^2")
        assert q * p("1") == q

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            p("x") + parse_polynomial("u", U_UV)

    def test_distributivity_seeded(self):
        rng = random.Random(11)
        u = VarUniverse(("x", "y", "z"))
        for _ in range(60):
            a, b, c = (rand_poly(rng, u) for _ in range(3))
            assert (a + b) * c == a * c + b * c

    def test_pow(self):
        assert p("x + y") ** 2 == p("x^2 + 2*x*y + y^2")
        assert p("x") ** 0 == p("1")


class TestSubstitute:
    def test_blowup_chart_pullbacks(self):
        sub = {"x": parse_polynomial("u", U_UV), "y": parse_polynomial("u*v", U_UV)}
        assert p("x^2 - y^2").substitute(sub) == parse_polynomial("u^2*(1 - v^2)", U_UV)
        assert p("x*y").substitute(sub) == parse_polynomial("u^2*v", U_UV)

    def test_empty_map(self):
        q = p("x^2 - y^2")
        assert q.substitute({}) == q

    def test_composition_seeded(self):
        rng = random.Random(13)
        u3 = VarUniverse(("x", "y", "z"))
        for _ in range(25):
            q = rand_poly(rng, u3, max_deg=3, max_terms=4)
            m1 = {name: rand_poly(rng, u3, max_deg=2, max_terms=3) for name in ("x", "y")}
            m2 = {name: rand_poly(rng, u3, max_deg=2, max_terms=3) for name in ("x", "y", "z")}
            left = q.substitute(m1).substitute(m2)
            composed = {name: img.substitute(m2) for name, img in m1.items()}
            composed["z"] = m2["z"]
            assert left == q.substitute(composed)

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            p("x").substitute({"w": p("x")})


class TestGcd:
    def test_exceptional_factor_extraction(self):
        a = parse_polynomial("u^2*v", U_UV)
        b = parse_polynomial("u^2*(1 - v^2)", U_UV)
        assert gcd_multivariate(a, b) == parse_polynomial("u^2", U_UV)

    def test_linear_factor(self):
        assert gcd_multivariate(p("x^2 - y^2"), p("x - y")) == p("x - y")

    def test_self_gcd_normalized(self):
        q = p("2*x^2 - 2*y^2")
        assert gcd_multivariate(q, q) == p("x^2 - y^2")

    def test_gcd_with_zero(self):
        q = p("3*x*y")
        assert gcd_multivariate(q, Polynomial.zero(U_XY)) == p("x*y")

    def test_divides_exactly_seeded(self):
        rng = random.Random(17)
        u3 = VarUniverse(("x", "y", "z"))
        for _ in range(25):
            a = rand_poly(rng, u3, max_deg=3, max_terms=3)
            b = rand_poly(rng, u3, max_deg=3, max_terms=3)
            m = rand_poly(rng, u3, max_deg=2, max_terms=2)
            if a.is_zero() or b.is_zero() or m.is_zero():
                continue
            g = gcd_multivariate(a * m, b * m)
            qa = divexact(a * m, g)
            qb = divexact(b * m, g)
            assert g * qa == a * m and g * qb == b * m
            assert gcd_multivariate(qa, qb).is_constant()
            # the common factor m divides the gcd
            divexact(g, gcd_multivariate(g, m))

    def test_divexact_raises_when_leading_term_survives(self):
        # 1/49 * 49 is not 1 in floats: the remainder keeps its leading
        # monomial, which must raise instead of looping forever
        u = VarUniverse(("x",))
        with pytest.raises(NotDivisible):
            divexact(Polynomial(u, {(1,): 1.0}), Polynomial(u, {(1,): 49.0}))


class TestBareiss:
    def test_rank_one_row(self):
        row = [p("-x*y"), p("x^2 - y^2"), p("x*y")]
        assert bareiss_rank([row]) == 1

    def test_zero_matrix(self):
        z = Polynomial.zero(U_XY)
        assert bareiss_rank([[z, z], [z, z]]) == 0

    def test_two_by_two_with_witness(self):
        m = [[p("x"), p("y")], [p("y"), p("x")]]
        assert bareiss_rank(m) == 2
        assert bareiss_det(m) == p("x^2 - y^2")

    def test_det_three_by_three(self):
        m = [
            [p("x"), p("y"), p("0")],
            [p("y"), p("x"), p("1")],
            [p("0"), p("1"), p("x")],
        ]
        # cofactor expansion by hand: x(x^2-1) - y(x*y) = x^3 - x - x*y^2
        assert bareiss_det(m) == p("x^3 - x*y^2 - x")

    def test_rank_matches_evaluation_seeded(self):
        rng = random.Random(19)
        u = VarUniverse(("x", "y"))
        for _ in range(10):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = [[rand_poly(rng, u, max_deg=2, max_terms=3) for _ in range(cols)] for _ in range(rows)]
            rank = bareiss_rank(m)
            best = 0
            for _ in range(20):
                pt = {n: Fraction(rng.randint(-40, 40), rng.randint(1, 11)) for n in u.names}
                vals = [[q.eval_scalar(pt) for q in row] for row in m]
                from eigenbouquet.algebra import scalar_matrix_rank

                best = max(best, scalar_matrix_rank(vals))
            assert best <= rank
            assert best == rank  # 20 random points hit the generic rank


class TestIdealContainsOne:
    def test_weak_gens_certified(self):
        u = VarUniverse(("v",))
        gens = [parse_polynomial("v", u), parse_polynomial("1 - v^2", u)]
        res = ideal_contains_one(gens)
        assert res.contains_one
        total = Polynomial.zero(u)
        for c, g in zip(res.certificate, gens):
            total = total + c * g
        assert total == parse_polynomial("1", u)

    def test_origin_obstruction(self):
        u = VarUniverse(("x", "y"))
        gens = [parse_polynomial("x*y", u), parse_polynomial("x^2 - y^2", u)]
        res = ideal_contains_one(gens)
        assert res.status == "no"
        origin = {"x": 0, "y": 0}
        assert all(not g.eval_scalar(origin) for g in gens)

    def test_unit_generator(self):
        u = VarUniverse(("x",))
        res = ideal_contains_one([parse_polynomial("1", u)])
        assert res.contains_one

    def test_yes_implies_no_common_zero_sampled(self):
        u = VarUniverse(("x", "y"))
        gens = [parse_polynomial("x^2 + 1 - y", u), parse_polynomial("y", u), parse_polynomial("x", u)]
        res = ideal_contains_one(gens)
        assert res.contains_one
        rng = random.Random(23)
        for _ in range(1000):
            pt = {
                "x": Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                "y": Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
            }
            assert any(g.eval_scalar(pt) for g in gens)

    def test_budget_inconclusive(self):
        u = VarUniverse(("x", "y", "z"))
        rng = random.Random(29)
        gens = [rand_poly(rng, u, max_deg=5, max_terms=6) for _ in range(4)]
        res = ideal_contains_one(gens, step_budget=3)
        assert res.status in {"inconclusive", "yes", "no"}


class TestNormalization:
    def test_monic(self):
        assert monic(p("2*x^2 - 4*y")) == p("x^2 - 2*y")

    def test_leading_term_graded_lex(self):
        e, c = p("x^2 - y^2").leading()
        assert e == (2, 0, 0, 0) and c == Scalar(1)


def complex_arithmetic(poly, at):
    """Evaluation by Python's complex arithmetic, term by term."""
    total = 0j
    for e, c in poly.terms.items():
        acc = complex(c)
        for k, power in enumerate(e):
            if power:
                acc *= complex(at[poly.universe.names[k]]) ** power
        total += acc
    return total


class TestBatchedEvaluation:
    def test_float_arrays_round_as_each_point_alone(self):
        rng = random.Random(41)
        names = U_XY.names
        for trial in range(60):
            poly = rand_poly(rng, U_XY, max_deg=6, gaussian=trial % 2 == 1)
            points = [{v: rng.uniform(-3, 3) for v in names} for _ in range(10)]
            batch = poly.eval_complex({v: np.array([pt[v] for pt in points]) for v in names})
            for value, pt in zip(batch.tolist(), points):
                want = complex_arithmetic(poly, pt)
                assert repr(value) == repr(want) == repr(poly.eval_complex(pt))

    def test_integer_values_are_exact(self):
        rng = random.Random(42)
        names = U_XY.names
        for trial in range(60):
            poly = rand_poly(rng, U_XY, gaussian=trial % 2 == 1)
            den = rng.choice((1, 6, 10))
            numerators = {
                v: np.array([rng.randint(-2 * den, 2 * den) for _ in range(8)], dtype=object)
                for v in names
            }
            values, scale = poly.eval_integer(numerators, den, 8)
            for i, value in enumerate(values):
                point = {v: Fraction(numerators[v][i], den) for v in names}
                assert poly.eval_scalar(point) * scale == value
