import random
from fractions import Fraction

import numpy as np
import pytest

from eigenbouquet.algebra import (
    MembershipResult,
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
from eigenbouquet import cli, resolve
from eigenbouquet.algebra import groebner
from reference import (
    bareiss_det,
    bench_jobs,
    divexact_reference,
    exact_terms,
    gcd_multivariate_reference,
    ideal_contains_one_reference,
    membership_terms,
    parse_polynomial_reference,
)

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


# pieces of random parser input: the grammar's operators, numbers, ASCII
# whitespace, ``i``, known and unknown identifiers; and, more rarely,
# characters no token starts with
_PIECES = (
    list("+-*^/()") * 2
    + ["0", "1", "2", "3", "7", "12", "840"]
    + [" ", "  ", "\t", "\n"]
    + ["i", "x", "y", "X", "Y"] * 2
    + ["z", "_a", "x1", "xy"]
)
_BAD = list(".#$%=[!~")


def _random_pieces(rng: random.Random) -> str:
    """Pieces in random order. A number after '^' is one small digit and no
    number follows a digit directly, so no power grows past degree 4."""
    out: list[str] = []
    last = ""  # the last piece that is not whitespace
    for _ in range(rng.randint(0, 14)):
        piece = rng.choice(_BAD) if rng.random() < 0.04 else rng.choice(_PIECES)
        if piece[0].isdigit():
            if out and out[-1][-1].isdigit():
                continue
            if last == "^":
                piece = str(rng.randint(0, 4))
        out.append(piece)
        if not piece.isspace():
            last = piece
    return "".join(out)


def _random_expr(rng: random.Random, depth: int = 1) -> str:
    """A text of the grammar with random spacing, parentheses nested to
    ``depth``, and exponents of at most 2."""

    def spaced(op):
        return rng.choice(["", " ", "\t"]) + op + rng.choice(["", " ", "\n"])

    def base():
        r = rng.random()
        if depth and r < 0.25:
            return "(" + _random_expr(rng, depth - 1) + ")"
        if r < 0.55:
            num = rng.choice(["0", "1", "2", "3", "7", "12", "840"])
            return num + spaced("/") + rng.choice("0123789") if rng.random() < 0.3 else num
        return rng.choice("ixyXYixyz")

    def factor():
        return base() + spaced("^") + rng.choice("012") if rng.random() < 0.2 else base()

    terms = [spaced("*").join(factor() for _ in range(rng.randint(1, 2))) for _ in range(rng.randint(1, 3))]
    text = terms[0]
    for t in terms[1:]:
        text += spaced(rng.choice("+-")) + t
    return rng.choice(["", "-", "+"]) + text


def _random_text(rng: random.Random) -> str:
    """Random pieces, or a grammar text that half the time has one piece
    (never a digit or '^') put in or put in place of one character."""
    if rng.random() < 0.5:
        return _random_pieces(rng)
    text = _random_expr(rng)
    if rng.random() < 0.5:
        piece = rng.choice([p for p in _PIECES if p != "^" and not p[0].isdigit()] + _BAD)
        k = rng.randrange(len(text) + 1)
        text = text[:k] + piece + text[k + rng.randint(0, 1):]
    return text


def _parsed(parse, text: str, universe: VarUniverse):
    """The stored terms in order and the denominator, or the exception's
    class, message and position."""
    try:
        q = parse(text, universe)
    except ParseError as err:
        return type(err), str(err), err.pos
    return list(q._t.items()), q.den


class TestParserMatchesReference:
    def test_random_text_matches_character_loop_lexer(self):
        rng = random.Random(2023)
        outcomes = set()
        for _ in range(4000):
            text = _random_text(rng)
            got = _parsed(parse_polynomial, text, U_XY)
            assert got == _parsed(parse_polynomial_reference, text, U_XY), repr(text)
            outcomes.add(got[0] if isinstance(got[0], type) else "polynomial")
        # the strings reach every outcome: polynomials, bad characters and
        # syntax errors, unknown variables
        assert outcomes == {"polynomial", ParseError, UnknownVariable}

    @pytest.mark.parametrize("text", ["x + * #", "(x $", "x y .", "1/0 + ~", "i*x\t^ 2 + z ["])
    def test_bad_character_reported_before_syntax_errors(self, text):
        assert _parsed(parse_polynomial, text, U_XY) == _parsed(parse_polynomial_reference, text, U_XY)
        with pytest.raises(ParseError, match="unexpected character"):
            parse_polynomial(text, U_XY)


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

    def test_float_coefficients_refused(self):
        # coefficients are exact: a float never reaches a kernel, so no
        # division can leave an inexact leading term in place
        u = VarUniverse(("x",))
        for terms in ({(1,): 1.0}, {(1,): 49.0}, {(2,): 49.0, (1,): 1.0}, {(1,): 0.0}):
            with pytest.raises(TypeError, match="float"):
                Polynomial(u, terms)


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
        assert res.status == "inconclusive"
        assert (res.certificate, res.basis, res.reductions) == (None, [], 0)
        # the same generators do reach an answer within the default budget
        assert ideal_contains_one(gens).status == "yes"


def rand_monomial(rng, universe, max_deg=3, gaussian=False):
    exps = [0] * universe.nvars
    for _ in range(rng.randint(0, max_deg)):
        exps[rng.randrange(universe.nvars)] += 1
    coeff = Scalar(rng.choice([-3, -1, 1, 2]), rng.choice([-1, 1]) if gaussian else 0)
    return Polynomial(universe, {tuple(exps): coeff})


def outcome(fn, *args):
    """exact_terms of the result, or the NotDivisible message."""
    try:
        return exact_terms(fn(*args))
    except NotDivisible as err:
        return ("NotDivisible", str(err))


U3 = VarUniverse(("x", "y", "z"))


class TestMonomialShortcuts:
    """The gcd and exact division match their frozen references term for
    term, dict order and coefficient types included."""

    @pytest.mark.parametrize("gaussian", [False, True])
    def test_monomial_times_polynomial(self, gaussian):
        rng = random.Random(61 + gaussian)
        for _ in range(40):
            m = rand_monomial(rng, U3, gaussian=gaussian)
            m2 = rand_monomial(rng, U3, gaussian=gaussian)
            f = rand_poly(rng, U3, max_deg=3, max_terms=4, gaussian=gaussian)
            h = rand_poly(rng, U3, max_deg=3, max_terms=4, gaussian=gaussian)
            if f.is_zero() or h.is_zero():
                continue
            unit = Polynomial.constant(U3, Scalar(rng.randint(1, 5), 1 if gaussian else 0))
            pairs = [(m * f, m), (m, m * f), (m * f, m * h), (unit, m * f), (m * f, unit), (m, m2)]
            for a, b in pairs:
                assert outcome(gcd_multivariate, a, b) == outcome(gcd_multivariate_reference, a, b)
            for f_, g_ in [(m * f, m), (m * f, m2), (m * f, unit), (m * m2, m2)]:
                assert outcome(divexact, f_, g_) == outcome(divexact_reference, f_, g_)
            assert divexact(m * f, m) == f

    @pytest.mark.parametrize("gaussian", [False, True])
    def test_common_factor_gcd(self, gaussian):
        # the content recursion meets monomial and constant contents
        rng = random.Random(67 + gaussian)
        for _ in range(25):
            a = rand_poly(rng, U3, max_deg=3, max_terms=3, gaussian=gaussian)
            b = rand_poly(rng, U3, max_deg=3, max_terms=3, gaussian=gaussian)
            m = rand_poly(rng, U3, max_deg=2, max_terms=2, gaussian=gaussian)
            if a.is_zero() or b.is_zero() or m.is_zero():
                continue
            a, b = a * m, b * m
            g = gcd_multivariate(a, b)
            assert exact_terms(g) == exact_terms(gcd_multivariate_reference(a, b))
            for f in (a, b, m):
                assert outcome(divexact, f, g) == outcome(divexact_reference, f, g)

    def test_not_divisible_messages_match(self):
        cases = [
            (p("x*y + x"), p("y")),
            (p("x + 1"), p("x")),
            (p("x^2"), p("2*y")),
            (p("x^2 + y"), p("x + y")),
        ]
        rng = random.Random(71)
        for _ in range(30):
            f = rand_poly(rng, U3, max_deg=3, max_terms=4)
            if not f.is_zero():
                cases.append((f, rand_monomial(rng, U3, max_deg=2)))
        messages = set()
        for f, g in cases:
            ours = outcome(divexact, f, g)
            assert ours == outcome(divexact_reference, f, g)
            if ours[0] == "NotDivisible":
                messages.add(ours[1])
        # over exact coefficients every leading term cancels: the one way a
        # division fails is a leading monomial the divisor's does not divide
        assert messages == {"leading monomial not divisible"}


U2 = VarUniverse(("x", "y"))


def unit_ideal(rng, gaussian, count=3):
    """count random quadrics with nonzero constants: 1-membership for count > 2."""
    return [
        rand_poly(rng, U2, max_deg=2, max_terms=3, gaussian=gaussian)
        + Polynomial.constant(U2, rng.randint(1, 3))
        for _ in range(count)
    ]


def sample_ideals():
    """Seeded ideals that end "yes" only after S-pairs, "no" with a finite or
    an infinite zero set, over Q and Q(i)."""
    rng = random.Random(900)
    out = {"yes": [], "no": []}
    for trial in range(60):
        gaussian = trial % 2 == 1
        gens = unit_ideal(rng, gaussian, count=2 + trial % 3)
        if trial % 5 == 4:
            common = rand_poly(rng, U2, max_deg=1, max_terms=2, gaussian=gaussian)
            gens = [g * common for g in gens]
        ref = ideal_contains_one_reference(gens)
        if ref.status == "no" or ref.reductions:
            out[ref.status].append(gens)
    return out


class TestCofactorsOnlyForCertificate:
    def test_sample_ideals_cover_both_answers(self):
        ideals = sample_ideals()
        assert len(ideals["yes"]) >= 8 and len(ideals["no"]) >= 8

    @pytest.mark.parametrize("status", ["yes", "no"])
    def test_runs_match_reference(self, status):
        for gens in sample_ideals()[status]:
            ref = ideal_contains_one_reference(gens)
            assert ref.status == status
            assert membership_terms(ideal_contains_one(gens)) == membership_terms(ref)

    @pytest.mark.parametrize("status", ["yes", "no"])
    def test_budgets_trip_at_the_same_step(self, status):
        for gens in sample_ideals()[status][:4]:
            budget = 1
            while True:
                ref = ideal_contains_one_reference(gens, step_budget=budget)
                ours = ideal_contains_one(gens, step_budget=budget)
                assert membership_terms(ours) == membership_terms(ref), budget
                if ref.status != "inconclusive":
                    break
                budget += 1
            assert budget > 1
            for cap in range(5):
                ref = ideal_contains_one_reference(gens, degree_cap=cap)
                assert membership_terms(ideal_contains_one(gens, degree_cap=cap)) == membership_terms(ref)

    @pytest.mark.parametrize("seed", [42, 7, 38])
    def test_workload_generator_sets_match_reference(self, monkeypatch, seed):
        # every generator set the benchmark jobs' principality tests meet
        seen = []
        real = resolve.ideal_contains_one

        def record(gens, *args, **kwargs):
            seen.append(list(gens))
            return real(gens, *args, **kwargs)

        monkeypatch.setattr(resolve, "ideal_contains_one", record)
        for job in bench_jobs():
            cfg = cli.JobConfig.from_dict(dict(job.config, seed=seed))
            cli.run_job(cfg, ("analyze", "resolve"))
        assert len(seen) >= 18
        for gens in seen:
            assert membership_terms(ideal_contains_one(gens)) == membership_terms(ideal_contains_one_reference(gens))

    def test_no_run_builds_no_cofactor(self, monkeypatch):
        made = []

        class Recording(groebner._Tracked):
            __slots__ = ()

            def __init__(self, poly, cofactors):
                made.append(cofactors)
                super().__init__(poly, cofactors)

        monkeypatch.setattr(groebner, "_Tracked", Recording)
        res = ideal_contains_one([p("x*y"), p("x^2 - y^2")])
        assert res.status == "no" and res.reductions > 0
        assert made and all(c is None for c in made)
        # a "yes" builds cofactors in its rerun only
        made.clear()
        res = ideal_contains_one([p("x*y - 1"), p("x - y"), p("y^2 - 2")])
        assert res.contains_one and res.reductions > 0
        first = next(k for k, c in enumerate(made) if c is not None)
        assert all(c is None for c in made[:first])
        assert all(c is not None for c in made[first:])

    def test_corrupt_certificate_raises(self, monkeypatch):
        run = groebner._buchberger

        def corrupt(*args, track):
            res = run(*args, track=track)
            if track:
                res.certificate[0] = res.certificate[0] + Polynomial.constant(U_XY, 1)
            return res

        monkeypatch.setattr(groebner, "_buchberger", corrupt)
        with pytest.raises(ArithmeticError, match="does not expand to 1"):
            ideal_contains_one([p("x*y - 1"), p("x - y"), p("y^2 - 2")])

    def test_rerun_must_end_yes(self, monkeypatch):
        run = groebner._buchberger

        def diverge(*args, track):
            res = run(*args, track=track)
            return MembershipResult("inconclusive", None, []) if track else res

        monkeypatch.setattr(groebner, "_buchberger", diverge)
        with pytest.raises(ArithmeticError, match="not 'yes'"):
            ideal_contains_one([p("x*y - 1"), p("x - y"), p("y^2 - 2")])


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
            numerators = {v: [rng.randint(-2 * den, 2 * den) for _ in range(8)] for v in names}
            values, scale = poly.eval_integer(numerators, den, 8)
            for i, value in enumerate(values):
                point = {v: Fraction(numerators[v][i], den) for v in names}
                assert poly.eval_scalar(point) * scale == value
