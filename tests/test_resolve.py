import functools
import json
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from eigenbouquet import cli, family, resolve
from eigenbouquet.algebra import Polynomial, Scalar, VarUniverse, ideal_contains_one, parse_polynomial
from eigenbouquet.bouquet import fitting_minors, generic_rank, wedge_quadratics
from eigenbouquet.family import MatrixFamily, check_structure
from eigenbouquet.resolve import (
    RESOLVED_CERTIFIED,
    UNRESOLVED,
    CenterError,
    CenterSpec,
    ChartNode,
    DegenerateChart,
    blowup_charts,
    principality_status,
    propose_center,
    root_chart,
    run_sequence,
    weak_transform,
)
from reference import (
    base_point,
    bench_jobs,
    common_zeros_per_point,
    divexact_reference,
    exact_terms,
    gcd_multivariate_reference,
    ideal_contains_one_reference,
    membership_terms,
    sample_points,
)

DATA = Path(__file__).resolve().parent / "data"


def kupa_setup():
    fam = check_structure(
        MatrixFamily.from_strings(
            [["x^2", "x*y"], ["x*y", "y^2"]], ["x", "y"], "symmetric", fibers=["X", "Y"]
        )
    )
    system = wedge_quadratics(fam)
    generic_rank(system)
    ideal = fitting_minors(system)
    return fam, system, ideal


class TestBlowupCharts:
    def test_worked_example_pivot_x(self):
        fam, system, ideal = kupa_setup()
        root = root_chart(ideal.gens, fam.universe)
        charts = blowup_charts(root, ("x", "y"))
        chart = next(c for c in charts if c.path == ("x",))
        u = chart.universe
        assert set(u.params) == {"u", "v"}
        assert chart.to_base["x"] == parse_polynomial("u", u)
        assert chart.to_base["y"] == parse_polynomial("u*v", u)
        assert set(chart.pulled_minors) == {
            parse_polynomial("u^2*v", u),
            parse_polynomial("u^2*(1 - v^2)", u),
        }
        assert chart.local_generator == parse_polynomial("u^2", u)
        assert set(chart.weak_gens) == {
            parse_polynomial("v", u),
            parse_polynomial("1 - v^2", u),
        }

    def test_worked_example_pivot_y(self):
        fam, system, ideal = kupa_setup()
        root = root_chart(ideal.gens, fam.universe)
        charts = blowup_charts(root, ("x", "y"))
        chart = next(c for c in charts if c.path == ("y",))
        u = chart.universe
        assert chart.to_base["x"] == parse_polynomial("u*v", u)
        assert chart.to_base["y"] == parse_polynomial("v", u)
        assert chart.local_generator == parse_polynomial("v^2", u)
        assert set(chart.weak_gens) == {
            parse_polynomial("u", u),
            parse_polynomial("u^2 - 1", u),
        }

    def test_center_off_zero_set_warns(self):
        fam, system, ideal = kupa_setup()
        u3 = VarUniverse(("x", "y", "z"), fam.universe.fibers)
        gens = [g.in_universe(u3) for g in ideal.gens]
        root = root_chart(gens, u3)
        warnings = []
        charts = blowup_charts(root, ("y", "z"), warn=warnings.append)
        assert warnings  # x*y and x^2 - y^2 do not all vanish on {y = z = 0}
        # on the chart covering the complement nothing is extracted
        chart = next(c for c in charts if c.path == ("z",))
        assert chart.local_generator == parse_polynomial("1", chart.universe)
        assert set(chart.weak_gens) == set(chart.pulled_minors)

    def test_codimension_guard(self):
        fam, system, ideal = kupa_setup()
        root = root_chart(ideal.gens, fam.universe)
        with pytest.raises(CenterError):
            blowup_charts(root, ("x",))
        with pytest.raises(CenterError):
            blowup_charts(root, ("x", "nope"))


class TestWeakTransform:
    def test_exceptional_extraction(self):
        u = VarUniverse(("u", "v"))
        node = ChartNode(
            path=(),
            universe=u,
            to_base={},
            pulled_minors=[
                parse_polynomial("u^2*v", u),
                parse_polynomial("u^2*(1 - v^2)", u),
            ],
        )
        weak_transform(node)
        assert node.local_generator == parse_polynomial("u^2", u)
        assert node.weak_gens == [
            parse_polynomial("v", u),
            parse_polynomial("1 - v^2", u),
        ]

    def test_single_generator_divides_itself(self):
        u = VarUniverse(("x", "y"))
        node = ChartNode(
            path=(), universe=u, to_base={}, pulled_minors=[parse_polynomial("x - y", u)]
        )
        weak_transform(node)
        assert node.local_generator == parse_polynomial("x - y", u)
        assert node.weak_gens == [parse_polynomial("1", u)]

    def test_degenerate(self):
        u = VarUniverse(("x",))
        node = ChartNode(
            path=(), universe=u, to_base={}, pulled_minors=[Polynomial.zero(u)] * 2
        )
        with pytest.raises(DegenerateChart):
            weak_transform(node)

    def test_exactness_identity(self):
        fam, system, ideal = kupa_setup()
        root = root_chart(ideal.gens, fam.universe)
        for chart in blowup_charts(root, ("x", "y")):
            for minor, weak in zip(chart.pulled_minors, chart.weak_gens):
                assert chart.local_generator * weak == minor


class TestPrincipalityStatus:
    def test_certified_weak_gens(self):
        u = VarUniverse(("v",))
        node = ChartNode(
            path=(),
            universe=u,
            to_base={},
            pulled_minors=[parse_polynomial("v", u), parse_polynomial("1 - v^2", u)],
        )
        node.weak_gens = [parse_polynomial("v", u), parse_polynomial("1 - v^2", u)]
        node.local_generator = parse_polynomial("1", u)
        assert principality_status(node) == RESOLVED_CERTIFIED
        total = Polynomial.zero(u)
        for c, g in zip(node.certificate, node.weak_gens):
            total = total + c * g
        assert total == parse_polynomial("1", u)

    def test_unit_weak_gen(self):
        u = VarUniverse(("x",))
        node = ChartNode(path=(), universe=u, to_base={}, pulled_minors=[])
        node.weak_gens = [parse_polynomial("1", u)]
        assert principality_status(node) == RESOLVED_CERTIFIED

    def test_root_unresolved_with_origin_witness(self):
        fam, system, ideal = kupa_setup()
        root = root_chart(ideal.gens, fam.universe)
        status = principality_status(root)
        assert status == UNRESOLVED
        assert root.witness == {"x": Fraction(0), "y": Fraction(0)}

    def test_planted_common_zero_never_certified(self):
        u = VarUniverse(("x", "y"))
        # both generators vanish at (2, 3) by construction
        gens = [
            parse_polynomial("(x - 2)*(y - 3)", u),
            parse_polynomial("(x - 2) + (y - 3)^2", u),
        ]
        node = ChartNode(path=(), universe=u, to_base={}, pulled_minors=gens)
        weak_transform(node)
        status = principality_status(node)
        assert status != RESOLVED_CERTIFIED


class TestRunSequence:
    def test_worked_example_resolves(self):
        fam, system, ideal = kupa_setup()
        outcome = run_sequence(
            ideal.gens,
            fam.universe,
            [CenterSpec((), ("x", "y"))],
        )
        assert outcome.verdict == "Resolved"
        leaves = outcome.leaves()
        assert len(leaves) == 2
        assert all(leaf.status == RESOLVED_CERTIFIED for leaf in leaves)
        gens_by_path = {leaf.path: leaf.local_generator.to_string() for leaf in leaves}
        assert gens_by_path == {("x",): "u^2", ("y",): "v^2"}

    def test_traceless_resolves(self):
        fam = check_structure(
            MatrixFamily.from_strings([["x", "y"], ["y", "-x"]], ["x", "y"], "symmetric")
        )
        system = wedge_quadratics(fam)
        generic_rank(system)
        ideal = fitting_minors(system)
        outcome = run_sequence(ideal.gens, fam.universe, [CenterSpec((), ("x", "y"))])
        assert outcome.verdict == "Resolved"
        assert all(leaf.status == RESOLVED_CERTIFIED for leaf in outcome.leaves())

    def test_diag_resolves_without_blowup(self):
        fam = check_structure(
            MatrixFamily.from_strings(
                [["x", "0"], ["0", "y"]], ["x", "y"], "symmetric"
            )
        )
        system = wedge_quadratics(fam)
        generic_rank(system)
        ideal = fitting_minors(system)
        outcome = run_sequence(ideal.gens, fam.universe, [])
        assert outcome.verdict == "Resolved"
        (leaf,) = outcome.leaves()
        assert leaf.status == RESOLVED_CERTIFIED
        assert leaf.local_generator == parse_polynomial("x - y", fam.universe)

    def test_empty_sequence_unresolved(self):
        fam, system, ideal = kupa_setup()
        outcome = run_sequence(ideal.gens, fam.universe, [])
        assert outcome.verdict == "Unresolved"
        (leaf,) = outcome.leaves()
        assert leaf.witness == {"x": Fraction(0), "y": Fraction(0)}

    def test_monotone_exceptional_degree(self):
        fam, system, ideal = kupa_setup()
        outcome = run_sequence(ideal.gens, fam.universe, [CenterSpec((), ("x", "y"))])
        for leaf in outcome.leaves():
            (last_exc, mult) = leaf.exceptional[-1]
            assert mult >= 1  # center sat inside the Fitting zero set

    def test_depth_cap(self):
        fam, system, ideal = kupa_setup()
        outcome = run_sequence(
            ideal.gens,
            fam.universe,
            [CenterSpec((), ("x", "y"))],
            depth_cap=0,
        )
        assert outcome.warnings
        assert outcome.verdict == "Unresolved"


class TestChartCompatibility:
    def test_sibling_overlap_ratios(self):
        # weak gens in sibling charts differ by a unit monomial factor in the
        # exceptional variable on the overlap
        fam, system, ideal = kupa_setup()
        root = root_chart(ideal.gens, fam.universe)
        charts = blowup_charts(root, ("x", "y"))
        cx = next(c for c in charts if c.path == ("x",))
        cy = next(c for c in charts if c.path == ("y",))
        import random

        rng = random.Random(99)
        for _ in range(20):
            uu = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            vv = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            px = {"u": uu, "v": vv}
            # same base point in the other chart: (u, uv) = (u'v', v')
            py = {"v": uu * vv, "u": Fraction(1) / vv}
            bx = base_point(cx, px)
            by = base_point(cy, py)
            assert bx["x"] == by["x"] and bx["y"] == by["y"]
            ratios = set()
            for gx, gy in zip(cx.weak_gens, cy.weak_gens):
                vx = gx.eval_scalar(px)
                vy = gy.eval_scalar(py)
                if not vx or not vy:
                    assert (not vx) == (not vy)
                    continue
                ratios.add(vy / vx)
            assert len(ratios) == 1
            ratio = next(iter(ratios))
            # ratio must be +- a power of the overlap coordinate v
            matched = False
            for k in range(-6, 7):
                if ratio == vv ** k or ratio == -(vv ** k):
                    matched = True
            assert matched


class TestDeeperTree:
    def test_two_level_resolution(self):
        # {x^3, y^2} needs a second blowup on the first chart
        u = VarUniverse(("x", "y"))
        gens = [parse_polynomial("x^3", u), parse_polynomial("y^2", u)]
        outcome = run_sequence(gens, u, [CenterSpec((), ("x", "y"))])
        assert outcome.verdict == "Unresolved"
        chart_x = outcome.root.find(("x",))
        assert set(g.to_string() for g in chart_x.weak_gens) == {"u", "v^2"}
        outcome = run_sequence(
            gens,
            u,
            [
                CenterSpec((), ("x", "y")),
                CenterSpec(("x",), ("u", "v")),
                CenterSpec(("x", "v"), ("w", "a")),
            ],
        )
        statuses = {leaf.path: leaf.status for leaf in outcome.leaves()}
        assert statuses[("y",)] == RESOLVED_CERTIFIED
        assert statuses[("x", "u")] == RESOLVED_CERTIFIED
        # the cusp-like pair needs the third, depth-3 blowup
        assert statuses[("x", "v", "w")] == RESOLVED_CERTIFIED
        assert statuses[("x", "v", "a")] == RESOLVED_CERTIFIED
        assert outcome.verdict == "Resolved"
        # composed pullback and exactness at depth 2
        deep = outcome.root.find(("x", "u"))
        assert deep.to_base["x"].to_string() == "w"
        assert deep.to_base["y"].to_string() == "w^2*a"
        for minor, weak in zip(deep.pulled_minors, deep.weak_gens):
            assert deep.local_generator * weak == minor
        assert [name for name, _ in deep.exceptional][-1] == "w"
        assert_distinct_divisors(outcome.root)

    def test_pivot_on_an_old_divisor_lists_it_once(self):
        """Blowing up [u, v] on chart y, where v is the first exceptional
        divisor: in the pivot-v chart v pulls back into the new divisor a,
        so a is listed once."""
        config = json.loads((DATA / "double_blowup.json").read_text())
        state = cli.RunState(cli.JobConfig.from_dict(config))
        cli.stage_resolve(cli.stage_analyze(state))
        assert state.outcome.verdict == "Resolved"
        assert state.outcome.root.find(("y", "v")).exceptional == [("a", 4)]
        assert state.outcome.root.find(("y", "u")).exceptional == [("a", 2), ("w", 4)]
        assert_distinct_divisors(state.outcome.root)


def assert_distinct_divisors(root):
    for chart in _charts(root):
        names = [name for name, _ in chart.exceptional]
        assert len(set(names)) == len(names), (chart.path, chart.exceptional)


class TestProposeCenter:
    def test_origin_center(self):
        # the proposal reads the zeros grading kept on the chart
        fam, system, ideal = kupa_setup()
        root = root_chart(ideal.gens, fam.universe)
        principality_status(root)
        assert propose_center(root) == ("x", "y")

    def test_no_proposal_when_resolved(self):
        u = VarUniverse(("x", "y"))
        node = ChartNode(path=(), universe=u, to_base={}, pulled_minors=[])
        node.weak_gens = [parse_polynomial("1", u)]
        assert propose_center(node) is None


# -- the seeded sampler ----------------------------------------------------

def _charts(node):
    yield node
    for child in node.children:
        yield from _charts(child)


def _assert_sampler_matches(gens, universe, seed):
    """The batched sampler finds the per-point scan's common zeros, in the
    same order; returns them."""
    expected = list(common_zeros_per_point(gens, universe, seed))
    assert list(resolve._common_zeros(gens, universe, seed)) == expected
    return expected


def _planted_generators(trial):
    """Products of linear forms through pool points, over Q and Q(i): the
    generators, their universe, the pool seed and the planted points."""
    rng = random.Random(500 + trial)
    names = ("x", "y", "z")[: 1 + trial % 3]
    universe = VarUniverse(names)
    seed = rng.randint(0, 10**6)
    pool = sample_points(universe, seed)
    planted = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
    xs = [Polynomial.variable(universe, n) for n in names]

    def product_through_planted():
        out = Polynomial.constant(universe, 1)
        for pt in planted:
            form = Polynomial.zero(universe)
            for x, n in zip(xs, names):
                a = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) or Fraction(1)
                form = form + (x - Polynomial.constant(universe, pt[n])).scale(a)
            out = out * form
        return out

    gens = [product_through_planted() for _ in range(rng.randint(1, 3))]
    gaussian = Polynomial.constant(universe, Scalar(0, Fraction(1, rng.randint(1, 5))))
    gens.append(product_through_planted() + gaussian * product_through_planted())
    gens.append(product_through_planted().scale(Scalar(1, 2)))
    return gens, universe, seed, planted


def _graded_benchmark_charts(seed):
    """(job name, chart) for every chart the benchmark jobs resolve at seed."""
    for job in bench_jobs():
        if "resolve" not in job.stages:
            continue
        state = cli.RunState(cli.JobConfig.from_dict(dict(job.config, seed=seed)))
        cli.stage_resolve(cli.stage_analyze(state))
        if state.outcome is not None:
            for node in _charts(state.outcome.root):
                yield job.name, node


class TestSampler:
    @pytest.mark.parametrize("names", [("x",), ("x", "y"), ("u", "v", "w"), ("a", "b", "c", "d")])
    @pytest.mark.parametrize("seed", [42, 43, 1760, 7, 38, 10**9])
    def test_pool_matches_fraction_construction(self, names, seed):
        # every witness a report prints is a point of this pool; the pool's
        # inlined draw consumes random bits as randint does
        universe = VarUniverse(names)
        for count in (5, resolve.SAMPLE_COUNT):  # 5 cuts into the axis points at 3 params
            pool = [
                {n: Fraction(v, resolve.POOL_DEN) for n, v in zip(names, pt)}
                for pt in resolve._pool_numerators(names, seed, count)
            ]
            assert pool == sample_points(universe, seed, count)

    @pytest.mark.parametrize("seed", [42, 7, 38])
    def test_benchmark_charts_match_per_point_scan(self, seed):
        no_charts = 0
        for name, node in _graded_benchmark_charts(seed):
            # the pool principality_status grades the chart on
            gens = [g for g in node.weak_gens if not g.is_zero()]
            pool_seed = seed + len(node.path)
            expected = _assert_sampler_matches(gens, node.universe, pool_seed)
            if node.groebner_status == "no":
                # a "no" chart is sampled on the reduced basis: it generates
                # the same ideal, so it has the same real zeros
                basis = ideal_contains_one(gens).basis
                assert list(resolve._common_zeros(basis, node.universe, pool_seed)) == expected, (name, node.path)
                no_charts += 1
            # propose_center reads these
            assert node.zeros == expected[: resolve.KEPT_ZEROS], (name, node.path)
        assert no_charts

    def test_propose_center_samples_the_grading_pool(self, monkeypatch):
        # kupa's root and, after its center, both charts: each proposal reads
        # zeros of the pool principality_status graded the chart on, and
        # draws none itself
        state = cli.RunState(cli.JobConfig.from_dict(dict(cli.FIXTURES["kupa"], seed=11)))
        cli.stage_resolve(cli.stage_analyze(state))
        calls = []
        monkeypatch.setattr(resolve, "_common_zeros", lambda *args: calls.append(args))
        charts = list(_charts(state.outcome.root))
        assert len(charts) == 3
        assert charts[0].zeros
        for node in charts:
            gens = [g for g in node.weak_gens if not g.is_zero()]
            scan = common_zeros_per_point(gens, node.universe, 11 + len(node.path))
            assert node.zeros == list(islice(scan, resolve.KEPT_ZEROS)), node.path
            propose_center(node)
        assert calls == []

    def test_one_pool_per_key_per_run(self, monkeypatch):
        # sym3_quad at seed 42 samples its root on the seed-42 pool and its
        # charts on the seed-43 pool; its Unresolved leaves get proposals
        (job,) = [job for job in bench_jobs() if job.name == "sym3_quad"]
        cfg = cli.JobConfig.from_dict(dict(job.config, seed=42))
        draws, proposed, proposal_samples = [], [], []
        in_proposal = False
        draw, sample, propose = resolve._pool_numerators, resolve._common_zeros, cli.propose_center

        def recording_draw(names, seed, *args):
            draws.append((len(names), seed))
            return draw(names, seed, *args)

        def recording_sample(*args):
            if in_proposal:
                proposal_samples.append(args)
            return sample(*args)

        def recording_propose(node, *args):
            nonlocal in_proposal
            proposed.append(node.path)
            in_proposal = True
            try:
                return propose(node, *args)
            finally:
                in_proposal = False

        monkeypatch.setattr(resolve, "_pool_numerators", recording_draw)
        monkeypatch.setattr(resolve, "_common_zeros", recording_sample)
        monkeypatch.setattr(cli, "propose_center", recording_propose)
        for _ in range(2):  # no pool outlives its run
            draws.clear()
            code, report = cli.run_job(cfg, job.stages)
            assert code == job.expected_exit
            assert draws == [(2, 42), (2, 43)]
        assert proposed and proposal_samples == []

    @pytest.mark.parametrize("trial", range(12))
    def test_planted_zeros_match_per_point_scan(self, trial, monkeypatch):
        gens, universe, seed, planted = _planted_generators(trial)
        zeros = list(common_zeros_per_point(gens, universe, seed))
        assert all(pt in zeros for pt in planted)
        assert list(resolve._common_zeros(gens, universe, seed)) == zeros
        # The same set graded as a chart. A budget of 400 steps ends every
        # set "no" but trial 8's three cubics in x, y, z over Q(i), which it
        # ends "inconclusive" in a tenth of a second (the default budget lets
        # that run go on for minutes): that chart is sampled on its weak
        # generators, every other one on its reduced basis.
        contains_one = functools.partial(ideal_contains_one, step_budget=400)
        monkeypatch.setattr(resolve, "ideal_contains_one", contains_one)
        membership = contains_one(gens)
        assert membership.status == ("inconclusive" if trial == 8 else "no")
        if membership.status == "no":
            assert list(resolve._common_zeros(membership.basis, universe, seed)) == zeros
        node = ChartNode(path=(), universe=universe, to_base={}, pulled_minors=[], weak_gens=gens)
        principality_status(node, seed)
        assert node.groebner_status == membership.status
        assert node.zeros == zeros[: resolve.KEPT_ZEROS]

    def test_unassigned_variable_raises(self):
        universe = VarUniverse(("x", "y"), ("X",))
        gens = [parse_polynomial("x*y", universe), parse_polynomial("X*x - y", universe)]
        with pytest.raises(KeyError):
            list(common_zeros_per_point(gens, universe, 42))
        with pytest.raises(KeyError):
            list(resolve._common_zeros(gens, universe, 42))


# -- the exact chart layer against its frozen references --------------------


class TestExactLayerMatchesReference:
    @pytest.mark.parametrize("seed", [42, 7, 38])
    def test_benchmark_jobs(self, seed, monkeypatch):
        # every gcd, exact division and principality run of the weak
        # transforms (and of the squarefree characteristic polynomial) is
        # checked against the frozen reference as it happens
        checked = dict.fromkeys(["gcd", "divexact", "membership"], 0)

        def shadow(kind, live, frozen, terms):
            def both(*args):
                ours = live(*args)
                assert terms(ours) == terms(frozen(*args)), kind
                checked[kind] += 1
                return ours

            return both

        gcd = shadow("gcd", resolve.gcd_multivariate, gcd_multivariate_reference, exact_terms)
        div = shadow("divexact", resolve.divexact, divexact_reference, exact_terms)
        for module in (resolve, family):
            monkeypatch.setattr(module, "gcd_multivariate", gcd)
            monkeypatch.setattr(module, "divexact", div)
        monkeypatch.setattr(
            resolve,
            "ideal_contains_one",
            shadow("membership", resolve.ideal_contains_one, ideal_contains_one_reference, membership_terms),
        )
        for job in bench_jobs():
            state = cli.RunState(cli.JobConfig.from_dict(dict(job.config, seed=seed)))
            cli.stage_resolve(cli.stage_analyze(state))
            charts = [] if state.outcome is None else list(_charts(state.outcome.root))
            for node in charts:
                assert node.groebner_status is not None, (job.name, node.path)
        assert all(checked.values()), checked
