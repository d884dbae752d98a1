import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from eigenbouquet import cli, frames, oracle, realnormal
from eigenbouquet.algebra import Polynomial
from eigenbouquet.bouquet import fitting_minors, generic_rank, wedge_quadratics
from eigenbouquet.family import MatrixFamily, check_structure
from eigenbouquet.frames import (
    DEFAULT_ANGLE_TOL,
    GridSpec,
    UnresolvedChart,
    common_denominator,
    extract_bouquets,
    local_frame_and_eigenvalues,
    plucker_section,
)
from eigenbouquet.resolve import CenterSpec, run_sequence
import reference
from reference import bench_jobs, limit_uniqueness_check, subspace_angle


def build(entries, params, centers, fibers=None):
    fam = check_structure(
        MatrixFamily.from_strings(entries, params, "symmetric", fibers=fibers)
    )
    system = wedge_quadratics(fam)
    generic_rank(system)
    ideal = fitting_minors(system)
    outcome = run_sequence(ideal.gens, fam.universe, centers)
    return fam, system, ideal, outcome


def extract(section, point, **kwargs):
    """The GridBouquet of one point."""
    return extract_bouquets(section, [point], **kwargs)


def spaces(bouquet, i=0):
    """(value, basis) of each subspace at point i of a GridBouquet."""
    starts = np.cumsum([0, *bouquet.patterns[i]]).tolist()
    return [(bouquet.values[i, a], bouquet.frames[i][:, a:b]) for a, b in zip(starts, starts[1:])]


def bits(value):
    """A field of a GridBouquet as comparable bits: dtype, shape and bytes."""
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return value
    return np.asarray(value).dtype, np.shape(value), np.asarray(value).tobytes()


def same_grid(got, want) -> bool:
    """Equal GridBouquets, field by field and bit for bit."""
    return all(bits(getattr(got, f.name)) == bits(getattr(want, f.name)) for f in dataclasses.fields(got))


def at(bouquet, i):
    """Point i of a GridBouquet, as a GridBouquet of one point."""
    def cut(value):
        return {k: v[i : i + 1] for k, v in value.items()} if isinstance(value, dict) else value[i : i + 1]

    return frames.GridBouquet(**{f.name: cut(getattr(bouquet, f.name)) for f in dataclasses.fields(bouquet)})


def quadratics(section, point):
    """The recovered quadratics at one point, as monomial -> nonzero coefficient."""
    (rows,) = section.recover_quadratics([point])
    return [{m: c for m, c in zip(section.system.monomials, row.tolist()) if c} for row in rows]


def kupa_chart_x():
    fam, system, ideal, outcome = build(
        [["x^2", "x*y"], ["x*y", "y^2"]], ["x", "y"], [CenterSpec((), ("x", "y"))],
        fibers=["X", "Y"],
    )
    chart = outcome.root.find(("x",))
    return plucker_section(chart, system, ideal)


class TestPluckerSection:
    def test_recovered_quadratic_matches_closed_form(self):
        section = kupa_chart_x()
        # at (u, v) the surviving quadratic is a unit multiple of
        # -v*X^2 + (1 - v^2)*X*Y + v*Y^2
        for u, v in ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(-1, 2))):
            (quad,) = quadratics(section, {"u": u, "v": v})
            vec = np.array(
                [quad.get((0, 0), 0.0), quad.get((0, 1), 0.0), quad.get((1, 1), 0.0)]
            )
            expected = np.array([-float(v), 1 - float(v) ** 2, float(v)])
            cross = np.linalg.norm(np.cross(vec, expected))
            assert cross < 1e-12 * max(1.0, np.linalg.norm(vec) * np.linalg.norm(expected))
            assert np.linalg.norm(vec) > 1e-12

    def test_exceptional_point_quadratic_is_cross_term(self):
        section = kupa_chart_x()
        (quad,) = quadratics(section, {"u": Fraction(0), "v": Fraction(0)})
        assert quad == {(0, 1): 1.0}

    def test_unresolved_chart_rejected(self):
        fam, system, ideal, outcome = build(
            [["x^2", "x*y"], ["x*y", "y^2"]], ["x", "y"], [], fibers=["X", "Y"]
        )
        with pytest.raises(UnresolvedChart):
            plucker_section(outcome.root, system, ideal)

    def test_diag_constant_coordinate(self):
        fam, system, ideal, outcome = build([["x", "0"], ["0", "y"]], ["x", "y"], [])
        section = plucker_section(outcome.root, system, ideal)
        (quad,) = quadratics(section, {"x": Fraction(2), "y": Fraction(5)})
        assert quad == {(0, 1): 1.0}


class TestCommonDenominator:
    def test_reads_each_coordinate_as_its_exact_rational(self):
        # ints, Fractions and floats alike, alone and mixed in one batch
        values = [3, Fraction(-2, 3), 0.1, -0.75, 0.0, Fraction(5, 7), 2.0**-60]
        for chosen in [[x] for x in values] + [values]:
            numerators, den = common_denominator([{"u": x} for x in chosen], ["u"])
            assert den == math.lcm(*(Fraction(x).denominator for x in chosen))
            assert [Fraction(a, den) for a in numerators["u"]] == [Fraction(x) for x in chosen]


class TestExtractBouquet:
    def test_generic_point_lines(self):
        section = kupa_chart_x()
        bouquet = extract(section, {"u": Fraction(1), "v": Fraction(2)})
        assert bouquet.patterns == [(1, 1)]
        # eigenvalue 5 with direction (1, 2), eigenvalue 0 with (-2, 1)
        by_value = {round(value, 9): basis for value, basis in spaces(bouquet)}
        v5 = by_value[5.0][:, 0]
        v0 = by_value[0.0][:, 0]
        assert abs(abs(v5 @ np.array([1, 2]) / math.sqrt(5)) - 1) < 1e-10
        assert abs(abs(v0 @ np.array([-2, 1]) / math.sqrt(5)) - 1) < 1e-10

    def test_exceptional_point_axes(self):
        section = kupa_chart_x()
        bouquet = extract(section, {"u": Fraction(0), "v": Fraction(0)})
        assert bouquet.exceptional.tolist() == [True]
        bases = sorted(
            (basis[:, 0] for _, basis in spaces(bouquet)),
            key=lambda b: abs(float(b[0])),
        )
        assert abs(abs(float(bases[1][0])) - 1) < 1e-7  # e1
        assert abs(abs(float(bases[0][1])) - 1) < 1e-7  # e2
        assert bouquet.quad_residual[0] <= 1e-7

    def test_float_point_extraction_matches_exact(self):
        # a float is the dyadic rational it stands for: the same bouquet as
        # that rational, bit for bit, on the exceptional line u = 0 as well
        section = kupa_chart_x()
        for u, v in ((0.5, 0.75), (0.0, 1 / 3)):
            exact = extract(section, {"u": Fraction(u), "v": Fraction(v)})
            floated = extract(section, {"u": u, "v": v})
            assert floated.exceptional[0] == exact.exceptional[0] == (u == 0)
            assert same_grid(floated, exact)

    def test_multiplicities_sum_to_fiber_dimension(self):
        section = kupa_chart_x()
        for pt in ({"u": Fraction(1), "v": Fraction(1, 3)}, {"u": Fraction(0), "v": Fraction(1)}):
            bouquet = extract(section, pt)
            assert sum(bouquet.patterns[0]) == 2
            assert bouquet.patterns == [(1, 1)]  # generic tuple everywhere

    def test_scalar_like_full_fiber(self):
        # diag(x, y) at a point x = y is a discriminant point; the bouquet
        # still has two coordinate lines by the limit construction
        fam, system, ideal, outcome = build([["x", "0"], ["0", "y"]], ["x", "y"], [])
        section = plucker_section(outcome.root, system, ideal)
        bouquet = extract(section, {"x": Fraction(1), "y": Fraction(1)})
        assert bouquet.exceptional.tolist() == [True]
        assert bouquet.patterns == [(1, 1)]
        for _, basis in spaces(bouquet):
            k = int(np.argmax(np.abs(basis[:, 0])))
            assert abs(abs(float(basis[k, 0])) - 1) < 1e-7


class TestBatchedExtraction:
    def test_bouquets_do_not_depend_on_the_batch(self):
        # a point's bouquet is the same alone and among others, exceptional
        # points (u = 0) included
        section = kupa_chart_x()
        points = [{"u": Fraction(u, 3), "v": Fraction(v, 2)} for u in (-1, 0, 2) for v in (-2, 1)]
        together = extract_bouquets(section, points)
        assert together.exceptional.tolist() == [u == 0 for u in (-1, 0, 2) for _ in (-2, 1)]
        for i, point in enumerate(points):
            assert same_grid(extract(section, point), at(together, i))

    def test_nonconvergence_names_the_grid_point(self, monkeypatch):
        # the 13th point off the discriminant of a 5 x 5 grid on kupa's chart,
        # whose line u = 0 (indices 10-14) is exceptional, is grid index 17
        def failing(matrices):
            err = oracle.JacobiNonConvergence("no convergence after 60 sweeps")
            err.member = 12
            raise err

        monkeypatch.setattr(frames, "eigh_jacobi", failing)
        message = r"at grid index 17, base point \{'x': 0\.5, 'y': 0\.0\}$"  # (u, v) = (1/2, 0)
        with pytest.raises(oracle.JacobiNonConvergence, match=message):
            local_frame_and_eigenvalues(kupa_chart_x(), GridSpec((5, 5)))


class TestLocalFrames:
    def test_kupa_grid_eigenvalue_functions(self):
        section = kupa_chart_x()
        grid = GridSpec((9, 9))
        report = local_frame_and_eigenvalues(section, grid)
        assert not report.failing, report.labeling_flags
        assert report.max_oracle_angle <= 1e-8
        # eigenvalues are 0 and u^2 (1 + v^2) on the chart
        values = {0: [], 1: []}
        for comp_idx, comp in enumerate(report.components):
            values[comp_idx] = comp.eigenvalues
        for k, pt in enumerate(report.points):
            u, v = float(pt[0]), float(pt[1])
            expected = sorted([0.0, u * u * (1 + v * v)])
            got = sorted([report.components[0].eigenvalues[k], report.components[1].eigenvalues[k]])
            assert abs(got[0] - expected[0]) <= 1e-10
            assert abs(got[1] - expected[1]) <= 1e-10

    def test_diag_constant_frame(self):
        fam, system, ideal, outcome = build([["x", "0"], ["0", "y"]], ["x", "y"], [])
        section = plucker_section(outcome.root, system, ideal)
        report = local_frame_and_eigenvalues(section, GridSpec((5, 5)))
        # frames are constantly the coordinate axes; eigenvalues x and y
        for comp in report.components:
            anchor = comp.frames[0][:, 0]
            for frame in comp.frames:
                assert subspace_angle(frame, comp.frames[0]) < 1e-9
        for k, pt in enumerate(report.points):
            x, y = float(pt[0]), float(pt[1])
            got = sorted(c.eigenvalues[k] for c in report.components)
            assert np.allclose(got, sorted([x, y]), atol=1e-11)

    def test_traceless_smooth_through_origin(self):
        fam, system, ideal, outcome = build(
            [["x", "y"], ["y", "-x"]], ["x", "y"], [CenterSpec((), ("x", "y"))]
        )
        chart = outcome.root.find(("x",))
        section = plucker_section(chart, system, ideal)
        report = local_frame_and_eigenvalues(section, GridSpec((9, 9)))
        assert not report.failing
        # tracked eigenvalue functions are +- u sqrt(1 + v^2): smooth in u
        for comp in report.components:
            sign = None
            for k, pt in enumerate(report.points):
                u, v = float(pt[0]), float(pt[1])
                expected = u * math.sqrt(1 + v * v)
                got = comp.eigenvalues[k]
                if abs(expected) > 1e-12:
                    s = 1.0 if abs(got - expected) < abs(got + expected) else -1.0
                    if sign is None:
                        sign = s
                    assert s == sign  # one analytic branch per component
                    assert abs(got - sign * expected) <= 1e-8


class TestFrameOracle:
    def test_oracle_catches_a_skewed_bouquet_solver(self, monkeypatch):
        # bouquets whose bases are all turned by 1e-6 rad must fail the frame
        # oracle, which only an independent reference solver can see
        turn = 1e-6

        def skewed_solver(matrices):
            spectra = oracle.eigh_jacobi(matrices)
            rotation = np.eye(spectra.vectors.shape[1])
            rotation[:2, :2] = [[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]]
            return spectra._replace(vectors=rotation @ spectra.vectors)

        monkeypatch.setattr(frames, "eigh_jacobi", skewed_solver)
        # even grid counts miss the exceptional line u = 0
        report = local_frame_and_eigenvalues(kupa_chart_x(), GridSpec((4, 4)))
        assert not any(report.exceptional_mask)
        assert abs(report.max_oracle_angle - turn) < 1e-9
        assert report.max_oracle_angle > DEFAULT_ANGLE_TOL
        assert report.failing


def count_calls(monkeypatch, log, name, owners, size=lambda first, *rest: len(first)):
    """Replace owner.name on every owner by a wrapper appending
    size(*arguments) to log[name]."""
    real = getattr(owners[0], name)

    def counting(*args, **kwargs):
        log.setdefault(name, []).append(size(*args))
        return real(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)


class TestWorkDoneOnce:
    """Frames work in whole-grid batches: the counts are of batch shapes."""

    def test_kupa_demo_counts(self, monkeypatch):
        log: dict[str, list] = {}
        frame_runs, extrapolations = [], []
        count_calls(monkeypatch, log, "eigh_jacobi", [oracle, frames])
        count_calls(monkeypatch, log, "principal_angles", [oracle, frames])
        count_calls(monkeypatch, log, "polar_factor", [oracle, frames])
        count_calls(monkeypatch, log, "family_matrix", [frames], size=lambda fam, base, count: count)
        count_calls(monkeypatch, log, "eval_integer", [Polynomial], size=lambda p, nums, den, count: count)
        count_calls(monkeypatch, log, "substitute", [Polynomial], size=lambda *args: 1)
        count_calls(
            monkeypatch, log, "recover_quadratics", [frames.PluckerSection], size=lambda s, pts: len(pts)
        )

        real_frames = frames.local_frame_and_eigenvalues

        def counting_frames(section, grid, **kwargs):
            before = {k: len(v) for k, v in log.items()}
            report = real_frames(section, grid, **kwargs)
            frame_runs.append(({k: v[before.get(k, 0):] for k, v in log.items()}, report, section.chart))
            return report

        real_extrapolate = frames.extrapolate_along_curve

        def counting_extrapolate(clustered, curves):
            before = {k: len(log.get(k, [])) for k in ("principal_angles", "polar_factor")}
            limits = real_extrapolate(clustered, curves)
            # one angle per (curve, later radius, component, candidate)
            patterns = oracle.slot_patterns(clustered[2], len(clustered[0]))
            expected = sum(
                patterns[row].count(m)
                for rows in curves.tolist()
                for row in rows[1:]
                for m in patterns[rows[0]]
            )
            extrapolations.append(({k: log[k][n:] for k, n in before.items()}, len(curves), expected))
            return limits

        stage_runs: dict[str, list] = {}

        def counting_stage(name):
            real_stage = getattr(cli, name)

            def counting(state):
                before = {k: len(v) for k, v in log.items()}
                real_stage(state)
                stage_runs.setdefault(name, []).append({k: v[before.get(k, 0):] for k, v in log.items()})
                return state

            monkeypatch.setattr(cli, name, counting)

        monkeypatch.setattr(frames, "local_frame_and_eigenvalues", counting_frames)
        monkeypatch.setattr(frames, "extrapolate_along_curve", counting_extrapolate)
        counting_stage("stage_frames")
        counting_stage("stage_check")
        cfg = cli.JobConfig.from_dict({**cli.FIXTURES["kupa"], "grid": {"points_per_axis": 9}})
        code, report = cli.run_job(cfg, ("analyze", "resolve", "frames", "check"))
        assert code == cli.EXIT_PASS
        # check's cluster count solves all its points off the discriminant in
        # one Jacobi stack
        counted = {item["name"]: item for item in report["invariants"]}
        hits = counted["oracle_cluster_count_off_discriminant"]["count"]
        assert 0 < hits <= 100
        assert stage_runs["stage_check"][0]["eigh_jacobi"] == [hits]
        # resolve pulls the minors back to the charts, which carry them: the
        # frames stage substitutes nothing
        assert log["substitute"] and not stage_runs["stage_frames"][0].get("substitute")
        assert len(frame_runs) == 2
        curves = 0
        for calls, report, chart in frame_runs:
            exceptional = sum(report.exceptional_mask)
            curves += exceptional
            assert len(report.points) == 81 and exceptional
            # one exact batch for the whole grid (weak generators, base point
            # and pulled minors at its 81 points), one exact batch of the
            # curve points of every exceptional point on the first heading
            assert calls["recover_quadratics"] == [81]
            per_batch = len(chart.to_base) + len(chart.pulled_minors)
            assert calls["eval_integer"] == (
                [81] * (len(chart.weak_gens) + per_batch) + [6 * exceptional] * per_batch
            )
            assert calls["family_matrix"] == [81, 6 * exceptional]
            # two Jacobi stacks: the grid off the discriminant and the six
            # points of every curve
            assert calls["eigh_jacobi"] == [81 - exceptional, 6 * exceptional]
            # principal angles: in the curve chains one stack per (later
            # radius, component, candidate slot), each over every curve of the
            # heading; then one label stack of every line pair of the 80 points
            # with their predecessors (2 x 2 each), and one oracle stack per
            # component of both LAPACK lines at each point off the discriminant
            assert len(report.components) == 2
            off = 81 - exceptional
            assert calls["principal_angles"] == [exceptional] * 20 + [80 * 4] + [2 * off] * 2
            # polar factors: the curve chains align their five later radii in
            # one stack of all curves per component and radius, never one pair
            # at a time; then the walk's one stack of the 80 points after the
            # first per component
            assert calls["polar_factor"] == [exceptional] * 10 + [80] * 2
        # one chain batch per chart, on the first heading: five later radii,
        # two lines, two candidate lines each
        assert [count for _, count, _ in extrapolations] == [sum(r.exceptional_mask) for _, r, _ in frame_runs]
        for stacks, count, expected in extrapolations:
            assert sum(stacks["principal_angles"]) == expected == 20 * count
            assert stacks == {"principal_angles": [count] * 20, "polar_factor": [count] * 10}

    def test_normal_rotation_counts(self, monkeypatch):
        log: dict[str, list] = {}
        count_calls(monkeypatch, log, "family_matrix", [realnormal], size=lambda fam, base, count: count)
        count_calls(monkeypatch, log, "arcp_extract", [realnormal])
        count_calls(monkeypatch, log, "complexified_eigenvalues", [realnormal])
        real_recover = frames.PluckerSection.recover_quadratics

        def counting_recover(section, points):
            log.setdefault("recover_quadratics", []).append(len(points))
            return real_recover(section, points)

        monkeypatch.setattr(frames.PluckerSection, "recover_quadratics", counting_recover)
        stage_runs = []
        real_stage = cli.stage_frames

        def counting_stage(state):
            before = {k: len(v) for k, v in log.items()}
            real_stage(state)
            stage_runs.append({k: len(v) - before.get(k, 0) for k, v in log.items()})
            return state

        monkeypatch.setattr(cli, "stage_frames", counting_stage)
        cfg = cli.JobConfig.from_dict(
            {
                "structure": "normal",
                "params": ["x", "y"],
                "matrix": [["x", "y"], ["-y", "x"]],
                "resolution": [],
                "grid": {"points_per_axis": 5},
            }
        )
        code, report = cli.run_job(cfg, ("analyze", "resolve", "frames", "check"))
        assert code == cli.EXIT_PASS
        assert len(report["arcp"]["charts"]) == 1
        # one exact batch of all 25 grid points for the frames, and one float
        # stack of L for the plane check, decomposed and solved as a whole
        assert log["recover_quadratics"] == [25]
        assert log["family_matrix"] == log["arcp_extract"] == log["complexified_eigenvalues"] == [25]
        assert stage_runs == [
            {"recover_quadratics": 1, "family_matrix": 1, "arcp_extract": 1, "complexified_eigenvalues": 1}
        ]


def same_bouquets(frame, values, pattern, want) -> bool:
    """A limit bouquet as a frame, its column values and pattern equals the
    reference's Clusters: order, multiplicities, values and basis bits."""
    return (
        pattern == tuple(c.multiplicity for c in want)
        and values.tolist() == [c.value for c in want for _ in range(c.multiplicity)]
        and frame.tobytes() == reference.frame_stack([want])[0].tobytes()
    )


FRAME_JOBS = ["kupa", "rellich", "skew2", "diag3", "hermitian_vortex", "normal_rotation"]


class TestBatchedCurveStep:
    """The curve step stacks every chain, cluster, Rayleigh value and residual
    of a heading; each exceptional point still gets what the per-curve
    reference gives it, bit for bit."""

    @pytest.mark.parametrize("seed", [42, 7, 38])
    @pytest.mark.parametrize("job", FRAME_JOBS)
    def test_every_chart_matches_the_per_curve_reference(self, monkeypatch, job, seed):
        config = next(j.config for j in bench_jobs() if j.name == job)
        real = frames._extrapolate_bouquets
        charts = []

        def both(section, points, exc, matrices, quads, cluster_tol):
            got = real(section, points, exc, matrices, quads, cluster_tol)
            want = reference.extrapolate_bouquets_per_curve(
                section, points, exc, matrices, quads, cluster_tol
            )
            assert len(got[0]) == len(got[1]) == len(got[2]) == len(want) == len(exc)
            assert all(same_bouquets(*g, w) for g, w in zip(zip(*got), want))
            charts.append(section.chart.path)
            return got

        monkeypatch.setattr(frames, "_extrapolate_bouquets", both)
        cfg = cli.JobConfig.from_dict(dict(config, seed=seed))
        code, report = cli.run_job(cfg, ("analyze", "resolve", "frames"))
        assert code == cli.EXIT_PASS
        # every chart with exceptional points, each once: its first heading works
        assert charts == [tuple(f["chart"]) for f in report["frames"] if any(f["exceptional"])] != []

    def kupa_curves(self):
        section = kupa_chart_x()
        names = section.chart.universe.params
        points = [dict(zip(names, pt)) for pt in GridSpec((9, 9)).points()]
        _, on_disc, matrices, _, _ = frames._spectra_at(section, points, str)
        exc = np.flatnonzero(on_disc)
        quads = section.recover_quadratics(points)
        assert quads.shape[1:] == (1, 3) and exc.size == 9
        return section, points, exc, matrices, quads

    def test_a_quadratic_residual_fails_one_curve(self):
        section, points, exc, matrices, quads = self.kupa_curves()
        quads[exc[4]] = 1.0  # X^2 + XY + Y^2 vanishes on no unit vector
        names = section.chart.universe.params
        start = np.array([[float(points[i][n]) for n in names] for i in exc])
        delta = next(frames._transversal_directions(len(names)))
        limits, values, got = frames._curve_limits(section, start, exc, delta, matrices, quads, 1e-6)
        want = reference.curve_limits_per_curve(section, start, exc, delta, matrices, quads, 1e-6)
        assert str(got[4]).startswith("recovered quadratics do not vanish")
        assert isinstance(want[4], oracle.ExtrapolationError) and str(got[4]) == str(want[4])
        assert all(same_bouquets(limits[j], values[j], got[j], want[j]) for j in range(len(exc)) if j != 4)

    def test_failing_every_heading_names_the_first_pending_point(self):
        section, points, exc, matrices, quads = self.kupa_curves()
        quads[exc[[6, 2]]] = 1.0  # at two points, failing on every heading
        with pytest.raises(oracle.ExtrapolationError) as got:
            frames._extrapolate_bouquets(section, points, exc, matrices, quads, 1e-6)
        with pytest.raises(oracle.ExtrapolationError) as want:
            reference.extrapolate_bouquets_per_curve(section, points, exc, matrices, quads, 1e-6)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"extrapolation failed at {points[exc[2]]!r} in every direction: ")


class TestLimitUniqueness:
    def test_unique_limit_on_chart(self):
        section = kupa_chart_x()
        angle = limit_uniqueness_check(section, {"u": Fraction(0), "v": Fraction(1)})
        assert angle <= 1e-6

    def test_pre_blowup_direction_dependence(self):
        # approached along the x-axis vs the diagonal, the eigenspaces of the
        # base family have different limits at the origin: angle pi/4
        from reference import limits_along, pairs, spectral_sample

        radii = [2.0 ** -k for k in range(3, 9)]
        axis_samples = [
            pairs(spectral_sample(np.array([[t * t, 0.0], [0.0, 0.0]])).clusters) for t in radii
        ]
        diag_samples = [
            pairs(spectral_sample(t * t * np.array([[1.0, 1.0], [1.0, 1.0]])).clusters) for t in radii
        ]
        ax, dg = limits_along([axis_samples, diag_samples])
        # the last component in slot order: the top sample eigenvalue's
        ax_top, dg_top = ax[-1][1], dg[-1][1]
        angle = subspace_angle(ax_top, dg_top)
        assert abs(angle - math.pi / 4) <= 1e-9

    def test_constant_family_zero_angle(self):
        fam, system, ideal, outcome = build(
            [["1", "2"], ["2", "1"]], ["x", "y"], []
        )
        section = plucker_section(outcome.root, system, ideal)
        angle = limit_uniqueness_check(section, {"x": Fraction(1, 2), "y": Fraction(0)})
        assert angle <= 1e-9


class TestLabelingFlags:
    """Crafted bouquets on a two-point grid reach each labeling flag."""

    E = np.eye(3)

    @staticmethod
    def bouquet(*spaces):
        """One crafted per-point bouquet, for the frozen reference walk;
        reference.as_grid stacks them for the frame pass."""
        subspaces = [reference.Cluster(value, basis.shape[1], basis) for value, basis in spaces]
        frames, _, _ = reference.clustered([spaces])
        return reference.BouquetAtPoint((), {}, subspaces, False, 0.0, 0.0, np.diag([1.0, 2.0, 3.0]), frames[0])

    def run_frames(self, monkeypatch, bouquets):
        calls = []

        def crafted(section, points, *args):
            calls.append(len(points))
            return reference.as_grid(bouquets)

        monkeypatch.setattr(frames, "extract_bouquets", crafted)
        report = local_frame_and_eigenvalues(kupa_chart_x(), GridSpec((1, 2)))
        assert calls == [2]
        return report

    def test_ambiguous_labeling(self, monkeypatch):
        # e1's nearest line at the second point is at pi/4 from two candidates
        e = self.E
        report = self.run_frames(
            monkeypatch,
            [
                self.bouquet((1.0, e[:, [0]]), (2.0, e[:, [1]]), (3.0, e[:, [2]])),
                self.bouquet(
                    (1.0, (e[:, [0]] + e[:, [1]]) / math.sqrt(2)),
                    (2.0, (e[:, [0]] - e[:, [1]]) / math.sqrt(2)),
                    (3.0, e[:, [2]]),
                ),
            ],
        )
        assert report.labeling_flags == ["ambiguous labeling at grid index 1"]

    def test_frame_alignment_degenerate(self, monkeypatch):
        # the plane span(e1, e2) is matched to span(e1, e3), which is
        # orthogonal to it along one direction: Procrustes has no rotation
        e = self.E
        report = self.run_frames(
            monkeypatch,
            [
                self.bouquet((1.0, e[:, [0, 1]]), (3.0, e[:, [2]])),
                self.bouquet((1.0, e[:, [0, 2]]), (2.0, e[:, [1]])),
            ],
        )
        assert report.labeling_flags == ["frame alignment degenerate at grid index 1"]

    def test_missing_dimension_raises(self, monkeypatch):
        # two lines merge into a plane: the line slots find no candidate
        e = self.E
        message = r"dimension 1 at grid index 1: .*\(1, 1, 1\) at grid index 0, \(2, 1\) here"
        with pytest.raises(frames.LabelingError, match=message):
            self.run_frames(
                monkeypatch,
                [
                    self.bouquet((1.0, e[:, [0]]), (2.0, e[:, [1]]), (3.0, e[:, [2]])),
                    self.bouquet((1.0, e[:, [0, 1]]), (3.0, e[:, [2]])),
                ],
            )

    def test_missing_dimension_names_the_first_index(self, monkeypatch):
        # on a 2 x 3 grid, point 2 (depth 2) and point 3 (depth 1) both lose
        # their lines; the walk in index order stops at point 2 first
        e = self.E
        lines = self.bouquet((1.0, e[:, [0]]), (2.0, e[:, [1]]), (3.0, e[:, [2]]))
        merged = self.bouquet((1.0, e[:, [0, 1]]), (3.0, e[:, [2]]))
        bouquets = [lines, lines, merged, merged, lines, lines]
        monkeypatch.setattr(frames, "extract_bouquets", lambda *args: reference.as_grid(bouquets))
        with pytest.raises(frames.LabelingError, match=r"at grid index 2: .*\(1, 1, 1\) at grid index 1, "):
            local_frame_and_eigenvalues(kupa_chart_x(), GridSpec((2, 3)))
        with pytest.raises(ValueError, match=r"at grid index 2$"):
            reference.walk_level_by_level(bouquets, (2, 3))


class TestFrameStackWalk:
    """The grid's bouquet, labels, label angles, the walk and the frame oracle
    run on arrays; each matches its frozen per-point reference: the
    GridBouquet and the angles bit for bit, the walk's labels and flags
    exactly and its frames within 1e-13."""

    @pytest.mark.parametrize("seed", [42, 7, 38])
    @pytest.mark.parametrize("job", FRAME_JOBS)
    def test_every_chart_matches_the_references(self, monkeypatch, job, seed):
        config = next(j.config for j in bench_jobs() if j.name == job)
        seen: dict[str, list] = {}

        def recording(owner, name):
            real = getattr(owner, name)

            def record(*args, **kwargs):
                got = real(*args, **kwargs)
                seen.setdefault(name, []).append((args, got))
                return got

            monkeypatch.setattr(owner, name, record)

        for name in ("extract_bouquets", "_label_angles", "_aligned_frames"):
            recording(frames, name)
        recording(frames, "local_frame_and_eigenvalues")
        cfg = cli.JobConfig.from_dict(dict(config, seed=seed))
        assert cli.run_job(cfg, ("analyze", "resolve", "frames"))[0] == cli.EXIT_PASS
        runs = [seen[name] for name in ("local_frame_and_eigenvalues", "extract_bouquets", "_label_angles")]
        assert len({len(run) for run in runs}) == 1 and runs[0]
        walks = iter(seen["_aligned_frames"])
        for (_, ran), (extracted, grid), (_, angles) in zip(*runs):
            bouquets = reference.extract_bouquets_per_point(*extracted)
            assert same_grid(grid, reference.as_grid(bouquets))
            counts = ran.grid.counts
            previous = [None] + [reference.neighbor_index(i, counts) for i in range(1, len(bouquets))]
            assert angles.tobytes() == reference.label_angles_per_pair(bouquets, previous).tobytes()
            assert ran.max_oracle_angle == reference.oracle_angle_per_cluster(bouquets, ran.components, cfg.tol_cluster)
            labels, want, flags = reference.walk_level_by_level(bouquets, counts)
            assert ran.labeling_flags == flags
            starts = [np.cumsum([0, *b.multiplicities]) for b in bouquets]
            for c, comp in enumerate(ran.components):
                (_, cols, dim, _, _), (aligned, _) = next(walks)
                assert dim == comp.dim and cols.tolist() == [s[taken[c]] for s, taken in zip(starts, labels)]
                assert aligned is comp.frames and np.abs(aligned - want[c]).max() <= 1e-13
        assert next(walks, None) is None

    @pytest.mark.parametrize(
        "counts", [(1,), (6,), (1, 2), (2, 1), (3, 4), (9, 9), (2, 1, 3), (4, 1, 1), (7, 7, 7), (3, 2, 2, 3)]
    )
    def test_neighbor_tree_matches_the_per_point_walk(self, counts):
        previous, depth = frames._neighbor_tree(counts)
        assert previous.tolist() == [0] + [reference.neighbor_index(i, counts) for i in range(1, math.prod(counts))]
        want = [0]
        for i in range(1, math.prod(counts)):
            want.append(want[reference.neighbor_index(i, counts)] + 1)
        assert depth.tolist() == want

    E = np.eye(3)

    def crafted(self, monkeypatch, spaces_per_point):
        """The frame report and the reference walk of crafted bouquets on a
        1 x len(spaces_per_point) grid."""
        bouquets = [TestLabelingFlags.bouquet(*spaces) for spaces in spaces_per_point]
        monkeypatch.setattr(frames, "extract_bouquets", lambda *args: reference.as_grid(bouquets))
        report = local_frame_and_eigenvalues(kupa_chart_x(), GridSpec((1, len(bouquets))))
        return report, reference.walk_level_by_level(bouquets, (1, len(bouquets)))

    @staticmethod
    def rotation(axis, angle):
        axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
        k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
        return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)

    def test_plane_over_a_chain_of_levels(self, monkeypatch):
        # a plane that tilts by 0.2 rad and turns its basis by 1 rad inside
        # itself at each of five levels: the chained turns undo every twist
        q, points = self.rotation([1, 2, 3], 0.7), []
        for k in range(6):
            q = q @ self.rotation([3, -1, 2 + k], 0.2)
            twist = self.rotation([0, 0, 1], 1.0 * k)[:2, :2]
            points.append(((1.0, q[:, :2] @ twist), (3.0, q[:, 2:] * (-1) ** k)))
        report, (_, want, flags) = self.crafted(monkeypatch, points)
        assert report.labeling_flags == flags == []
        assert [c.dim for c in report.components] == [1, 2]
        for comp, frame in zip(report.components, want):
            assert np.abs(comp.frames - frame).max() <= 1e-13
            # consecutive aligned frames stay close: no twist survives
            steps = np.abs(np.diff(comp.frames, axis=0)).max()
            assert steps < 0.5

    def test_orthogonal_line_keeps_its_own_sign(self, monkeypatch):
        # at point 1 the line e2 is orthogonal to the anchor's (M = 0): it
        # keeps its own basis unflagged, not the anchor's sign flip, and the
        # chain goes on from there; the plane span(e1, e3) against
        # span(e2, e3) is degenerate and flagged
        e, t = self.E, 0.3
        tilted = -(math.cos(t) * e[:, [1]] + math.sin(t) * e[:, [0]])
        plane = np.hstack([math.cos(t) * e[:, [0]] - math.sin(t) * e[:, [1]], e[:, [2]]])
        report, (_, want, flags) = self.crafted(
            monkeypatch,
            [
                ((1.0, -e[:, [0]]), (2.0, e[:, [1, 2]])),
                ((1.0, e[:, [1]]), (2.0, e[:, [0, 2]])),
                ((1.0, tilted), (2.0, plane)),
                ((1.0, -tilted), (2.0, plane[:, ::-1])),
            ],
        )
        assert report.labeling_flags == flags == ["frame alignment degenerate at grid index 1"]
        line = report.components[0].frames
        assert np.array_equal(line[:2], [e[:, [0]], e[:, [1]]])
        assert np.allclose(line[2], -tilted) and np.allclose(line[3], -tilted)
        for comp, frame in zip(report.components, want):
            assert np.abs(comp.frames - frame).max() <= 1e-13

    def test_degenerate_plane_matches_the_reference(self, monkeypatch):
        e = self.E
        report, (_, want, flags) = self.crafted(
            monkeypatch,
            [
                ((1.0, e[:, [0, 1]]), (3.0, e[:, [2]])),
                ((1.0, e[:, [0, 2]]), (2.0, e[:, [1]])),
            ],
        )
        assert report.labeling_flags == flags == ["frame alignment degenerate at grid index 1"]
        for comp, frame in zip(report.components, want):
            assert comp.frames.tobytes() == frame.tobytes()

