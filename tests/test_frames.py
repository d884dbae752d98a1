import math
from fractions import Fraction

import numpy as np
import pytest

from eigenbouquet import cli, frames, oracle, realnormal
from eigenbouquet.bouquet import fitting_minors, generic_rank, wedge_quadratics
from eigenbouquet.family import MatrixFamily, check_structure
from eigenbouquet.frames import (
    DEFAULT_ANGLE_TOL,
    GridSpec,
    UnresolvedChart,
    extract_bouquet_at_point,
    limit_uniqueness_check,
    local_frame_and_eigenvalues,
    plucker_section,
)
from eigenbouquet.oracle import subspace_angle
from eigenbouquet.resolve import CenterSpec, ChartNode, run_sequence


def build(entries, params, centers, fibers=None):
    fam = check_structure(
        MatrixFamily.from_strings(entries, params, "symmetric", fibers=fibers)
    )
    system = wedge_quadratics(fam)
    generic_rank(system)
    ideal = fitting_minors(system)
    outcome = run_sequence(ideal.gens, fam.universe, centers)
    return fam, system, ideal, outcome


def kupa_chart_x():
    fam, system, ideal, outcome = build(
        [["x^2", "x*y"], ["x*y", "y^2"]], ["x", "y"], [CenterSpec((), ("x", "y"))],
        fibers=["X", "Y"],
    )
    chart = outcome.root.find(("x",))
    return plucker_section(chart, system, ideal, ideal.gens)


class TestPluckerSection:
    def test_recovered_quadratic_matches_closed_form(self):
        section = kupa_chart_x()
        # at (u, v) the surviving quadratic is a unit multiple of
        # -v*X^2 + (1 - v^2)*X*Y + v*Y^2
        for u, v in ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(-1, 2))):
            (quad,) = section.recover_quadratics({"u": u, "v": v})
            vec = np.array(
                [quad.get((0, 0), 0.0), quad.get((0, 1), 0.0), quad.get((1, 1), 0.0)]
            )
            expected = np.array([-float(v), 1 - float(v) ** 2, float(v)])
            cross = np.linalg.norm(np.cross(vec, expected))
            assert cross < 1e-12 * max(1.0, np.linalg.norm(vec) * np.linalg.norm(expected))
            assert np.linalg.norm(vec) > 1e-12

    def test_exceptional_point_quadratic_is_cross_term(self):
        section = kupa_chart_x()
        (quad,) = section.recover_quadratics({"u": Fraction(0), "v": Fraction(0)})
        assert quad == {(0, 1): 1.0}

    def test_unresolved_chart_rejected(self):
        fam, system, ideal, outcome = build(
            [["x^2", "x*y"], ["x*y", "y^2"]], ["x", "y"], [], fibers=["X", "Y"]
        )
        with pytest.raises(UnresolvedChart):
            plucker_section(outcome.root, system, ideal, ideal.gens)

    def test_diag_constant_coordinate(self):
        fam, system, ideal, outcome = build([["x", "0"], ["0", "y"]], ["x", "y"], [])
        section = plucker_section(outcome.root, system, ideal, ideal.gens)
        (quad,) = section.recover_quadratics({"x": Fraction(2), "y": Fraction(5)})
        assert quad == {(0, 1): 1.0}


class TestExtractBouquet:
    def test_generic_point_lines(self):
        section = kupa_chart_x()
        bouquet = extract_bouquet_at_point(section, {"u": Fraction(1), "v": Fraction(2)})
        assert bouquet.multiplicities == (1, 1)
        # eigenvalue 5 with direction (1, 2), eigenvalue 0 with (-2, 1)
        by_value = {round(s.value, 9): s for s in bouquet.subspaces}
        v5 = by_value[5.0].basis[:, 0]
        v0 = by_value[0.0].basis[:, 0]
        assert abs(abs(v5 @ np.array([1, 2]) / math.sqrt(5)) - 1) < 1e-10
        assert abs(abs(v0 @ np.array([-2, 1]) / math.sqrt(5)) - 1) < 1e-10

    def test_exceptional_point_axes(self):
        section = kupa_chart_x()
        bouquet = extract_bouquet_at_point(section, {"u": Fraction(0), "v": Fraction(0)})
        assert bouquet.exceptional
        bases = sorted(
            (s.basis[:, 0] for s in bouquet.subspaces),
            key=lambda b: abs(float(b[0])),
        )
        assert abs(abs(float(bases[1][0])) - 1) < 1e-7  # e1
        assert abs(abs(float(bases[0][1])) - 1) < 1e-7  # e2
        assert bouquet.quad_residual <= 1e-7

    def test_float_point_extraction_matches_exact(self):
        section = kupa_chart_x()
        exact = extract_bouquet_at_point(section, {"u": Fraction(1, 2), "v": Fraction(3, 4)})
        floated = extract_bouquet_at_point(section, {"u": 0.5, "v": 0.75})
        assert exact.multiplicities == floated.multiplicities
        for se, sf in zip(exact.subspaces, floated.subspaces):
            assert subspace_angle(se.basis, sf.basis) <= 1e-10
            assert abs(se.value - sf.value) <= 1e-12

    def test_multiplicities_sum_to_fiber_dimension(self):
        section = kupa_chart_x()
        for pt in ({"u": Fraction(1), "v": Fraction(1, 3)}, {"u": Fraction(0), "v": Fraction(1)}):
            bouquet = extract_bouquet_at_point(section, pt)
            assert sum(bouquet.multiplicities) == 2
            assert bouquet.multiplicities == (1, 1)  # generic tuple everywhere

    def test_scalar_like_full_fiber(self):
        # diag(x, y) at a point x = y is a discriminant point; the bouquet
        # still has two coordinate lines by the limit construction
        fam, system, ideal, outcome = build([["x", "0"], ["0", "y"]], ["x", "y"], [])
        section = plucker_section(outcome.root, system, ideal, ideal.gens)
        bouquet = extract_bouquet_at_point(section, {"x": Fraction(1), "y": Fraction(1)})
        assert bouquet.exceptional
        assert bouquet.multiplicities == (1, 1)
        for s in bouquet.subspaces:
            k = int(np.argmax(np.abs(s.basis[:, 0])))
            assert abs(abs(float(s.basis[k, 0])) - 1) < 1e-7


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
        section = plucker_section(outcome.root, system, ideal, ideal.gens)
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
        section = plucker_section(chart, system, ideal, ideal.gens)
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

        def skewed_sample(matrix, tol=oracle.DEFAULT_CLUSTER_TOL):
            sample = oracle.spectral_sample(matrix, tol)
            rotation = np.eye(len(matrix))
            rotation[:2, :2] = [[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]]
            for cluster in sample.clusters:
                cluster.basis = rotation @ cluster.basis
            return sample

        monkeypatch.setattr(frames, "spectral_sample", skewed_sample)
        # even grid counts miss the exceptional line u = 0
        report = local_frame_and_eigenvalues(kupa_chart_x(), GridSpec((4, 4)))
        assert not any(report.exceptional_mask)
        assert abs(report.max_oracle_angle - turn) < 1e-9
        assert report.max_oracle_angle > DEFAULT_ANGLE_TOL
        assert report.failing


class TestWorkDoneOnce:
    def test_kupa_demo_counts(self, monkeypatch):
        counts = {"base_point": 0, "angle": 0}
        frame_runs, extrapolations = [], []

        real_base_point = ChartNode.base_point

        def counting_base_point(self, point):
            counts["base_point"] += 1
            return real_base_point(self, point)

        real_angle = oracle.subspace_angle

        def counting_angle(a, b):
            counts["angle"] += 1
            return real_angle(a, b)

        real_frames = cli.local_frame_and_eigenvalues

        def counting_frames(section, grid, **kwargs):
            before = counts["base_point"]
            report = real_frames(section, grid, **kwargs)
            frame_runs.append((counts["base_point"] - before, len(report.points)))
            return report

        real_extrapolate = frames.extrapolate_along_curve

        def counting_extrapolate(samples):
            before = counts["angle"]
            limits = real_extrapolate(samples)
            mults = samples[0].multiplicities
            expected = sum(
                sum(1 for c in s.clusters if c.multiplicity == m)
                for s in samples[1:]
                for m in mults
            )
            extrapolations.append((counts["angle"] - before, expected))
            return limits

        monkeypatch.setattr(ChartNode, "base_point", counting_base_point)
        monkeypatch.setattr(oracle, "subspace_angle", counting_angle)
        monkeypatch.setattr(cli, "local_frame_and_eigenvalues", counting_frames)
        monkeypatch.setattr(frames, "extrapolate_along_curve", counting_extrapolate)
        cfg = cli.JobConfig.from_dict({**cli.FIXTURES["kupa"], "grid": {"points_per_axis": 9}})
        code, _ = cli.run_job(cfg, ("analyze", "resolve", "frames", "check"))
        assert code == cli.EXIT_PASS
        # one exact base point per grid point inside each frames run
        assert len(frame_runs) == 2
        for calls, points in frame_runs:
            assert calls == points == 81
        # one angle per (sample, component, candidate) in every extrapolation:
        # five later radii, two lines, two candidate lines each
        assert extrapolations
        assert all(calls == expected == 20 for calls, expected in extrapolations)

    def test_normal_rotation_counts(self, monkeypatch):
        counts = {"base_point": 0, "family_matrix": 0}
        real_base_point = ChartNode.base_point

        def counting_base_point(self, point):
            counts["base_point"] += 1
            return real_base_point(self, point)

        real_family_matrix = realnormal.family_matrix

        def counting_family_matrix(fam, base_point):
            counts["family_matrix"] += 1
            return real_family_matrix(fam, base_point)

        stage_runs = []
        real_stage = cli.stage_frames

        def counting_stage(state):
            before = dict(counts)
            real_stage(state)
            stage_runs.append({k: counts[k] - before[k] for k in counts})
            return state

        monkeypatch.setattr(ChartNode, "base_point", counting_base_point)
        monkeypatch.setattr(realnormal, "family_matrix", counting_family_matrix)
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
        # one exact base point and one float L per grid point, frames and
        # plane check together
        assert stage_runs == [{"base_point": 25, "family_matrix": 25}]


class TestLimitUniqueness:
    def test_unique_limit_on_chart(self):
        section = kupa_chart_x()
        angle = limit_uniqueness_check(section, {"u": Fraction(0), "v": Fraction(1)})
        assert angle <= 1e-6

    def test_pre_blowup_direction_dependence(self):
        # approached along the x-axis vs the diagonal, the eigenspaces of the
        # base family have different limits at the origin: angle pi/4
        from eigenbouquet.oracle import extrapolate_along_curve, spectral_sample

        radii = [2.0 ** -k for k in range(3, 9)]
        axis_samples = [
            spectral_sample(np.array([[t * t, 0.0], [0.0, 0.0]])) for t in radii
        ]
        diag_samples = [
            spectral_sample(t * t * np.array([[1.0, 1.0], [1.0, 1.0]])) for t in radii
        ]
        ax = extrapolate_along_curve(axis_samples)
        dg = extrapolate_along_curve(diag_samples)
        ax_top = max(ax, key=lambda r: r[0])[2]
        dg_top = max(dg, key=lambda r: r[0])[2]
        angle = subspace_angle(ax_top, dg_top)
        assert abs(angle - math.pi / 4) <= 1e-9

    def test_constant_family_zero_angle(self):
        fam, system, ideal, outcome = build(
            [["1", "2"], ["2", "1"]], ["x", "y"], []
        )
        section = plucker_section(outcome.root, system, ideal, ideal.gens)
        angle = limit_uniqueness_check(section, {"x": Fraction(1, 2), "y": Fraction(0)})
        assert angle <= 1e-9
