import json
import subprocess
import sys

import pytest

from eigenbouquet import cli, frames, realnormal
from eigenbouquet.cli import (
    EXIT_CONFIG,
    EXIT_ERROR,
    EXIT_INVARIANT,
    EXIT_PASS,
    EXIT_UNRESOLVED,
    FIXTURES,
    JobConfig,
    cmd_dispatch,
)
from eigenbouquet.report import canonical_json


def run_cli(args):
    return cmd_dispatch(list(args))


class TestDispatch:
    def test_demo_kupa_passes(self, tmp_path):
        path = tmp_path / "kupa.json"
        code = run_cli(["demo", "kupa", "--report", str(path), "--grid", "9"])
        assert code == EXIT_PASS
        report = json.loads(path.read_text())
        assert report["verdict"] == "pass"
        assert report["spectral"]["eigenvalue_count"] == 2
        assert report["spectral"]["bundles"]["main"]["quadratic_rank"] == 1
        assert sorted(report["spectral"]["bundles"]["main"]["fitting_gens"]) == [
            "x*y",
            "x^2 - y^2",
        ]
        charts = report["resolution"]["charts"]["children"]
        assert {c["local_generator"] for c in charts} == {"u^2", "v^2"}
        assert all(c["status"] == "ResolvedCertified" for c in charts)

    def test_analyze_scalar_family(self, tmp_path):
        cfg = tmp_path / "scalar.json"
        cfg.write_text(
            json.dumps(
                {
                    "structure": "symmetric",
                    "params": ["x"],
                    "matrix": [["x", "0"], ["0", "x"]],
                }
            )
        )
        path = tmp_path / "out.json"
        code = run_cli(["analyze", "--config", str(cfg), "--report", str(path)])
        assert code == EXIT_PASS
        report = json.loads(path.read_text())
        assert report["verdict"] == "ScalarOperator"
        assert report["spectral"]["status"] == "ScalarOperator"

    def test_resolve_empty_sequence_unresolved(self, tmp_path):
        cfg = tmp_path / "kupa.json"
        data = dict(FIXTURES["kupa"])
        data["resolution"] = []
        cfg.write_text(json.dumps(data))
        path = tmp_path / "out.json"
        code = run_cli(["resolve", "--config", str(cfg), "--report", str(path)])
        assert code == EXIT_INVARIANT
        report = json.loads(path.read_text())
        assert report["verdict"] == "Unresolved"
        assert report["resolution"]["charts"]["witness"] == {"x": "0", "y": "0"}

    def test_frames_on_unresolved_exits_3(self, tmp_path):
        cfg = tmp_path / "kupa.json"
        data = dict(FIXTURES["kupa"])
        data["resolution"] = []
        cfg.write_text(json.dumps(data))
        code = run_cli(["frames", "--config", str(cfg)])
        assert code == EXIT_UNRESOLVED

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["analyze", "--config", str(bad)]) == EXIT_CONFIG
        missing = tmp_path / "missing.json"
        assert run_cli(["analyze", "--config", str(missing)]) == EXIT_CONFIG
        nonsquare = tmp_path / "nonsquare.json"
        nonsquare.write_text(
            json.dumps({"structure": "symmetric", "params": ["x"], "matrix": [["x"], ["x"]]})
        )
        assert run_cli(["analyze", "--config", str(nonsquare)]) == EXIT_CONFIG

    def test_structure_violation_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "structure": "symmetric",
                    "params": ["x"],
                    "matrix": [["x", "1"], ["0", "x"]],
                }
            )
        )
        assert run_cli(["analyze", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_grid_without_points_exit_2(self, points, capsys):
        assert run_cli(["demo", "kupa", "--grid", points]) == EXIT_CONFIG
        assert "points_per_axis must be at least 1" in capsys.readouterr().err

    def test_empty_grid_interval_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(FIXTURES["kupa"], grid={"lo": "1/2", "hi": "1/2"})))
        assert run_cli(["check", "--config", str(cfg)]) == EXIT_CONFIG
        assert "must be below hi" in capsys.readouterr().err

    def test_unknown_demo(self):
        assert run_cli(["demo", "nope"]) == EXIT_CONFIG


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["demo", "rellich", "--report", str(a), "--grid", "7"])
        run_cli(["demo", "rellich", "--report", str(b), "--grid", "7"])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report_only_deterministically(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["demo", "kupa", "--report", str(a), "--grid", "5", "--seed", "7"])
        run_cli(["demo", "kupa", "--report", str(b), "--grid", "5", "--seed", "7"])
        assert a.read_bytes() == b.read_bytes()


class TestConfigRoundTrip:
    def test_echoed_config_reproduces_job(self, tmp_path):
        path = tmp_path / "out.json"
        run_cli(["demo", "kupa", "--report", str(path), "--grid", "5"])
        report = json.loads(path.read_text())
        echoed = JobConfig.from_dict(report["config"])
        original = JobConfig.from_dict(dict(FIXTURES["kupa"]))
        assert echoed.matrix == original.matrix
        assert echoed.params == original.params
        assert echoed.resolution == original.resolution
        assert echoed.grid_points == 5


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 1.5, "a": [1, 2.0, None, True]})
        assert text == '{"a": [1, 2.0, null, true], "b": 1.5}\n'

    def test_seventeen_digits(self):
        import math

        text = canonical_json({"pi": math.pi})
        assert "3.1415926535897931" in text


class TestCheckSubcommand:
    def test_check_runs_invariant_suites(self, tmp_path):
        cfg = tmp_path / "kupa.json"
        cfg.write_text(json.dumps({**FIXTURES["kupa"], "grid": {"points_per_axis": 5}}))
        path = tmp_path / "out.json"
        code = run_cli(["check", "--config", str(cfg), "--report", str(path)])
        assert code == EXIT_PASS
        report = json.loads(path.read_text())
        names = {item["name"] for item in report["invariants"]}
        assert "weak_transform_exactness" in names
        assert "oracle_cluster_count_off_discriminant" in names
        assert all(item["pass"] for item in report["invariants"])


class TestProductResolution:
    def test_derived_charts_factor_the_local_generator(self):
        # resolve the product of two generator sets, then recover each
        # factor's weak transform on the same charts
        from eigenbouquet.algebra import VarUniverse, parse_polynomial
        from eigenbouquet.cli import derive_chart_for
        from eigenbouquet.resolve import CenterSpec, run_sequence

        u = VarUniverse(("x", "y"))
        gens_a = [parse_polynomial("x*y", u), parse_polynomial("x^2 - y^2", u)]
        gens_b = [parse_polynomial("x^2 + y^2", u)]
        product = [a * b for a in gens_a for b in gens_b]
        outcome = run_sequence(product, u, [CenterSpec((), ("x", "y"))])
        assert outcome.verdict == "Resolved"
        for leaf in outcome.leaves():
            twin_a = derive_chart_for(leaf, gens_a, seed=1)
            twin_b = derive_chart_for(leaf, gens_b, seed=1)
            combined = twin_a.local_generator * twin_b.local_generator
            # gcd of pairwise products is the product of the gcds
            assert leaf.local_generator == combined
            assert twin_a.status == "ResolvedCertified"
            assert twin_b.status == "ResolvedCertified"


class TestRunErrors:
    """A failed numerical step exits 4 with a partial report, no traceback."""

    def run_check(self, tmp_path, data):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(data))
        path = tmp_path / "out.json"
        code = run_cli(["check", "--config", str(cfg), "--report", str(path), "--grid", "5"])
        return code, json.loads(path.read_text())

    def test_gaussian_normal_family(self, tmp_path):
        code, report = self.run_check(
            tmp_path,
            {
                "field": "gaussian",
                "structure": "normal",
                "params": ["x", "y"],
                "matrix": [["i*x", "y"], ["-y", "i*x"]],
                "resolution": [{"path": [], "center": ["x", "y"]}],
            },
        )
        assert code == EXIT_ERROR
        assert report["verdict"] == "error"
        assert report["error"]["type"] == "NonHermitianFamily"
        assert "hermitian" in report["error"]["message"]
        assert report["resolution"]["verdict"] == "Resolved"

    def test_rational_rotation_with_center(self, tmp_path):
        # the doubled bundle's only generator is y^4: the float discriminant
        # test must scale with the generator's own terms, not with |y|
        code, report = self.run_check(
            tmp_path,
            {
                "structure": "normal",
                "params": ["x", "y"],
                "matrix": [["x", "y"], ["-y", "x"]],
                "resolution": [{"path": [], "center": ["x", "y"]}],
            },
        )
        assert code == EXIT_PASS
        assert report["verdict"] == "pass"
        assert "error" not in report
        assert report["invariants"] and all(item["pass"] for item in report["invariants"])

    def test_extrapolation_error_exits_4(self, tmp_path, monkeypatch):
        def fail(samples):
            raise cli.ExtrapolationError("no limit along this curve")

        monkeypatch.setattr(frames, "extrapolate_along_curve", fail)
        code, report = self.run_check(tmp_path, FIXTURES["kupa"])
        assert code == EXIT_ERROR
        assert report["verdict"] == "error"
        assert report["error"]["type"] == "ExtrapolationError"
        assert "no limit along this curve" in report["error"]["message"]
        assert report["resolution"]["verdict"] == "Resolved"
        assert "frames" not in report

    def test_arcp_residual_above_tolerance_fails(self, tmp_path, monkeypatch):
        real_extract = realnormal.arcp_extract
        pushed = []

        def push_one_residual(l_mat, cluster_tol=1e-6):
            dec = real_extract(l_mat, cluster_tol)
            if not pushed and dec.planes:
                dec.planes[0].similitude_residual = 1e-6  # tol_residual is 1e-8
                pushed.append(True)
            return dec

        monkeypatch.setattr(realnormal, "arcp_extract", push_one_residual)
        code, report = self.run_check(
            tmp_path,
            {
                "structure": "normal",
                "params": ["x", "y"],
                "matrix": [["x", "y"], ["-y", "x"]],
                "resolution": [],
            },
        )
        assert pushed
        assert code == EXIT_INVARIANT
        assert report["verdict"] == "fail"
        assert report["arcp"]["charts"][0]["worst_similitude_residual"] == 1e-6
        graded = {item["name"]: item for item in report["invariants"]}
        assert graded["arcp_invariants_root"]["pass"] is False
        assert graded["arcp_invariants_root"]["failures"] == 1
        assert graded["frame_invariants_root"]["pass"] is True

    def test_merged_cluster_off_discriminant_exits_4(self, tmp_path):
        # off the discriminant y = 0 the gap y/300000 falls under the cluster
        # tolerance, so a point has one plane where its neighbour has two lines
        code, report = self.run_check(
            tmp_path,
            {
                "structure": "symmetric",
                "params": ["x", "y"],
                "matrix": [["x", "0"], ["0", "x + 1/300000*y"]],
                "resolution": [],
            },
        )
        assert code == EXIT_ERROR
        assert report["verdict"] == "error"
        assert report["error"]["type"] == "LabelingError"
        assert report["error"]["message"] == (
            "no component of dimension 1 at grid index 1: "
            "multiplicities (1, 1) at grid index 0, (2,) here"
        )
        assert report["resolution"]["verdict"] == "Resolved"
        assert "frames" not in report

    def test_other_errors_still_raise(self, monkeypatch):
        def broken(state):
            raise ValueError("not a numerical failure")

        monkeypatch.setattr(cli, "stage_resolve", broken)
        cfg = JobConfig.from_dict(FIXTURES["kupa"])
        with pytest.raises(ValueError, match="not a numerical failure"):
            cli.run_job(cfg, ("analyze", "resolve"))

    def test_center_error_exits_2(self, tmp_path):
        cfg = tmp_path / "job.json"
        data = dict(FIXTURES["kupa"], resolution=[{"path": ["q"], "center": ["x", "y"]}])
        cfg.write_text(json.dumps(data))
        assert run_cli(["check", "--config", str(cfg)]) == EXIT_CONFIG


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "eigenbouquet.cli", "demo", "kupa", "--grid", "3",
             "--report", str(tmp_path / "r.json")],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "verdict: pass" in out.stdout
