import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenbouquet import cli, frames, oracle, realnormal
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
from reference import bench_jobs


def run_cli(args):
    return cmd_dispatch(list(args))


def bench_job(name):
    return next(job.config for job in bench_jobs() if job.name == name)


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

    MALFORMED = [
        ({"fibers": ["X"]}, "fibers must name one variable per matrix row"),
        ({"fibers": ["X", "Y", "Z"]}, "fibers must name one variable per matrix row"),
        # an object or a string where a list goes: never read as its keys
        # or characters
        ({"resolution": {"a": 1}}, "resolution must be a list"),
        ({"matrix": [["x", "y"], "yx"]}, "a matrix row must be a list"),
        ({"matrix": "x", "fibers": None}, "matrix must be a list"),
        ({"params": "xy"}, "params must be a list"),
        ({"fibers": "XY"}, "fibers must be a list"),
        ({"resolution": [{"path": [], "center": "xy"}]}, "a resolution center must be a list"),
        ({"resolution": [{"path": "", "center": ["x", "y"]}]}, "a resolution path must be a list"),
        # a bool is not read as 1, nor a fraction rounded
        ({"grid": {"points_per_axis": True}}, "points_per_axis must be an integer"),
        ({"grid": {"points_per_axis": 2.5}}, "points_per_axis must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"seed": "7"}, "seed must be an integer"),
        ({"depth_cap": 1.5}, "depth_cap must be an integer"),
        ({"depth_cap": -3}, "depth_cap must be nonnegative"),
        # a name that is not a string is not a variable name
        ({"params": [5]}, "invalid variable name 5"),
        ({"fibers": [5, 6]}, "invalid variable name 5"),
        # a report goes to a named file, never to a file descriptor
        ({"report": 5}, "report must be a file name"),
        ({"report": True}, "report must be a file name"),
        ({"report": ["a"]}, "report must be a file name"),
        # nor is a bool read as a tolerance of 1.0
        (
            {"params": ["x"], "matrix": [["x", "0"], ["0", "2"]], "resolution": [], "tolerances": {"cluster": True}},
            "cluster tolerance must be a number",
        ),
    ]

    @pytest.mark.parametrize("change, message", MALFORMED, ids=[f"change{k}" for k in range(len(MALFORMED))])
    def test_malformed_config_exit_2(self, change, message, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(FIXTURES["kupa"], **change)))
        assert run_cli(["check", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_negative_depth_cap_flag_exit_2(self, capsys):
        assert run_cli(["demo", "kupa", "--depth-cap", "-3"]) == EXIT_CONFIG
        assert "depth_cap must be nonnegative" in capsys.readouterr().err


class TestTolerances:
    """Each tolerance must be finite and nonnegative: a comparison with NaN is
    always false, so a NaN tolerance could never fail its gate, and an
    infinite one passes every grid."""

    RELLICH = dict(FIXTURES["rellich"], grid={"points_per_axis": 5})

    @pytest.mark.parametrize("name", ["cluster", "angle", "residual"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", -1e-12])
    def test_config_key_exit_2(self, name, value, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(self.RELLICH, tolerances={name: value})))
        assert run_cli(["check", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"{name} tolerance must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol-angle", "--tol-residual"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_cli_flag_exit_2(self, flag, value, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(self.RELLICH))
        assert run_cli(["check", "--config", str(cfg), flag, value]) == EXIT_CONFIG
        assert "tolerance must be finite and nonnegative" in capsys.readouterr().err

    def test_tiny_angle_tolerance_still_fails_the_gate(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(self.RELLICH, tolerances={"angle": 1e-30})))
        assert run_cli(["check", "--config", str(cfg)]) == EXIT_INVARIANT

    def test_zero_is_allowed(self):
        cfg = JobConfig.from_dict(dict(self.RELLICH, tolerances={"cluster": 0, "angle": 0, "residual": 0}))
        assert (cfg.tol_cluster, cfg.tol_angle, cfg.tol_residual) == (0.0, 0.0, 0.0)


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

    @pytest.mark.parametrize("tolerances, exit_code, failures", [({}, EXIT_PASS, 0), ({"cluster": 1.5}, EXIT_INVARIANT, 33)])
    def test_cluster_count_fails_per_member(self, tolerances, exit_code, failures):
        # rellich's eigenvalues +-r, r = |(x, y)|, lie 2 r apart: a cluster
        # tolerance of 1.5 merges them where 2 r <= 1.5 (1 + r), at r <= 3,
        # into one cluster where the generic count is two
        data = dict(FIXTURES["rellich"], seed=42, tolerances=tolerances)
        code, report = cli.run_job(JobConfig.from_dict(data), ("analyze", "check"))
        (item,) = [i for i in report["invariants"] if i["name"] == "oracle_cluster_count_off_discriminant"]
        assert code == exit_code
        assert (item["count"], item["failures"], item["pass"]) == (100, failures, not failures)

    @pytest.mark.parametrize(
        "structure, matrix, verdict, invariants",
        [
            ("symmetric", [["1", "0"], ["0", "2"]], "pass", [("weak", 1), ("oracle", 1), ("frame", 1)]),
            ("symmetric", [["1", "1"], ["1", "1"]], "pass", [("weak", 1), ("oracle", 1), ("frame", 1)]),
            ("symmetric", [["2", "0"], ["0", "2"]], "ScalarOperator", [("oracle", 1)]),
            ("normal", [["1", "2"], ["-2", "1"]], "pass", [("weak", 1), ("frame", 1), ("arcp", 1)]),
            ("skew", [["0", "3"], ["-3", "0"]], "pass", [("weak", 1), ("frame", 1), ("arcp", 1)]),
        ],
        ids=["diagonal", "rank_one", "scalar", "normal", "skew"],
    )
    def test_parameterless_family(self, structure, matrix, verdict, invariants):
        # without parameters the grid is one point and check draws its one
        # matrix once; family_matrix still repeats it count times
        names = {
            "weak": "weak_transform_exactness",
            "oracle": "oracle_cluster_count_off_discriminant",
            "frame": "frame_invariants_root",
            "arcp": "arcp_invariants_root",
        }
        data = {"structure": structure, "params": [], "matrix": matrix}
        stack = frames.family_matrix(cli.build_family(JobConfig.from_dict(data)), {}, 3)
        assert stack.shape == (3, 2, 2) and (stack == np.array(matrix, dtype=float)).all()
        code, report = cli.run_job(JobConfig.from_dict(data), ("analyze", "resolve", "frames", "check"))
        assert (code, report["verdict"]) == (EXIT_PASS, verdict)
        got = [(item["name"], item["count"], item["failures"]) for item in report["invariants"]]
        assert got == [(names[kind], count, 0) for kind, count in invariants]


class TestDerivedFiberNames:
    RENAMED = [
        # the gaussian builder's real fiber coordinates are V1_re, V2_re, V1_im, V2_im
        (
            "hermitian_vortex",
            {
                "field": "gaussian",
                "structure": "hermitian",
                "params": ["V1_re", "y"],
                "matrix": [["0", "V1_re - i*y"], ["V1_re + i*y", "0"]],
                "resolution": [{"path": [], "center": ["V1_re", "y"]}],
            },
        ),
        # the doubled skew half's fibers are V1a, V2a, V1b, V2b
        ("normal_rotation", {"structure": "normal", "params": ["V1a", "y"], "matrix": [["V1a", "y"], ["-y", "V1a"]]}),
    ]

    @pytest.mark.parametrize("job, renamed", RENAMED, ids=["gaussian", "doubled"])
    def test_parameter_named_like_a_derived_fiber(self, job, renamed, tmp_path):
        """Derived fiber names step around the parameters: the job runs as
        it does with its own parameter name x."""
        reports = []
        for config in (bench_job(job), renamed):
            cfg, path = tmp_path / "job.json", tmp_path / "out.json"
            cfg.write_text(json.dumps(config))
            assert run_cli(["check", "--config", str(cfg), "--report", str(path)]) == EXIT_PASS
            reports.append(json.loads(path.read_text()))
        original, report = reports
        assert [f["eigenvalues"] for f in report["frames"]] == [f["eigenvalues"] for f in original["frames"]]
        assert report["verdict"] == original["verdict"] == "pass"


class TestRealNormalPastTwo:
    """A real normal family runs on one bundle: its symmetric half when the
    skew half is zero, else the doubled skew half with a scalar symmetric
    half. Past n = 2 either the symmetric half is not scalar or the doubled
    bundle is past the minor budget: refused with exit 2 before any Fitting
    minor."""

    FAMILIES = [
        ("skew", [["0", "x", "y"], ["-x", "0", "1"], ["-y", "-1", "0"]], "771325555 sub-minors"),
        ("normal", [["x", "y", "0"], ["-y", "x", "0"], ["0", "0", "y"]], "needs a scalar symmetric half"),
        (
            "normal",
            [
                ["x", "y", "0", "0", "0"],
                ["-y", "x", "0", "0", "0"],
                ["0", "0", "y", "1", "0"],
                ["0", "0", "-1", "y", "0"],
                ["0", "0", "0", "0", "x"],
            ],
            "needs a scalar symmetric half",
        ),
    ]

    @pytest.mark.parametrize("structure, matrix, message", FAMILIES, ids=["skew3", "normal3", "normal5"])
    def test_refused_without_fitting_minors(self, structure, matrix, message, tmp_path, monkeypatch, capsys):
        calls = []
        real = cli.fitting_minors
        monkeypatch.setattr(cli, "fitting_minors", lambda system: calls.append(system) or real(system))
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"structure": structure, "params": ["x", "y"], "matrix": matrix}))
        assert run_cli(["analyze", "--config", str(cfg)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert calls == []


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

    def test_rotation_with_center_config_passes(self, tmp_path):
        # the benchmark's normal_rotation job with center [x, y], at its grid
        config = Path(__file__).resolve().parent / "data" / "normal_rotation_center.json"
        path = tmp_path / "out.json"
        code = run_cli(["check", "--config", str(config), "--report", str(path)])
        report = json.loads(path.read_text())
        assert code == EXIT_PASS
        assert report["verdict"] == "pass" and "error" not in report
        assert [f["chart"] for f in report["frames"]] == [["x"], ["y"]]
        assert report["invariants"] and all(item["pass"] for item in report["invariants"])

    def test_extrapolation_error_exits_4(self, tmp_path, monkeypatch):
        def fail(clustered, curves):
            n = clustered[0].shape[-1]
            error = cli.ExtrapolationError("no limit along this curve")
            return np.zeros((len(curves), n, n)), [error] * len(curves)

        monkeypatch.setattr(frames, "extrapolate_along_curve", fail)
        code, report = self.run_check(tmp_path, FIXTURES["kupa"])
        assert code == EXIT_ERROR
        assert report["verdict"] == "error"
        assert report["error"]["type"] == "ExtrapolationError"
        assert "no limit along this curve" in report["error"]["message"]
        assert report["resolution"]["verdict"] == "Resolved"
        assert "frames" not in report

    def test_jacobi_nonconvergence_names_grid_point(self, tmp_path, monkeypatch):
        # one sweep is too few for every non-diagonal member of kupa's stack
        monkeypatch.setattr(oracle, "JACOBI_SWEEP_CAP", 1)
        code, report = self.run_check(tmp_path, FIXTURES["kupa"])
        assert code == EXIT_ERROR
        assert report["verdict"] == "error"
        assert report["error"] == {
            "type": "JacobiNonConvergence",
            "message": "no convergence after 1 sweeps at grid index 0, "
            "base point {'x': -1.0, 'y': 1.0}",
        }
        assert report["resolution"]["verdict"] == "Resolved"
        assert "frames" not in report

    def test_arcp_residual_above_tolerance_fails(self, tmp_path, monkeypatch):
        real_extract = realnormal.arcp_extract
        pushed = []

        def push_one_residual(l_mats, cluster_tol=1e-6):
            decompositions = real_extract(l_mats, cluster_tol)  # the grid's stack
            for dec in decompositions:
                if not pushed and dec.planes:
                    dec.planes[0].similitude_residual = 1e-6  # tol_residual is 1e-8
                    pushed.append(True)
            return decompositions

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

    def test_float_overflow_exits_4(self, tmp_path):
        # grid points of size 1e200: the float frames overflow
        data = dict(FIXTURES["kupa"], grid={"lo": -1e200, "hi": 1e200})
        code, report = self.run_check(tmp_path, data)
        assert code == EXIT_ERROR
        assert report["verdict"] == "error"
        assert report["error"]["type"] == "OverflowError"
        assert report["resolution"]["verdict"] == "Resolved"

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


class TestFloatLayerLoading:
    """analyze and resolve are exact: in a fresh interpreter they load no numpy
    and no float module, over Q, over Q(i) and through the real normal split.
    A check stage loads the float layer it cross-checks with."""

    DATA = Path(__file__).resolve().parent / "data"
    FLOAT_MODULES = ["eigenbouquet.frames", "eigenbouquet.oracle", "eigenbouquet.realnormal", "numpy"]
    SYM4_GENERIC = {
        "structure": "symmetric",
        "params": ["x", "y"],
        "matrix": [
            ["x", "y", "1", "0"],
            ["y", "-x", "0", "1"],
            ["1", "0", "x+y", "y"],
            ["0", "1", "y", "x-y"],
        ],
        "resolution": [{"path": [], "center": ["x", "y"]}],
    }
    SCRIPT = (
        "import json, sys\n"
        "from eigenbouquet import cli\n"
        "stages, configs = json.loads(sys.argv[1])\n"
        "codes = [cli.run_job(cli.JobConfig.from_dict(c), tuple(stages))[0] for c in configs]\n"
        "floats = sorted(m for m in sys.modules if m in %r)\n"
        "print(json.dumps([codes, floats]))\n"
    )

    def _run(self, stages, configs):
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT % (self.FLOAT_MODULES,), json.dumps([stages, configs])],
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(out.stdout)

    def _config(self, name):
        return json.loads((self.DATA / f"{name}.json").read_text())

    def test_exact_stages_load_no_numpy(self):
        configs = [self.SYM4_GENERIC, self._config("hermitian_vortex"), self._config("normal_rotation_center")]
        codes, floats = self._run(["analyze", "resolve"], configs)
        assert codes == [EXIT_PASS] * 3
        assert floats == []

    def test_check_loads_the_float_layer(self):
        check = ["analyze", "resolve", "frames", "check"]
        codes, floats = self._run(check, [self._config("normal_rotation_center")])
        assert codes == [EXIT_PASS]
        assert floats == self.FLOAT_MODULES
