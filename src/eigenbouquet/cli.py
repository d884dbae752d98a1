"""Configuration parsing, pipeline orchestration and reporting.

Subcommands: analyze, resolve, frames, check, demo <name>. Configs are JSON
with polynomial entries as grammar strings; reports are canonical JSON
(byte-identical for equal config and seed). Exit codes: 0 pass, 1 invariant
failure, 2 config error, 3 frames requested on an unresolved tree, 4 a
numerical step failed (the report names the error).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import ExponentOverflow
from .bouquet import (
    FittingIdeal,
    QuadSystem,
    fitting_minors,
    generic_rank,
    wedge_quadratics,
)
from .family import (
    MatrixFamily,
    SplitFamily,
    StructureViolation,
    analyze_spectrum,
    split_and_double,
)
from .grading import (
    DEFAULT_ANGLE_TOL,
    DEFAULT_CLUSTER_TOL,
    DEFAULT_RESIDUAL_TOL,
    DecompositionError,
    ExtrapolationError,
    JacobiNonConvergence,
    LabelingError,
    NonHermitianFamily,
    UnresolvedChart,
)
from .report import canonical_json, emit_report
from .resolve import (
    DEFAULT_DEPTH_CAP,
    CenterError,
    CenterSpec,
    ChartNode,
    DegenerateChart,
    ResolutionOutcome,
    propose_center,
    run_sequence,
)

if TYPE_CHECKING:
    from .frames import FrameReport
    from .realnormal import ArcpReport

EXIT_PASS = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_UNRESOLVED = 3
EXIT_ERROR = 4

# Numerical failures: the job ends with a partial report naming the error.
RUN_ERRORS = (
    ExtrapolationError,
    JacobiNonConvergence,
    DegenerateChart,
    DecompositionError,
    NonHermitianFamily,
    LabelingError,
    ExponentOverflow,
    OverflowError,
)

# Sub-minors the Laplace expansion may store: per row set of the generic
# rank d, at most C(cols, k) column sets on each level k <= d.
MINOR_BUDGET = 200_000


class ConfigError(ValueError):
    pass


def _listed(value, what: str):
    """A JSON array as given: a string in its place would be read as its
    characters, one name or entry each."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer: a bool or a fraction is refused, not read as 1 or rounded."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """A JSON number: a bool is refused, not read as 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass
class JobConfig:
    fld: str
    structure: str
    params: tuple[str, ...]
    matrix: tuple[tuple[str, ...], ...]
    fibers: tuple[str, ...] | None = None
    resolution: tuple[CenterSpec, ...] = ()
    grid_points: int = 21
    grid_lo: Fraction = Fraction(-1)
    grid_hi: Fraction = Fraction(1)
    tol_cluster: float = DEFAULT_CLUSTER_TOL
    tol_angle: float = DEFAULT_ANGLE_TOL
    tol_residual: float = DEFAULT_RESIDUAL_TOL
    seed: int = 42
    depth_cap: int = DEFAULT_DEPTH_CAP
    report_path: str | None = None

    def __post_init__(self):
        if self.grid_points < 1:
            raise ConfigError(f"grid points_per_axis must be at least 1, got {self.grid_points}")
        if self.depth_cap < 0:
            raise ConfigError(f"depth_cap must be nonnegative, got {self.depth_cap}")
        if not self.grid_lo < self.grid_hi:
            raise ConfigError(f"grid lo {self.grid_lo} must be below hi {self.grid_hi}")
        for name in ("cluster", "angle", "residual"):
            value = getattr(self, f"tol_{name}")
            if not 0 <= value < math.inf:  # false for NaN as well
                raise ConfigError(f"{name} tolerance must be finite and nonnegative, got {value}")

    @classmethod
    def from_dict(cls, data: dict) -> "JobConfig":
        try:
            rows = _listed(data["matrix"], "matrix")
            matrix = tuple(tuple(str(x) for x in _listed(row, "a matrix row")) for row in rows)
            n = len(matrix)
            if any(len(row) != n for row in matrix) or n == 0:
                raise ConfigError("matrix must be square and nonempty")
            fibers = tuple(_listed(data["fibers"], "fibers")) if data.get("fibers") else None
            if fibers is not None and len(fibers) != n:
                raise ConfigError(f"fibers must name one variable per matrix row: {n} rows, {len(fibers)} names")
            resolution = tuple(
                CenterSpec(
                    tuple(_listed(step.get("path", ()), "a resolution path")),
                    tuple(_listed(step["center"], "a resolution center")),
                )
                for step in _listed(data.get("resolution", ()), "resolution")
            )
            report = data.get("report")
            if not isinstance(report, (str, type(None))):
                raise ConfigError(f"report must be a file name, got {report!r}")
            grid = data.get("grid", {})
            tol = data.get("tolerances", {})
            return cls(
                fld=data.get("field", "rational"),
                structure=data["structure"],
                params=tuple(_listed(data["params"], "params")),
                matrix=matrix,
                fibers=fibers,
                resolution=resolution,
                grid_points=_integer(grid.get("points_per_axis", 21), "grid points_per_axis"),
                grid_lo=Fraction(str(grid.get("lo", -1))),
                grid_hi=Fraction(str(grid.get("hi", 1))),
                tol_cluster=_real(tol.get("cluster", DEFAULT_CLUSTER_TOL), "cluster tolerance"),
                tol_angle=_real(tol.get("angle", DEFAULT_ANGLE_TOL), "angle tolerance"),
                tol_residual=_real(tol.get("residual", DEFAULT_RESIDUAL_TOL), "residual tolerance"),
                seed=_integer(data.get("seed", 42), "seed"),
                depth_cap=_integer(data.get("depth_cap", DEFAULT_DEPTH_CAP), "depth_cap"),
                report_path=report,
            )
        except ConfigError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"bad config: {err}") from err

    def to_dict(self) -> dict:
        return {
            "field": self.fld,
            "structure": self.structure,
            "params": list(self.params),
            "matrix": [list(row) for row in self.matrix],
            "fibers": list(self.fibers) if self.fibers else None,
            "resolution": [
                {"path": list(c.chart_path), "center": list(c.variables)}
                for c in self.resolution
            ],
            "grid": {
                "points_per_axis": self.grid_points,
                "lo": str(self.grid_lo),
                "hi": str(self.grid_hi),
            },
            "tolerances": {
                "cluster": self.tol_cluster,
                "angle": self.tol_angle,
                "residual": self.tol_residual,
            },
            "seed": self.seed,
            "depth_cap": self.depth_cap,
        }


def build_family(cfg: JobConfig) -> MatrixFamily:
    try:
        return MatrixFamily.from_strings(
            [list(row) for row in cfg.matrix],
            list(cfg.params),
            cfg.structure,
            cfg.fld,
            list(cfg.fibers) if cfg.fibers else None,
        )
    except StructureViolation:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err


# -- analysis bundles ---------------------------------------------------


@dataclass
class Bundle:
    """One symmetric-pipeline unit: quadratic system plus its Fitting data."""

    name: str
    system: QuadSystem
    ideal: FittingIdeal | None  # None for a scalar piece


@dataclass
class Analysis:
    family: MatrixFamily
    summary: object
    bundle: Bundle
    split: SplitFamily | None  # realnormal reduction, when active

    @property
    def scalar(self) -> bool:
        return self.bundle.ideal is None


def _make_bundle(name: str, fam: MatrixFamily, seed: int) -> Bundle:
    system = wedge_quadratics(fam)
    rank = generic_rank(system, seed=seed)
    if rank == 0:
        return Bundle(name, system, None)
    rows = len(system.coeff_matrix)
    cols = len(system.coeff_matrix[0])
    count = math.comb(rows, rank) * sum(math.comb(cols, k) for k in range(1, rank + 1))
    if count > MINOR_BUDGET:
        raise ConfigError(
            f"{count} sub-minors for bundle {name!r} exceed the desk-scale "
            f"budget {MINOR_BUDGET}; reduce the fiber dimension"
        )
    return Bundle(name, system, fitting_minors(system))


def analyze(cfg: JobConfig) -> Analysis:
    """The bundle first, so the minor budget refuses a family before the
    characteristic polynomial and discriminant are computed. A rational
    normal or skew family runs on its symmetric half when its skew half is
    zero, else on the doubled skew half, whose eigen-bouquet is the
    family's only when the symmetric half is scalar."""
    fam = build_family(cfg)
    split = None
    if cfg.fld == "rational" and cfg.structure in {"normal", "skew"}:
        split = split_and_double(fam)
        if all(p.is_zero() for row in split.skew.entries for p in row):
            bundle, split = _make_bundle("sym", split.sym, cfg.seed), None
        elif generic_rank(wedge_quadratics(split.sym), seed=cfg.seed):
            raise ConfigError("a real normal family with a nonzero skew half needs a scalar symmetric half")
        else:
            bundle = _make_bundle("doubled", split.doubled, cfg.seed)
    else:
        bundle = _make_bundle("main", fam, cfg.seed)
    return Analysis(fam, analyze_spectrum(fam), bundle, split)


# -- report assembly ----------------------------------------------------


def _poly_list(polys) -> list[str]:
    return [p.to_string() for p in polys]


def _chart_dict(node: ChartNode) -> dict:
    return {
        "path": list(node.path),
        "params": list(node.universe.params),
        "to_base": {k: v.to_string() for k, v in node.to_base.items()},
        "exceptional": [[name, mult] for name, mult in node.exceptional],
        "pulled_minors": _poly_list(node.pulled_minors),
        "local_generator": node.local_generator.to_string() if node.local_generator else None,
        "weak_gens": _poly_list(node.weak_gens),
        "status": node.status,
        "groebner": node.groebner_status,
        "witness": {k: str(v) for k, v in node.witness.items()} if node.witness else None,
        "center": list(node.center) if node.center else None,
        "children": [_chart_dict(c) for c in node.children],
    }


def _frame_dict(report: FrameReport) -> dict:
    return {
        "chart": list(report.chart_path),
        "points": [[str(x) for x in pt] for pt in report.points],
        "exceptional": report.exceptional_mask,
        "eigenvalues": [list(map(float, c.eigenvalues)) for c in report.components],
        "dimensions": [c.dim for c in report.components],
        "max_oracle_angle": report.max_oracle_angle,
        "max_quad_residual": report.max_quad_residual,
        "max_gram_residual": report.max_gram_residual,
        "max_invariance_residual": report.max_invariance_residual,
        "smoothness": {
            "eigenvalue": report.smoothness_eigenvalue,
            "frame": report.smoothness_frame,
        },
        "flags": report.labeling_flags,
        "failing": report.failing,
    }


def _arcp_dict(report: ArcpReport) -> dict:
    return {
        "chart": list(report.chart_path),
        "planes_sampled": report.planes_sampled,
        "worst_similitude_residual": report.worst_similitude_residual,
        "worst_gram_residual": report.worst_gram_residual,
        "worst_eigenvalue_match": report.worst_eigenvalue_match,
    }


@dataclass
class RunState:
    cfg: JobConfig
    analysis: Analysis | None = None
    outcome: ResolutionOutcome | None = None
    frame_reports: list[FrameReport] = field(default_factory=list)
    arcp_reports: list[ArcpReport] = field(default_factory=list)
    invariants: list[dict] = field(default_factory=list)
    report: dict = field(default_factory=dict)

    def verdict(self) -> str:
        if any(not item["pass"] for item in self.invariants):
            return "fail"
        if self.outcome is not None and self.outcome.verdict != "Resolved":
            return "Unresolved"
        if self.analysis is not None and self.analysis.scalar:
            return "ScalarOperator"
        return "pass"


def stage_analyze(state: RunState) -> RunState:
    cfg = state.cfg
    analysis = analyze(cfg)
    state.analysis = analysis
    summary = analysis.summary
    bundle = analysis.bundle
    state.report["config"] = cfg.to_dict()
    state.report["spectral"] = {
        "eigenvalue_count": summary.generic_distinct_eigenvalues,
        "char_poly": summary.char_poly.to_string(),
        "reduced_char_poly": summary.reduced_char_poly.to_string(),
        "disc_gens": _poly_list(summary.disc_gens),
        "coeff_ideal_gens": _poly_list(summary.coeff_ideal_gens),
        "bundles": {
            bundle.name: {
                "quadratic_rank": bundle.system.generic_rank,
                "fitting_gens": _poly_list(bundle.ideal.gens) if bundle.ideal else [],
                "scalar": bundle.ideal is None,
            }
        },
    }
    if analysis.scalar:
        state.report["spectral"]["status"] = "ScalarOperator"
    return state


def stage_resolve(state: RunState) -> RunState:
    cfg = state.cfg
    analysis = state.analysis
    if analysis.scalar:
        state.report["resolution"] = {"verdict": "ScalarOperator", "charts": None, "warnings": []}
        return state
    outcome = run_sequence(
        analysis.bundle.ideal.gens,
        analysis.bundle.system.fiber_universe,
        list(cfg.resolution),
        seed=cfg.seed,
        depth_cap=cfg.depth_cap,
    )
    state.outcome = outcome
    proposals = {}
    if outcome.verdict != "Resolved":
        for leaf in outcome.leaves():
            if leaf.status == "Unresolved":
                center = propose_center(leaf)
                if center:
                    proposals["/".join(leaf.path) or "root"] = list(center)
    state.report["resolution"] = {
        "verdict": outcome.verdict,
        "charts": _chart_dict(outcome.root),
        "warnings": outcome.warnings,
        "proposed_centers": proposals,
    }
    return state


def stage_frames(state: RunState) -> RunState:
    cfg = state.cfg
    analysis = state.analysis
    if analysis.scalar:
        state.report["frames"] = []
        return state
    if state.outcome is None or state.outcome.verdict != "Resolved":
        raise UnresolvedChart("frames require a resolved chart tree")
    # the float layer: imported here so that analyze and resolve load no numpy
    from .frames import GridSpec, local_frame_and_eigenvalues, plucker_section
    from .realnormal import arcp_over_grid

    bundle = analysis.bundle
    grid = GridSpec((cfg.grid_points,) * len(cfg.params), cfg.grid_lo, cfg.grid_hi)
    for leaf in state.outcome.leaves():
        section = plucker_section(leaf, bundle.system, bundle.ideal)
        report = local_frame_and_eigenvalues(
            section,
            grid,
            cluster_tol=cfg.tol_cluster,
            angle_tol=cfg.tol_angle,
            residual_tol=cfg.tol_residual,
        )
        state.frame_reports.append(report)
        if analysis.split is not None:
            state.arcp_reports.append(
                arcp_over_grid(
                    analysis.split,
                    report.chart_path,
                    report.base,
                    cfg.tol_cluster,
                    cfg.tol_residual,
                )
            )
    state.report["frames"] = [_frame_dict(r) for r in state.frame_reports]
    if state.arcp_reports:
        state.report["arcp"] = {"charts": [_arcp_dict(r) for r in state.arcp_reports]}
    return state


def _invariant(name: str, count: int, failures: int, **worst) -> dict:
    return {"name": name, "count": count, "failures": failures, **worst, "pass": failures == 0}


def _graded(kind: str, chart_path, count: int, failing: bool, **worst) -> dict:
    return _invariant(f"{kind}_invariants_{'_'.join(chart_path) or 'root'}", count, int(failing), **worst)


def stage_check(state: RunState) -> RunState:
    cfg = state.cfg
    analysis = state.analysis
    inv: list[dict] = []

    if not analysis.scalar and state.outcome is not None:
        failures = 0
        count = 0
        stack = [state.outcome.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            for minor, weak in zip(node.pulled_minors, node.weak_gens):
                count += 1
                if node.local_generator * weak != minor:
                    failures += 1
        inv.append(_invariant("weak_transform_exactness", count, failures))

    if cfg.structure in {"symmetric", "hermitian"} or cfg.fld == "gaussian":
        # the float layer: imported here so that analyze and resolve load no numpy
        import numpy as np

        from .frames import common_denominator, family_matrix
        from .oracle import eigh_jacobi, gap_groups

        rng = random.Random(cfg.seed)
        summary = analysis.summary
        names = analysis.family.universe.params
        # a family without parameters has one matrix: one draw
        drawn = [
            {name: Fraction(rng.randint(-15, 15), rng.randint(1, 6)) for name in names}
            for _ in range(100 if names else 1)
        ]
        # skipped where every discriminant generator vanishes: one exact batch
        numerators, den = common_denominator(drawn, names)
        values = [g.eval_integer(numerators, den, len(drawn))[0] for g in summary.disc_gens]
        off = [k for k in range(len(drawn)) if not values or any(v[k] != 0 for v in values)]
        bad = 0
        if off:
            base = {name: np.array([numerators[name][k] / den for k in off]) for name in names}
            matrices = family_matrix(analysis.family, base, len(off))
            for members, bounds in gap_groups(eigh_jacobi(matrices).eigenvalues, cfg.tol_cluster):
                bad += len(members) if len(bounds) - 1 != summary.generic_distinct_eigenvalues else 0
        inv.append(_invariant("oracle_cluster_count_off_discriminant", len(off), bad))

    for report in state.frame_reports:
        inv.append(
            _graded(
                "frame",
                report.chart_path,
                len(report.points),
                report.failing,
                worst_angle=report.max_oracle_angle,
                worst_invariance=report.max_invariance_residual,
            )
        )
    for report in state.arcp_reports:
        inv.append(_graded("arcp", report.chart_path, report.planes_sampled, report.failing))

    state.invariants = inv
    state.report["invariants"] = inv
    state.report["verdict"] = state.verdict()
    return state


# -- fixtures -----------------------------------------------------------

FIXTURES: dict[str, dict] = {
    "kupa": {
        "structure": "symmetric",
        "params": ["x", "y"],
        "fibers": ["X", "Y"],
        "matrix": [["x^2", "x*y"], ["x*y", "y^2"]],
        "resolution": [{"path": [], "center": ["x", "y"]}],
        "grid": {"points_per_axis": 21},
    },
    "rellich": {
        "structure": "symmetric",
        "params": ["x", "y"],
        "fibers": ["X", "Y"],
        "matrix": [["x", "y"], ["y", "-x"]],
        "resolution": [{"path": [], "center": ["x", "y"]}],
        "grid": {"points_per_axis": 21},
    },
    "skew2": {
        "structure": "skew",
        "params": ["x"],
        "matrix": [["0", "x"], ["-x", "0"]],
        "resolution": [],
        "grid": {"points_per_axis": 21},
    },
    "diag3": {
        "structure": "symmetric",
        "params": ["x", "y", "z"],
        "matrix": [["x", "0", "0"], ["0", "y", "0"], ["0", "0", "z"]],
        "resolution": [],
        "grid": {"points_per_axis": 7},
    },
}


# -- dispatch -----------------------------------------------------------


def _load_config(args) -> JobConfig:
    if args.command == "demo":
        if args.name not in FIXTURES:
            raise ConfigError(
                f"unknown demo {args.name!r}; available: {sorted(FIXTURES)}"
            )
        data = dict(FIXTURES[args.name])
    else:
        if not args.config:
            raise ConfigError("--config is required")
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config: {err}") from err
    flags = {
        "seed": args.seed,
        "grid_points": args.grid,
        "tol_angle": args.tol_angle,
        "tol_residual": args.tol_residual,
        "depth_cap": args.depth_cap,
        "report_path": args.report,
    }
    return replace(JobConfig.from_dict(data), **{k: v for k, v in flags.items() if v is not None})


def run_job(cfg: JobConfig, stages: tuple[str, ...]) -> tuple[int, dict]:
    state = RunState(cfg)
    try:
        stage_analyze(state)
        if "resolve" in stages:
            stage_resolve(state)
        if "frames" in stages:
            stage_frames(state)
        if "check" in stages:
            stage_check(state)
        else:
            state.report["verdict"] = state.verdict()
    except UnresolvedChart as err:
        state.report["error"] = str(err)
        state.report["verdict"] = "Unresolved"
        code = EXIT_UNRESOLVED
    except RUN_ERRORS as err:
        state.report["error"] = {"type": type(err).__name__, "message": str(err)}
        state.report["verdict"] = "error"
        code = EXIT_ERROR
    else:
        code = EXIT_PASS if state.report["verdict"] in {"pass", "ScalarOperator"} else EXIT_INVARIANT
    if cfg.report_path:
        emit_report(state.report, cfg.report_path)
    return code, state.report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenbouquet",
        description="resolve eigenspace bundles of polynomial normal-matrix families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON job configuration")
    common.add_argument("--report", help="write the canonical report here")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--grid", type=int, default=None, help="grid points per axis")
    common.add_argument("--tol-angle", type=float, default=None, dest="tol_angle")
    common.add_argument("--tol-residual", type=float, default=None, dest="tol_residual")
    common.add_argument("--depth-cap", type=int, default=None, dest="depth_cap")
    for name in ("analyze", "resolve", "frames", "check"):
        sub.add_parser(name, parents=[common])
    demo = sub.add_parser("demo", parents=[common])
    demo.add_argument("name", help=f"one of {sorted(FIXTURES)}")
    return parser


_STAGES = {
    "analyze": ("analyze",),
    "resolve": ("analyze", "resolve"),
    "frames": ("analyze", "resolve", "frames"),
    "check": ("analyze", "resolve", "frames", "check"),
    "demo": ("analyze", "resolve", "frames", "check"),
}


def cmd_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        code, report = run_job(cfg, _STAGES[args.command])
    except (ConfigError, StructureViolation, CenterError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if not cfg.report_path:
        sys.stdout.write(canonical_json(report))
    else:
        print(f"verdict: {report.get('verdict')} (report: {cfg.report_path})")
    return code


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
