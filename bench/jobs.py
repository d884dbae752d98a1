"""Fixed job configurations of the benchmark workloads.

Each workload is a list of jobs run one after another in a single process.
A job is a config dict (the JSON a user would pass with ``--config``), the
CLI stages it runs and the exit code ``eigenbouquet`` gives it. The configs
are copied here rather than read from ``cli.FIXTURES`` so that a change to
the built-in demos cannot silently change what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_STAGES = ("analyze", "resolve", "frames", "check")
RESOLVE_STAGES = ("analyze", "resolve")
ANALYZE_STAGES = ("analyze",)
ANALYZE_EXIT = 0  # `eigenbouquet analyze` passes on every job

DEFAULT_SEED = 42


@dataclass(frozen=True)
class Job:
    name: str
    config: dict
    stages: tuple[str, ...]
    expected_exit: int
    # Exit codes also accepted at seeds other than the default: ones that a
    # known defect gives when seeded sampling decides the verdict.
    sampled_exits: tuple[int, ...] = ()


def _sym(matrix, centers=True, params=("x", "y"), fibers=None, grid=21):
    cfg = {
        "structure": "symmetric",
        "params": list(params),
        "matrix": matrix,
        "resolution": [{"path": [], "center": ["x", "y"]}] if centers else [],
        "grid": {"points_per_axis": grid},
    }
    if fibers:
        cfg["fibers"] = list(fibers)
    return cfg


KUPA = _sym([["x^2", "x*y"], ["x*y", "y^2"]], fibers=("X", "Y"))
RELLICH = _sym([["x", "y"], ["y", "-x"]], fibers=("X", "Y"))
SKEW2 = {
    "structure": "skew",
    "params": ["x"],
    "matrix": [["0", "x"], ["-x", "0"]],
    "resolution": [],
    "grid": {"points_per_axis": 21},
}
DIAG3 = _sym(
    [["x", "0", "0"], ["0", "y", "0"], ["0", "0", "z"]],
    centers=False,
    params=("x", "y", "z"),
    grid=7,
)

SYM3_QUAD = _sym([["x^2", "x*y", "y"], ["x*y", "y^2", "x"], ["y", "x", "x+y"]])
SYM4_GENERIC = _sym(
    [
        ["x", "y", "1", "0"],
        ["y", "-x", "0", "1"],
        ["1", "0", "x+y", "y"],
        ["0", "1", "y", "x-y"],
    ]
)

HERMITIAN_VORTEX = {
    "field": "gaussian",
    "structure": "hermitian",
    "params": ["x", "y"],
    "matrix": [["0", "x - i*y"], ["x + i*y", "0"]],
    "resolution": [{"path": [], "center": ["x", "y"]}],
    "grid": {"points_per_axis": 21},
}
# No center on purpose: with center [x, y] this family currently ends in an
# uncaught ExtrapolationError instead of a report.
NORMAL_ROTATION = {
    "field": "rational",
    "structure": "normal",
    "params": ["x", "y"],
    "matrix": [["x", "y"], ["-y", "x"]],
    "resolution": [],
    "grid": {"points_per_axis": 21},
}

WORKLOADS: dict[str, list[Job]] = {
    "demo_frames": [
        Job("kupa", KUPA, ALL_STAGES, 0),
        Job("rellich", RELLICH, ALL_STAGES, 0),
        Job("skew2", SKEW2, ALL_STAGES, 0),
        Job("diag3", DIAG3, ALL_STAGES, 0),
    ],
    "exact_charts": [
        # The tree is Unresolved, so `resolve` exits 1 and `propose_center` runs.
        # Both charts have a real common zero, but a chart whose Groebner test
        # says "no" is graded by seeded sampling, which misses it at some seeds
        # (ROADMAP 5(a)); at seed 38 it misses on both charts and the tree is
        # reported Resolved, exit 0.
        Job("sym3_quad", SYM3_QUAD, RESOLVE_STAGES, 1, sampled_exits=(0,)),
        Job("sym4_generic", SYM4_GENERIC, RESOLVE_STAGES, 0),
    ],
    "complex_normal": [
        Job("hermitian_vortex", HERMITIAN_VORTEX, ALL_STAGES, 0),
        Job("normal_rotation", NORMAL_ROTATION, ALL_STAGES, 0),
    ],
}


def job_configs(workload: str, seed: int) -> list[tuple[Job, dict]]:
    """The workload's jobs, each config carrying the workload seed."""
    return [(job, dict(job.config, seed=seed)) for job in WORKLOADS[workload]]
