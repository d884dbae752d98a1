"""Reports of seven benchmark jobs must match their pinned reports.

The pins in ``bench/pins`` are the canonical reports at the default seed; a
change that moves a report (beyond the pins' float tolerance) fails here, not
only in the benchmark. The job configs and the comparison come from the
benchmark's own ``jobs.py`` and ``verify.py``, loaded by path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from eigenbouquet import cli
from eigenbouquet.report import canonical_json

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


jobs = _load("jobs")
verify = _load("verify")
JOBS = {job.name: job for workload in jobs.WORKLOADS.values() for job in workload}


# sym3_quad's pin records the known-wrong ResolvedProbable grade on chart
# ('y',) (ROADMAP 5(a)); fixing that grade re-pins it on purpose. rellich
# (crossing eigenvalues) and diag3 (three components on a 3-D grid) pin the
# frame labeling. sym4_generic stays out: its pin records a known-wrong verdict.
@pytest.mark.parametrize(
    "name",
    ["kupa", "rellich", "skew2", "diag3", "hermitian_vortex", "normal_rotation", "sym3_quad"],
)
def test_report_matches_pin(name):
    job = JOBS[name]
    cfg = cli.JobConfig.from_dict(dict(job.config, seed=jobs.DEFAULT_SEED))
    code, report = cli.run_job(cfg, job.stages)
    assert code == job.expected_exit
    text = canonical_json(report)
    assert verify.against_pin(text, verify.load_pin(name), True) == []
