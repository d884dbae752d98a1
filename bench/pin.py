"""Write the pinned report of every benchmark job at the default seed.

    python3 bench/pin.py [JOB ...]

Run it only when a change alters reports on purpose, and say in the change
which pins moved and why: the benchmark fails every job whose report departs
from its pin (see ``verify.py``).
"""

from __future__ import annotations

import sys

import jobs
import run
import verify


def main(argv: list[str]) -> int:
    cli, report = run.import_program()
    wanted = set(argv)
    for workload in jobs.WORKLOADS:
        for job, data in jobs.job_configs(workload, jobs.DEFAULT_SEED):
            if wanted and job.name not in wanted:
                continue
            code, rep = cli.run_job(cli.JobConfig.from_dict(data), job.stages)
            if code != job.expected_exit:
                print(f"{job.name}: exit code {code}, expected {job.expected_exit}", file=sys.stderr)
                return 1
            verify.pin_path(job.name).write_text(report.canonical_json(rep), encoding="utf-8")
            print(f"pinned {job.name} ({rep.get('verdict')})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
