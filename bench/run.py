"""Benchmark of the eigenbouquet pipeline, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded process runs the workload's jobs (``jobs.py``) one after
another through ``cli.run_job`` and ``report.canonical_json``, from config
to canonical report text, and checks every report (``Checker``). A *pass*
runs every job once; passes repeat for about ``--seconds`` (``_done``) and
at least two run. ``--trace 0`` prints the end-to-end metrics (``measure``),
``--trace 1`` the per-layer ones (``measure_traced``, ``tracing.py``).
README.md defines every metric. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment. Without ``src/eigenbouquet``
next to this directory the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import verify

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "eigenbouquet"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 11
MIN_PASSES = 2
# Analyze-only passes follow each full pass until they have taken this share
# of its time; their mean is one analyze_s sample. A single analyze pass is
# short enough to fall inside one spell of a shared machine's fast or slow
# speed, which makes the median of single passes jump between the two.
ANALYZE_SHARE = 0.5
EXIT_NO_PROGRAM = 2


class NoProgram(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def import_program():
    """Import ``eigenbouquet.cli`` and ``eigenbouquet.report`` from ``src/``."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise NoProgram(f"no eigenbouquet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import eigenbouquet.cli as cli
    import eigenbouquet.report as report

    if Path(cli.__file__).resolve().parent != PACKAGE_DIR:
        raise NoProgram(f"eigenbouquet was imported from {cli.__file__}, not {SRC}")
    return cli, report


def probe_setup(workload: str, seed: int) -> float:
    """Seconds to import the program and parse the workload's configs."""
    t0 = time.perf_counter()
    cli, _ = import_program()
    for _, data in jobs.job_configs(workload, seed):
        cli.JobConfig.from_dict(data)
    return time.perf_counter() - t0


class SetupProbe:
    """Times ``probe_setup`` in fresh interpreters, one probe at a time.

    The first interpreter also compiles bytecode, which users pay once, so
    it runs untimed when the probe is made.
    """

    def __init__(self, workload: str, seed: int):
        self.cmd = [
            sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed),
        ]
        self.times: list[float] = []
        self._run()

    def _run(self) -> float:
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def probe(self) -> None:
        self.times.append(self._run())


class Checker:
    """Applies the failure rules to every job run of one benchmark run."""

    def __init__(self, seed: int):
        self.default_seed = seed == jobs.DEFAULT_SEED
        self.first_text: dict[str, str] = {}
        self.pin_ok: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: set[str] = set()

    def check(self, job: jobs.Job, stages, code, text, error) -> None:
        self.attempted += 1
        key = f"{job.name} ({stages[-1]})"
        if stages != job.stages:
            expected = {jobs.ANALYZE_EXIT}
        elif self.default_seed:
            expected = {job.expected_exit}
        else:
            expected = {job.expected_exit, *job.sampled_exits}
        problem = None
        if error is not None:
            problem = f"raised {error}"
        elif code not in expected:
            problem = f"exit code {code}, expected {sorted(expected)}"
        elif key not in self.first_text:
            self.first_text[key] = text
            diffs = verify.against_pin(
                text, verify.load_pin(job.name), self.default_seed, partial=stages != job.stages
            )
            self.pin_ok[key] = not diffs
            if diffs:
                problem = f"differs from its pin at {len(diffs)} places: {diffs[:3]}"
        elif text != self.first_text[key]:
            problem = "report bytes differ from the first pass"
        elif not self.pin_ok[key]:
            problem = "differs from its pin"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{key}: {problem}")
        elif code in job.sampled_exits and stages == job.stages:
            self.notes.add(f"{key}: exit code {code}, a grade from sampling (ROADMAP 5(a))")


def run_pass(cli, report, parsed, checker: Checker, tracer=None, analyze_only=False) -> float:
    """Every job of the workload once; returns the pass's wall seconds.

    ``analyze_only`` runs each job as ``eigenbouquet analyze`` would.
    """
    t0 = time.perf_counter()
    for job, cfg in parsed:
        stages = jobs.ANALYZE_STAGES if analyze_only else job.stages
        root = tracer.open_span(f"job.{job.name}") if tracer is not None else None
        code = text = error = None
        try:
            code, rep = cli.run_job(cfg, stages)
            text = report.canonical_json(rep)
        except Exception as exc:  # a crashing job is a failed job run, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.close_span(root)
        checker.check(job, stages, code, text, error)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy

    src_lines = 0
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "src_eigenbouquet_lines": src_lines,
    }


def _done(start: float, last_round: float, seconds: float) -> bool:
    """Whether another round like the last would end more than half a round
    after ``seconds``; so a run measures for about ``seconds`` on average."""
    return time.perf_counter() - start + last_round / 2 > seconds


def measure(args, cli, report, parsed, checker: Checker) -> dict:
    """End-to-end metrics, tracing off.

    One set-up probe follows each round, so that the probes are spread over
    the run like the passes are, and at least ``SETUP_PROBES`` run.
    """
    setup = SetupProbe(args.workload, args.seed)
    pass_s, analyze_s = [], []
    start = time.perf_counter()
    while True:
        pass_s.append(run_pass(cli, report, parsed, checker))
        round_s = []
        while sum(round_s) < ANALYZE_SHARE * pass_s[-1]:
            round_s.append(run_pass(cli, report, parsed, checker, analyze_only=True))
        analyze_s.append(statistics.fmean(round_s))
        setup.probe()
        if len(pass_s) >= MIN_PASSES and _done(start, pass_s[-1] + sum(round_s), args.seconds):
            break
    while len(setup.times) < SETUP_PROBES:
        setup.probe()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "passes": {"report": pass_s, "analyze_mean": analyze_s, "setup": setup.times},
        "metrics": {
            "setup_s": (statistics.median(setup.times), "s"),
            "report_s": (statistics.median(pass_s), "s"),
            "analyze_s": (statistics.median(analyze_s), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        },
    }


def measure_traced(args, cli, report, parsed, checker: Checker) -> dict:
    """Per-layer metrics from traced passes, alternating with untraced ones."""
    import tracing

    tracer = tracing.Tracer()
    plain_s, traced_s, layers = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        if k % 4 in (1, 2):
            tracer.counters.clear()
            first = len(tracer.start)
            tracer.install()
            try:
                traced_s.append(run_pass(cli, report, parsed, checker, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.aggregate(first, len(tracer.start), tracer.counters))
            last = traced_s[-1]
        else:
            plain_s.append(run_pass(cli, report, parsed, checker))
            last = plain_s[-1]
        k += 1
        if k >= MIN_PASSES and _done(start, last, args.seconds):
            break
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    metrics = {
        name: (statistics.median(p[name] for p in layers), tracing.unit_of(name))
        for name in layers[0]
    }
    traced, plain = statistics.median(traced_s), statistics.median(plain_s)
    metrics["trace.report_s"] = (traced, "s")
    metrics["trace.untraced_report_s"] = (plain, "s")
    metrics["trace.overhead_s"] = (traced - plain, "s")
    return {"passes": {"untraced": plain_s, "traced": traced_s}, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.probe_setup:
            print(repr(probe_setup(args.workload, args.seed)))
            return 0
        cli, report = import_program()
    except NoProgram as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    checker = Checker(args.seed)
    parsed = [
        (job, cli.JobConfig.from_dict(data))
        for job, data in jobs.job_configs(args.workload, args.seed)
    ]
    if args.trace:
        run = measure_traced(args, cli, report, parsed, checker)
    else:
        run = measure(args, cli, report, parsed, checker)
        run["metrics"]["ok_ratio"] = (
            (checker.attempted - checker.failed) / checker.attempted, "ratio",
        )
    env = environment()
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "passes": run["passes"],
        "problems": checker.problems,
        "notes": sorted(checker.notes),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for note in sorted(checker.notes):
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
