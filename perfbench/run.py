"""Benchmark of whole probconn CLI jobs on seeded graph families.

Run from the repository root:

    python3 perfbench/run.py --workload exact-rank --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

A job is one CLI invocation through `probconn.cli.run_command` inside this
process, with stdout captured.  Jobs run one after another (a closed loop
with one client), and BLAS runs on one thread (BLAS_ENV), so a run keeps
one core of the shared host busy and does not wait on a second one.  The
job list of a workload is rerun in whole passes until `--seconds` have
passed and at least MIN_PASSES passes are done, so every run samples the
same mix.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it alternates traced and untraced passes and reports per-layer metrics
for one pass over the job list, plus the tracing overhead.

Every job's first output is checked against independent references
(oracle.py) after the timed loop, and every rerun must print the same
bytes.  A job that exits non-zero, raises, disagrees with its reference or
changes its bytes counts as failed.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A full record with
the machine facts goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

# set before numpy loads; the fresh interpreters of import_seconds inherit it
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_PASSES = 2  # 2 passes of 20 jobs: the 75th percentile has 10 jobs beyond it
TRACED_MIN_PASSES = 2  # each of traced and untraced
SETUP_REPEATS = 3
TAIL_LADDER = (99, 95, 90, 75, 50)

END_TO_END = {
    "jobs_per_s": ("1/s", "higher"),
    "job_p50_s": ("s", "lower"),
    "job_tail_s": ("s", "lower"),
    "job_cpu_p50_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def import_program():
    """Import the CLI from this checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import probconn.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import probconn from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: probconn came from {cli.__file__}, not {src}")
    return cli


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the CLI, numpy included."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import probconn.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def run_job(runner, job, path: str):
    """One job: (exit code or exception text, stdout, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    cpu0, wall0 = process_time(), perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = runner([*job.argv, "--input", path])
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), perf_counter() - wall0, process_time() - cpu0


class Ledger:
    """Exit codes and byte identity of every run of each job slot."""

    def __init__(self, jobs) -> None:
        self.jobs = jobs
        self.first: list[str | None] = [None] * len(jobs)
        self.runs = [0] * len(jobs)
        self.failed_runs = [0] * len(jobs)
        self.problems: list[list[str]] = [[] for _ in jobs]

    def record(self, slot: int, code, stdout: str) -> None:
        self.runs[slot] += 1
        if code != 0:
            problem = f"exit {code}"
        elif self.first[slot] is None:
            self.first[slot] = stdout
            return
        elif stdout != self.first[slot]:
            problem = "stdout differs from this job's first run"
        else:
            return
        self.failed_runs[slot] += 1
        self.problems[slot].append(problem)

    def check_outputs(self) -> None:
        """Oracle-check each slot's first output; a miss fails all its runs."""
        import oracle  # networkx and scipy load only after the timed loop

        for slot, job in enumerate(self.jobs):
            if self.first[slot] is None:
                continue
            found = oracle.check(job, self.first[slot])
            if found:
                self.failed_runs[slot] = self.runs[slot]
                self.problems[slot].extend(found)

    def fail_all(self, problem: str) -> None:
        self.failed_runs = list(self.runs)
        self.problems[0].append(problem)

    @property
    def attempted(self) -> int:
        return sum(self.runs)

    @property
    def failed(self) -> int:
        return sum(self.failed_runs)

    def report(self) -> dict[str, list[str]]:
        return {f"{slot}-{job.name}": p[:5]
                for slot, (job, p) in enumerate(zip(self.jobs, self.problems)) if p}


def set_up(workload, seed: int, runner, workdir: Path):
    """Import, generate, write and warm up SETUP_REPEATS times; returns the median time."""
    import numpy as np
    from workloads import graph_text

    times, built = [], []
    for rep in range(SETUP_REPEATS):
        imported = import_seconds()
        start = perf_counter()
        jobs = workload.build(np.random.default_rng(seed))
        folder = workdir / f"setup{rep}"
        folder.mkdir()
        paths = []
        for slot, job in enumerate(jobs):
            path = folder / f"{slot}-{job.name}.pg"
            path.write_text(graph_text(job), encoding="utf-8")
            paths.append(str(path))
        warm_code = run_job(runner, jobs[0], paths[0])[0]
        times.append(imported + perf_counter() - start)
        built.append(jobs)
        if warm_code != 0:
            raise SystemExit(f"perfbench: warm-up job {jobs[0].name} ended with {warm_code}")
    if any(jobs != built[0] for jobs in built):
        raise SystemExit("perfbench: the same seed built different inputs")
    return built[0], paths, statistics.median(times)


def run_pass(runner, jobs, paths, ledger: Ledger) -> list[tuple[float, float]]:
    """Each job once, in order; returns (wall s, cpu s) per job."""
    times = []
    for slot, job in enumerate(jobs):
        code, stdout, wall, cpu = run_job(runner, job, paths[slot])
        ledger.record(slot, code, stdout)
        times.append((wall, cpu))
    return times


def traced_pass(cli, tracer, jobs, paths, ledger: Ledger) -> list[tuple[float, float]]:
    """run_pass with every job under a root `cli` span and the patches installed."""
    def runner(argv):
        return tracer.call("cli", "job", cli.run_command, (argv,))

    with tracer.installed():
        return run_pass(runner, jobs, paths, ledger)


def timed_passes(runner, jobs, paths, ledger: Ledger, seconds: float):
    """Whole passes over the job list; returns (walls, cpus, loop seconds)."""
    times, passes, start = [], 0, perf_counter()
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        times += run_pass(runner, jobs, paths, ledger)
        passes += 1
    return [w for w, _ in times], [c for _, c in times], perf_counter() - start


def tail_percentile(min_jobs: int) -> int:
    """Highest ladder percentile with at least 10 of `min_jobs` beyond it."""
    return next(p for p in TAIL_LADDER if min_jobs * (100 - p) >= 10 * 100)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(cli, jobs, paths, ledger, seconds, setup_s, info):
    walls, cpus, loop_s = timed_passes(cli.run_command, jobs, paths, ledger, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail = tail_percentile(MIN_PASSES * len(jobs))
    info.update(tail_percentile=tail, jobs_sampled=len(walls), loop_s=loop_s,
                slot_p50_s=[statistics.median(walls[k::len(jobs)]) for k in range(len(jobs))])
    return {
        "jobs_per_s": len(walls) / loop_s,
        "job_p50_s": statistics.median(walls),
        "job_tail_s": percentile(walls, tail),
        "job_cpu_p50_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(cli, jobs, paths, ledger, seconds, info):
    import tracing

    tracer = tracing.Tracer()
    pass_counts, traced_walls, untraced_walls = [], [], []
    start = perf_counter()
    while (len(traced_walls) < TRACED_MIN_PASSES or len(untraced_walls) < TRACED_MIN_PASSES
           or perf_counter() - start < seconds):
        if len(traced_walls) <= len(untraced_walls):
            traced_walls.append(sum(w for w, _ in traced_pass(cli, tracer, jobs, paths, ledger)))
            pass_counts.append(tracer.counts)
            tracer.counts = {}
        else:
            untraced_walls.append(sum(w for w, _ in run_pass(cli.run_command, jobs, paths, ledger)))
    if any(counts != pass_counts[0] for counts in pass_counts):
        ledger.fail_all("counters differ between traced passes of the same jobs")
    info.update(traced_passes=len(traced_walls), untraced_passes=len(untraced_walls),
                missing_patch_points=sorted(set(tracer.missing)), spans=tracer.spans)
    return tracing.per_layer_metrics(
        tracer.spans, pass_counts[0], len(traced_walls),
        statistics.fmean(traced_walls), statistics.fmean(untraced_walls))


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, if it exposes one."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine_facts(loadavg) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_at_start": loadavg,
    }


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    loadavg = os.getloadavg()
    workload = WORKLOADS[name]
    (BENCH / "work").mkdir(exist_ok=True)
    info: dict = {}
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=BENCH / "work") as tmp:
        jobs, paths, setup_median = set_up(workload, seed, cli.run_command, Path(tmp))
        ledger = Ledger(jobs)
        if trace:
            metrics = per_layer(cli, jobs, paths, ledger, seconds, info)
        else:
            metrics = end_to_end(cli, jobs, paths, ledger, seconds, setup_median, info)
    start = perf_counter()
    ledger.check_outputs()
    info["check_s"] = perf_counter() - start
    from tracing import METRICS

    units = {k: (u, "measured") for k, (u, _) in END_TO_END.items()}
    units.update({k: (u, kind) for k, (u, _, kind) in METRICS.items()})
    spans = info.pop("spans", None)
    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": [job.name for job in jobs],
        "machine": machine_facts(loadavg),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_ratio": ledger.failed / ledger.attempted,
        "problems": ledger.report(),
        **info,
        "metrics": {k: {"value": v, "unit": units[k][0], "kind": units[k][1]}
                    for k, v in metrics.items()},
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        columns = ["id", "parent", "job", "layer", "kind", "start", "end"]
        (results / f"{stem}-spans.json").write_text(
            json.dumps({"columns": columns, "spans": spans}) + "\n", encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    print(f"# workload {record['workload']} seed {record['seed']}: {record['why']}")
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"# jobs {record['attempted']} attempted, {record['failed']} failed, "
          f"fail_ratio {record['fail_ratio']:.6g}")
    if "tail_percentile" in record:
        print(f"# job_tail_s is p{record['tail_percentile']} of {record['jobs_sampled']} jobs")
    if "traced_passes" in record:
        print(f"# {record['traced_passes']} traced and {record['untraced_passes']} untraced "
              f"passes; per-layer values are per pass over {len(record['jobs'])} jobs")
    for missing in record.get("missing_patch_points", []):
        print(f"# patch point {missing} not found; its time counts toward the caller's layer")
    for job, problems in record["problems"].items():
        for problem in problems:
            print(f"# FAIL {job}: {problem}")
    for key, m in record["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']} ({m['kind']})")


def result_line(records: list[dict]) -> str:
    prefix = len(records) > 1
    metrics = {}
    for r in records:
        for key, m in r["metrics"].items():
            name = f"{r['workload']}.{key}" if prefix else key
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main() -> int:
    cli = import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.workload != "all":
        record = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        print(result_line([record]))
        return 0

    # one process per workload, one after another, so peak RSS stays per workload
    records = []
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        print(done.stdout, end="")
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        records.append(json.loads((BENCH / "results" / f"{stem}.json").read_text()))
    print(result_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
