"""The benchmark's own checks: references, failure detection, repeatable counters.

Run from the repository root (about two minutes on a 2-core machine):

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's plain `pytest` run
does not collect it and tier-1 time does not grow.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, graph_text  # noqa: E402

cli = run.import_program()


def _tests_oracles():
    spec = importlib.util.spec_from_file_location("tests_oracles", run.ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_jobs(jobs, folder: Path) -> list[str]:
    paths = []
    for slot, job in enumerate(jobs):
        path = folder / f"{slot}.pg"
        path.write_text(graph_text(job), encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def workdir():
    (BENCH / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=BENCH / "work") as tmp:
        yield Path(tmp)


@pytest.fixture(scope="module")
def outputs(workdir):
    """Each workload's jobs for seed 5, run once: {workload: (jobs, stdouts)}."""
    found = {}
    for name, workload in WORKLOADS.items():
        jobs = workload.build(np.random.default_rng(5))
        folder = workdir / f"out-{name}"
        folder.mkdir()
        paths = _write_jobs(jobs, folder)
        stdouts = []
        for job, path in zip(jobs, paths):
            code, stdout, _, _ = run.run_job(cli.run_command, job, path)
            assert code == 0, (job.name, code)
            stdouts.append(stdout)
        found[name] = (jobs, stdouts)
    return found


def test_reference_matches_the_bfs_fsum_enumeration_in_tests():
    reference = _tests_oracles().connectivity_by_enumeration
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = rng.choice(len(pairs), size=int(rng.integers(0, min(9, len(pairs)) + 1)), replace=False)
        edges = tuple(sorted((*pairs[c], float(rng.choice([0.0, 1.0, rng.random()]))) for c in chosen))
        np.testing.assert_allclose(oracle.exact_q(n, edges), reference(n, list(edges)), rtol=0, atol=1e-13)


def test_inputs_follow_the_seed_and_sizes_do_not():
    for workload in WORKLOADS.values():
        a = workload.build(np.random.default_rng(3))
        b = workload.build(np.random.default_rng(3))
        c = workload.build(np.random.default_rng(4))
        assert a == b
        assert [j.edges for j in a] != [j.edges for j in c]
        assert [(j.name, j.n, len(j.edges)) for j in a] == [(j.name, j.n, len(j.edges)) for j in c]
        assert len(a) == 20


def test_outputs_pass_the_oracle(outputs):
    for name, (jobs, stdouts) in outputs.items():
        for job, stdout in zip(jobs, stdouts):
            assert oracle.check(job, stdout) == [], (name, job.name)


def _corruptions(check: str):
    def bump(key, delta):
        def corrupt(doc):
            doc[key][0][1] += delta
            doc[key][1][0] += delta
        return corrupt

    def fake_critical(doc):
        doc["critical_vertices"].append({"k": doc["n"] + 1, "witnesses": [], "partition": None, "warnings": []})

    def fake_violation(doc):
        doc["bounds"]["violations"].append({"i": 0, "j": 1, "kind": "lower", "magnitude": 1e-3})

    def gain(doc):
        doc["ranking"][0]["projected_gain"] += 1e-5

    def lam(doc):
        doc["lambda_max"] += 1e-6

    return {
        "compute": [bump("q", 1e-8), fake_critical, fake_violation, lam],
        "rank": [gain, lam],
        "mc-exact": [bump("q", 0.05)],
        "mc-sampled": [bump("q", 0.3)],
        "walk": [bump("walk", 1e-9)],
    }[check]


def test_oracle_flags_wrong_outputs(outputs):
    for jobs, stdouts in outputs.values():
        for job, stdout in zip(jobs, stdouts):
            for corrupt in _corruptions(job.check):
                doc = json.loads(stdout)
                corrupt(doc)
                assert oracle.check(job, json.dumps(doc)), (job.name, corrupt.__name__)


def test_changed_bytes_and_nonzero_exits_fail_their_runs():
    job = WORKLOADS["exact-rank"].build(np.random.default_rng(1))[0]
    ledger = run.Ledger([job])
    ledger.record(0, 0, "{}")
    ledger.record(0, 0, "{}")
    ledger.record(0, 0, "{} ")
    ledger.record(0, 2, "")
    assert (ledger.attempted, ledger.failed) == (4, 2)


def _traced(jobs, paths):
    tracer = tracing.Tracer()
    ledger = run.Ledger(jobs)
    walls = [w for w, _ in run.traced_pass(cli, tracer, jobs, paths, ledger)]
    assert ledger.failed == 0
    return tracer, walls


def test_counters_repeat_exactly_and_self_times_add_up(workdir):
    for name, workload in WORKLOADS.items():
        counts = []
        for attempt in range(2):
            jobs = workload.build(np.random.default_rng(9))
            folder = workdir / f"trace-{name}-{attempt}"
            folder.mkdir()
            tracer, walls = _traced(jobs, _write_jobs(jobs, folder))
            assert tracer.missing == []
            counts.append({k: tracer.counts.get(k, 0) for k in tracing.COUNTERS})
            times = tracing.layer_times(tracer.spans)
            roots = [s for s in tracer.spans if s[1] == -1]
            assert len(roots) == len(jobs)
            root_total = sum(end - start for *_, start, end in roots)
            self_total = sum(times.get(f"{layer}.self", 0.0) for layer in tracing.LAYERS)
            assert abs(self_total - root_total) < 1e-9
            assert root_total <= sum(walls)
        assert counts[0] == counts[1], name
        assert counts[0]["exact.calls"] + counts[0]["montecarlo.samples"] > 0


def _result(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def test_result_line_names_every_declared_metric():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = _result(["perfbench/run.py", "--workload", "exact-rank", "--seed", "2",
                        "--seconds", "0", "--trace", trace], run.ROOT)
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        names = {m["name"]: m["unit"] for m in declared[key]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == names
    code = {**run.END_TO_END, **{k: (u, b) for k, (u, b, _) in tracing.METRICS.items()}}
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert code[m["name"]] == (m["unit"], m["better"]), m["name"]


def test_fails_without_the_program(workdir):
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    done = _result(["perfbench/run.py", "--workload", "exact-rank", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
