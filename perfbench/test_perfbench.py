"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They start the benchmark through its command line, on the cheapest workload.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench_jobs  # noqa: E402
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return done


def result(*args):
    done = bench(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(out, declared):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_every_metric_is_printed_with_its_unit():
    check_metrics(result("--workload", "search", "--seed", "3", "--seconds", "1", "--trace", "0"), SPEC["end_to_end"])
    traced = result("--workload", "search", "--seed", "3", "--seconds", "1", "--trace", "1")
    check_metrics(traced, SPEC["per_layer"])
    assert traced["metrics"]["pbw.multiply.pairs"]["value"] > 0


def test_traced_counts_repeat_exactly():
    runs = [result("--workload", "search", "--seed", "5", "--seconds", "1", "--trace", "1") for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in out["metrics"].items() if m["unit"] == "count"}
        for out in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["pbw.cache_entries"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_known_answers_reject_wrong_output():
    check = bench_jobs._check_cli("nakayama", "oq-matrices:2,2")
    assert check((0, "eigenvalues [q^2, 1, 1, q^-2]\n")) is None
    assert check((0, "eigenvalues [q^2, 1, q, q^-2]\n")) is not None
    assert check((1, "eigenvalues [q^2, 1, 1, q^-2]\n")) == "exit code 1"
    check = bench_jobs._check_cli("y-elements", "oq-matrices:3,3")
    assert check((0, "eta = [0, 1, 2]\nfinals = {1,2,3}\n")) is not None
    check = bench_jobs._check_cli("validate", "uq-sl3")
    text = "PASS  CGL axioms for uq-sl3\nFAIL  symmetric conditions for uq-sl3\n  [FAIL] x\n"
    assert check((0, text)) is not None


@pytest.mark.parametrize("call, status", [
    (lambda: time.sleep(5), "timeout"),
    (lambda: 1 / 0, "raised"),
    (lambda: "wrong answer", "wrong"),
])
def test_failed_jobs_are_recorded(call, status):
    job = bench_jobs.Job("probe", (), call, lambda outcome: outcome)
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    seconds, got, detail = run.run_job(job, 0.2)
    assert got == status, detail
