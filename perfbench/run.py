"""cglkit benchmark: end-to-end runs and a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The benchmark drives cglkit from outside, in this one process and without
threads, on presentations each job builds afresh, exactly as a user of the
``cgl`` command or the library would.  Workloads (see bench_jobs.py):

* certify: ``verify-nakayama``, ``nakayama``, ``y-elements`` and ``core`` on
  oq-matrices:3,3 / 3,4, multiparam-matrices:3 and uq-sl3.  A few large PBW
  products on Laurent-monomial scalars.
* primes: ``validate`` and ``y-elements`` on the N=15/16 rungs plus one
  ``saturation`` job.  Exact linear solves over true-quotient scalars.
* search: seeded unipotent searches on rigid presets, associativity /
  confluence checks on seeded interval permutations, and the README
  transcripts of oq-matrices:2,2 / 2,3.  Many small distinct products on
  cold caches.

With ``--trace 0`` the job list runs in passes until ``--seconds`` is spent
(at least one pass) and the end-to-end metrics are medians over passes.
``setup_s`` is measured before that, in fresh interpreter processes.
With ``--trace 1`` the job list runs once untraced and once traced (see
bench_trace.py), and the per-layer metrics come from the traced pass.

Every job's outcome is checked against a known answer; a wrong outcome, an
exception or a timeout counts as failed.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Per-job rows and the result go to perfbench/out/ as well.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

JOB_TIMEOUT_S = 60.0
# Jobs still due after this much run time are recorded as timeouts unrun,
# so that a run always ends well within three minutes.
RUN_LIMIT_S = 150.0
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 30.0

# Set-up in a fresh interpreter: import cglkit and build the presentations.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import cglkit, cglkit.cli, cglkit.presets
for spec in sys.argv[1:]:
    cglkit.presets.parse_preset_spec(spec)
print(repr(time.perf_counter() - t0))
"""


class JobTimeout(BaseException):
    """Raised in the running job by SIGALRM; not an Exception, so no handler in cglkit catches it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(job, timeout, tracer=None, job_id=0):
    """Run one job; returns (seconds spent or None when not started, status, detail)."""
    if timeout <= 0:
        return None, "timeout", "run time limit reached before the job started"
    gc.collect()
    if tracer is not None:
        tracer.begin_job(job_id)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = time.perf_counter()
    try:
        outcome = job.call()
        seconds = time.perf_counter() - t0
    except JobTimeout:
        return time.perf_counter() - t0, "timeout", f"no verdict after {timeout:.0f} s"
    except Exception as exc:  # any error is a failed job, reported by type
        return time.perf_counter() - t0, "raised", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.end_job()
    problem = job.check(outcome)
    if problem is not None:
        return seconds, "wrong", problem
    return seconds, "ok", ""


def run_pass(jobs, t_start, tracer=None):
    rows = []
    for job_id, job in enumerate(jobs):
        left = RUN_LIMIT_S - (time.perf_counter() - t_start)
        rows.append((job.name,) + run_job(job, min(JOB_TIMEOUT_S, left), tracer, job_id))
    return rows


def pass_wall(rows):
    return sum(seconds for _, seconds, _, _ in rows if seconds is not None)


def measure_setup(specs):
    """Median set-up time over fresh interpreters, after one unrecorded warm-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    times = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, *specs],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, jobs, seconds, t_start):
    from bench_jobs import TOP_JOB

    # uq-sl3 is always built, so set-up always includes its Serre-relation derivation.
    specs = sorted({spec for job in jobs for spec in job.specs} | {"uq-sl3"})
    setup_s = measure_setup(specs)
    passes = []
    t_measure = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, t_start))
        elapsed = time.perf_counter() - t_measure
        typical = statistics.median(pass_wall(rows) for rows in passes)
        if elapsed + typical > seconds or time.perf_counter() - t_start + typical > RUN_LIMIT_S / 2:
            break
    per_job = {}
    for rows in passes:
        for name, secs, status, detail in rows:
            per_job.setdefault(name, []).append((secs, status, detail))
    job_s = {
        name: statistics.median(s for s, _, _ in runs if s is not None)
        for name, runs in per_job.items()
        if any(s is not None for s, _, _ in runs)
    }
    metrics = {
        "wall_s": _metric(statistics.median(pass_wall(rows) for rows in passes), "s"),
        "job_p50_s": _metric(statistics.median(job_s.values()) if job_s else 0.0, "s"),
        "top_job_s": _metric(job_s.get(TOP_JOB[workload], 0.0), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    return passes, metrics, job_s, per_job


def per_layer(workload, jobs, t_start):
    import bench_trace

    untraced = run_pass(jobs, t_start)
    tracer = bench_trace.Tracer()
    bench_trace.install(tracer)
    traced = run_pass(jobs, t_start, tracer)
    wall = pass_wall(traced)
    calls, self_s, outer_s = bench_trace.summarize(tracer)
    counts = tracer.counts
    pairs = counts["pbw.multiply.pairs"]
    results = counts["scalars.results"]
    m = {}

    def count(name, value):
        m[name] = _metric(int(value), "count")

    def secs(name, value):
        m[name] = _metric(value, "s")

    def ratio(name, value):
        m[name] = _metric(value, "ratio")

    for op in ("mul", "add", "eq"):
        count(f"scalars.{op}.calls", calls[f"scalars.{op}"])
    count("scalars.results", results)
    ratio("scalars.quotient_share", counts["scalars.quotients"] / results if results else 0.0)
    secs("scalars.self_s", self_s["scalars"])
    count("pbw.multiply.calls", calls["pbw.multiply"])
    count("pbw.multiply.pairs", pairs)
    count("pbw.normalize.calls", calls["pbw.normalize"])
    ratio("pbw.pair_reuse", 1.0 - calls["pbw.normalize.from_multiply"] / pairs if pairs else 0.0)
    count("pbw.cache_entries", counts["pbw.cache_entries"])
    secs("pbw.self_s", self_s["pbw"])
    count("linalg.solve.calls", calls["linalg.solve"])
    count("linalg.solve.cells", counts["linalg.solve.cells"])
    secs("linalg.self_s", self_s["linalg"])
    secs("linalg.incl_s", outer_s["linalg"])
    ratio("linalg.wall_share", self_s["linalg"] / wall if wall else 0.0)
    count("lattice.calls", calls["lattice"])
    secs("lattice.self_s", self_s["lattice"])
    secs("primes.y_elements.self_s", self_s["primes.y_elements"])
    count("primes.enum.monomials", counts["primes.enum.monomials"])
    secs("primes.enum.self_s", self_s["primes.enum"])
    secs("structure.certificate.self_s", self_s["structure.certificate"])
    secs("structure.core.self_s", self_s["structure.core"])
    secs("presentation.validate.self_s", self_s["presentation.validate"])
    count("presentation.permute.calls", calls["presentation.permute"])
    count("automorphisms.verify.calls", calls["automorphisms.verify"])
    secs("automorphisms.self_s", self_s["automorphisms"])
    secs("presets.build_s", outer_s["presets"])
    secs("parsing.format.self_s", self_s["parsing.format"])
    secs("cli.self_s", self_s["cli"])
    secs("bench.self_s", wall - outer_s["root"])
    secs("trace.wall_s", wall)
    secs("trace.overhead_s", wall - pass_wall(untraced))
    count("trace.spans", len(tracer.end))
    OUT.mkdir(exist_ok=True)
    bench_trace.write_spans(tracer, OUT / f"{workload}.spans.tsv.gz", [job.name for job in jobs])
    return [untraced, traced], m


def _bases(metrics):
    """The base of each ratio, printed beside it."""
    v = {name: entry["value"] for name, entry in metrics.items()}
    return {
        "scalars.quotient_share": f"of {v['scalars.results']} scalar results",
        "pbw.pair_reuse": f"of {v['pbw.multiply.pairs']} monomial pairs",
        "linalg.wall_share": f"of trace.wall_s = {v['trace.wall_s']:.4f} s",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    if not (SRC / "cglkit" / "__init__.py").is_file():
        print(f"error: cglkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_jobs

    if args.workload not in bench_jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    jobs = bench_jobs.workload_jobs(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        passes, metrics = per_layer(args.workload, jobs, t_start)
        job_s, per_job = {}, {}
        bases = _bases(metrics)
    else:
        passes, metrics, job_s, per_job = end_to_end(args.workload, jobs, args.seconds, t_start)
        bases = {}
    rows = [row for rows in passes for row in rows]
    failed = [row for row in rows if row[2] != "ok"]
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(jobs)} jobs x {len(passes)} passes, "
        f"fail_share {len(failed)}/{len(rows)} = {len(failed) / len(rows):.4f}"
    )
    for name, secs, status, detail in rows if args.trace else []:
        print(f"job  {'-' if secs is None else f'{secs:.4f}'} s  {status}  {name}  {detail}".rstrip())
    for name in per_job:
        runs = per_job[name]
        statuses = sorted({status for _, status, _ in runs})
        secs = job_s.get(name)
        print(
            f"job  {'-' if secs is None else f'{secs:.4f}'} s  {'/'.join(statuses)}  {name}"
            f"  (median of {len(runs)})"
        )
    for name, _, status, detail in failed:
        print(f"FAILED  {name}: {status}: {detail}")
    for name, entry in metrics.items():
        base = f"  ({bases[name]})" if name in bases else ""
        print(f"metric  {name} = {entry['value']} {entry['unit']}{base}")
    result = {
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, jobs=rows)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
