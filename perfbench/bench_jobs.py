"""Workload job lists and their known answers.

A job is one user-visible unit of work: either ``cglkit.cli.main(argv)`` with
stdout captured, or one public library call on presentations the job builds
itself.  ``Job.call`` is the timed part; ``Job.check`` compares the outcome
with an answer that does not come from the code under test (closed-form
results from the theory of quantum matrices, the README transcripts, or an
identity every product must satisfy) and returns a failure description, or
None when the outcome is right.

Every cglkit function is looked up through its module at call time, so the
tracer's wrappers are the ones called in a traced pass.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from cglkit import automorphisms, cli, pbw, presentation, presets, scalars

# Transcripts copied from README.md, the CLI's behaviour contract.
README_TRANSCRIPTS = {
    ("y-elements", "oq-matrices:2,2"): (
        "y1 = x1\n"
        "y2 = x2\n"
        "y3 = x3\n"
        "y4 = x1*x4 - q*x2*x3\n"
        "eta = [0, 1, 2, 0]\n"
        "pred = [-, -, -, 1]\n"
        "succ = [4, -, -, -]\n"
        "finals = {2,3,4}\n"
    ),
    ("nakayama", "oq-matrices:2,2"): "eigenvalues [q^2, 1, 1, q^-2]\n",
    ("verify-nakayama", "oq-matrices:2,3"): (
        "PASS  Nakayama via normal element for oq-matrices:2,3\n"
        "  [ok] x_k u = u nu(x_k) for every generator\n"
        "  [ok] beta_k = prod_j lambda_kj for every generator\n"
    ),
}

# Presets of the workloads: spec -> (number of generators N, rank).  The rank
# of quantized t x n matrices is t + n - 1; U_q^+(sl_3) on w0 has rank 2.
PRESETS = {
    "oq-matrices:2,2": (4, 3),
    "oq-matrices:2,3": (6, 4),
    "oq-matrices:3,3": (9, 5),
    "oq-matrices:3,4": (12, 6),
    "oq-matrices:3,5": (15, 7),
    "oq-matrices:4,4": (16, 7),
    "multiparam-matrices:2": (4, 3),
    "multiparam-matrices:3": (9, 5),
    "multiparam-matrices:4": (16, 7),
    "uq-sl3": (3, 2),
}

UNIPOTENT_SAMPLES = 200
ASSOC_PERMUTATIONS = 2
ASSOC_TRIPLES = 100  # per permutation


@dataclass
class Job:
    name: str
    specs: tuple  # presets the job builds
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


# -- CLI jobs --


def _cli_call(argv):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    return call


def _verdicts(text, subjects):
    """None when each subject has a PASS header and no check failed."""
    lines = text.splitlines()
    for subject in subjects:
        if f"PASS  {subject}" not in lines:
            return f"no PASS verdict for {subject!r}"
    bad = [ln for ln in lines if ln.startswith("FAIL") or ln.strip().startswith("[FAIL]")]
    if bad:
        return f"failed check: {bad[0].strip()}"
    return None


def _field(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _monomial_text(exponent):
    if exponent == 0:
        return "1"
    if exponent == 1:
        return "q"
    return f"q^{exponent}"


def _nakayama_expected(spec):
    """Closed-form Nakayama eigenvalues, or None where no formula is frozen.

    On quantized t x n matrices (row-major X_ij) nu(X_ij) = q^((t+1-2i) +
    (n+1-2j)); on U_q^+(sl_3) the Cartan pairing gives the identity.
    """
    if spec == "uq-sl3":
        return "[1, 1, 1]"
    if spec.startswith("oq-matrices:"):
        t, n = (int(v) for v in spec.split(":")[1].split(","))
        values = [
            _monomial_text((t + 1 - 2 * i) + (n + 1 - 2 * j))
            for i in range(1, t + 1)
            for j in range(1, n + 1)
        ]
        return "[" + ", ".join(values) + "]"
    return None


def _check_cli(command, spec):
    N, rank = PRESETS[spec]
    transcript = README_TRANSCRIPTS.get((command, spec))

    def check(outcome):
        code, text = outcome
        if code != 0:
            return f"exit code {code}"
        if transcript is not None and text != transcript:
            return "output differs from the README transcript"
        if command == "verify-nakayama":
            return _verdicts(text, [f"Nakayama via normal element for {spec}"])
        if command == "core":
            return _verdicts(text, [f"symmetric conditions for {spec}|core"])
        if command == "validate":
            return _verdicts(text, [f"CGL axioms for {spec}", f"symmetric conditions for {spec}"])
        if command == "nakayama":
            values = _field(text, "eigenvalues ")
            if values is None or len(values.split(",")) != N:
                return f"expected {N} eigenvalues, got {values!r}"
            expected = _nakayama_expected(spec)
            if expected is not None and values != expected:
                return f"eigenvalues {values} != {expected}"
            return None
        if command == "y-elements":
            eta = _field(text, "eta = [")
            finals = _field(text, "finals = {")
            if eta is None or finals is None:
                return "missing eta or finals line"
            levels = len(set(eta.rstrip("]").split(", ")))
            n_finals = len(finals.rstrip("}").split(","))
            if levels != rank or n_finals != rank:
                return f"rank {levels} (eta) / {n_finals} (finals) != {rank}"
            return None
        if command == "saturation":
            for line in (
                "commutation subgroup saturated: yes",
                "prime-element subgroup saturated: yes",
                "verdicts agree: yes",
            ):
                if line not in text.splitlines():
                    return f"missing {line!r}"
            return None
        raise ValueError(f"no known answer for {command}")

    return check


def cli_job(command, spec):
    return Job(
        name=f"{command} {spec}",
        specs=(spec,),
        call=_cli_call([command, "--preset", spec]),
        check=_check_cli(command, spec),
    )


# -- library jobs (search workload) --


def _unipotent_search_job(spec, seed):
    def call():
        P = presets.parse_preset_spec(spec)
        hits, tested = automorphisms.random_unipotent_search(
            P, samples=UNIPOTENT_SAMPLES, seed=seed, max_degree=4
        )
        return len(hits), tested

    def check(outcome):
        hits, tested = outcome
        if tested != UNIPOTENT_SAMPLES:
            return f"tested {tested} of {UNIPOTENT_SAMPLES} samples"
        if hits:
            return f"{hits} unipotent hits on a rigid presentation"
        return None

    return Job(f"unipotent-search {spec}", (spec,), call, check)


def interval_permutation(N, rng):
    """A permutation whose every prefix image is an interval of 0..N-1."""
    lo = hi = rng.randrange(N)
    tau = [lo]
    while len(tau) < N:
        if lo > 0 and (hi == N - 1 or rng.random() < 0.5):
            lo -= 1
            tau.append(lo)
        else:
            hi += 1
            tau.append(hi)
    return tau


def _random_poly_data(N, rng, max_deg):
    """Two terms: (exponent tuple, integer coefficient, power of the first parameter)."""
    terms = {}
    while len(terms) < 2:
        mono = [0] * N
        for _ in range(rng.randint(1, max_deg)):
            mono[rng.randrange(N)] += 1
        terms[tuple(mono)] = (rng.choice([1, -1, 2]), rng.choice([-1, 0, 0, 1]))
    return terms


def _assoc_job(spec, rng):
    N, _ = PRESETS[spec]
    max_deg = 2 if N >= 9 else 3
    cases = [
        (
            interval_permutation(N, rng),
            [[_random_poly_data(N, rng, max_deg) for _ in range(3)] for _ in range(ASSOC_TRIPLES)],
        )
        for _ in range(ASSOC_PERMUTATIONS)
    ]

    def call():
        base = presets.parse_preset_spec(spec)
        bad = []
        for tau, triples in cases:
            P = presentation.permute_presentation(base, tau)
            space = P.space

            def poly(data):
                terms = {}
                for mono, (c, e) in data.items():
                    exps = [0] * space.m
                    exps[0] = e
                    terms[mono] = scalars.LaurentFraction.from_monomial(space, c, exps)
                return pbw.PBWPolynomial(space, P.N, terms)

            for data in triples:
                a, b, c = (poly(d) for d in data)
                if P.mul(P.mul(a, b), c) != P.mul(a, P.mul(b, c)):
                    bad.append(f"(ab)c != a(bc) under tau={tau}")
                if pbw.multiply(a, b, P, strategy="leftmost") != pbw.multiply(
                    a, b, P, strategy="rightmost"
                ):
                    bad.append(f"leftmost != rightmost under tau={tau}")
        return bad

    def check(bad):
        if bad:
            return f"{len(bad)} mismatches, first: {bad[0]}"
        return None

    return Job(f"assoc-confluence {spec}", (spec,), call, check)


# -- workloads --

CERTIFY_SPECS = ["oq-matrices:3,3", "oq-matrices:3,4", "multiparam-matrices:3", "uq-sl3"]
PRIMES_SPECS = ["oq-matrices:3,5", "oq-matrices:4,4", "multiparam-matrices:4"]
SEARCH_RIGID = ["oq-matrices:2,2", "uq-sl3", "multiparam-matrices:2"]
SEARCH_ASSOC = ["oq-matrices:2,3", "oq-matrices:3,3", "multiparam-matrices:2", "uq-sl3"]

# The job whose time is reported as top_job_s.
TOP_JOB = {
    "certify": "verify-nakayama oq-matrices:3,4",
    "primes": "y-elements multiparam-matrices:4",
    "search": "assoc-confluence oq-matrices:2,3",
}


def _certify(seed):
    jobs = [
        cli_job(command, spec)
        for command in ("verify-nakayama", "nakayama", "y-elements", "core")
        for spec in CERTIFY_SPECS
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


def _primes(seed):
    jobs = [cli_job(command, spec) for command in ("validate", "y-elements") for spec in PRIMES_SPECS]
    jobs.append(cli_job("saturation", "oq-matrices:3,4"))
    random.Random(seed).shuffle(jobs)
    return jobs


def _search(seed):
    jobs = []
    for spec in SEARCH_RIGID:
        rng = random.Random(f"{seed}:unipotent:{spec}")
        jobs.append(_unipotent_search_job(spec, rng.randrange(2**31)))
    for spec in SEARCH_ASSOC:
        jobs.append(_assoc_job(spec, random.Random(f"{seed}:assoc:{spec}")))
    jobs += [cli_job(command, spec) for command, spec in README_TRANSCRIPTS]
    random.Random(seed).shuffle(jobs)
    return jobs


WORKLOADS = {"certify": _certify, "primes": _primes, "search": _search}


def workload_jobs(name, seed):
    """The fixed job list of a workload; the seed fixes job order and random inputs."""
    return WORKLOADS[name](seed)
