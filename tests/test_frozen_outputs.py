"""Frozen outputs of the commands whose work is exact linear solves and the
y-element recursion.

Every linear system over the scalars is posed through ``linalg.solve_in_span``.
``y-elements``, ``core``, ``saturation`` and ``verify-nakayama`` run the
y-element recursion; uq-sl3 has quotient scalars.  ``centralizer`` solves for
a centralizer eigenspace, and ``audit-endo`` inverts the degree-zero part of
an endomorphism.
``validate`` and ``y-elements`` on files written by ``preset emit``, and
``validate`` and ``nakayama`` on broken files, load each presentation through
``CGLPresentation.from_json_dict``; ``validate`` on presets covers the
rewriting-consistency sweep at N up to 16.  Each case replays one argument list
through ``cli.main`` and compares stdout, stderr, the exit code and the
``--json`` payload byte for byte with the files in ``tests/data/frozen``.
The input files the cases read are kept in ``tests/data/frozen/inputs``.

To record the files of some cases, for instance of a case just added, run
``PYTHONPATH=src python tests/test_frozen_outputs.py <slug> [<slug> ...]``;
only the named cases are written, so adding a case never rewrites the files
of the others.  With no argument every case is recorded again, which is only
for an intended output change.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from cglkit.cli import main

DATA = Path(__file__).resolve().parent / "data" / "frozen"
INPUTS = DATA / "inputs"


def _slug(*parts):
    return "_".join(parts).replace(":", "_").replace(",", "-")


def _cases():
    """(slug, argv) pairs; an argv item that is a Path names an input file."""
    cases = []
    for preset in [
        "oq-matrices:2,3",
        "oq-matrices:3,3",
        "multiparam-matrices:3",
        "uq-sl3",
        "quantum-affine:3",
    ]:
        for command in ["y-elements", "core", "saturation", "verify-nakayama"]:
            cases.append((_slug(command, preset), [command, "--preset", preset]))
    # N = 12 and N = 16 certificates, recorded with the full-product check,
    # and the y-element tables of the same presets
    for preset in ["oq-matrices:3,4", "oq-matrices:4,4", "multiparam-matrices:4"]:
        for command in ["verify-nakayama", "y-elements"]:
            cases.append((_slug(command, preset), [command, "--preset", preset]))
    # the N = 25 y-element table of multiparam-matrices; the minor oracle of
    # tests/test_primes.py checks the same y's, and this case pins the output
    preset = "multiparam-matrices:5"
    cases.append((_slug("y-elements", preset), ["y-elements", "--preset", preset]))
    for preset, gen, s in [
        ("oq-matrices:2,2", "x1", "1"),
        ("oq-matrices:2,3", "x3", "0"),
        ("oq-matrices:3,3", "x1", "1"),
        ("oq-matrices:3,3", "x3", "0"),
        ("oq-matrices:3,3", "x2", "-1"),
        ("uq-sl3", "x2", "1"),
        ("uq-sl3", "x2", "0"),
    ]:
        argv = ["centralizer", gen, s, "--preset", preset]
        cases.append((_slug("centralizer", preset, gen, s), argv))
    # quantum-affine:3 endomorphisms: the README shear, the identity, a
    # diagonal map, the diagonal map after the shear, a map that breaks a
    # relation and one whose degree-zero part is singular
    for name in ["shear", "identity", "diagonal", "diagonal-shear", "breaking", "singular"]:
        argv = ["audit-endo", INPUTS / f"endo_{name}.json", "--preset", "quantum-affine:3"]
        cases.append((_slug("audit-endo", "quantum-affine:3", name), argv))
    # oq-matrices:2,2 with x2 -> x2 + x1*x2, which breaks the pairs (3, 2) and
    # (4, 2), and (4, 1) only through the x2 in Q_41 = -(q - q^-1) x2 x3
    argv = ["audit-endo", INPUTS / "endo_x2-plus-x1x2.json", "--preset", "oq-matrices:2,2"]
    cases.append((_slug("audit-endo", "oq-matrices:2,2", "x2-plus-x1x2"), argv))
    # files written by `cgl preset emit --preset <spec> --json <file>`
    for preset in ["uq-sl3", "multiparam-matrices:2", "quantum-plane-minus-one"]:
        path = INPUTS / f"{_slug('preset', preset)}.json"
        for command in ["validate", "y-elements"]:
            cases.append((_slug(command, "file", preset), [command, path]))
    # the file of oq-matrices:3,3 with its Q keys listed in reverse, so that
    # the core is built from Q-data that is not in sorted (k, j) order
    argv = ["core", INPUTS / f"{_slug('preset', 'oq-matrices:3,3-Q-reversed')}.json"]
    cases.append((_slug("core", "file", "oq-matrices:3,3-Q-reversed"), argv))
    # oq-matrices:2,2 with a diagonal lambda entry, a lower lambda entry, a Q
    # term and an h* entry changed, so that most checks report failures
    broken = "oq-matrices:2,2-broken"
    argv = ["validate", INPUTS / f"{_slug('preset', broken)}.json"]
    cases.append((_slug("validate", "file", broken), argv))
    # quantum-affine:2 on a rank-0 torus, which fails both axiom (iii) checks,
    # so that nakayama reports them instead of eigenvalues
    bad_torus = "quantum-affine:2-rank-0-torus"
    argv = ["nakayama", INPUTS / f"{_slug('preset', bad_torus)}.json"]
    cases.append((_slug("nakayama", "file", bad_torus), argv))
    # validate on presets, recorded with the sweep over all N^3 generator
    # triples, and once at fuel factor 1, the smallest that --fuel accepts
    for preset in [
        "oq-matrices:3,5",
        "oq-matrices:4,4",
        "multiparam-matrices:4",
        "uq-sl3",
        "quantum-plane-minus-one",
    ]:
        cases.append((_slug("validate", preset), ["validate", "--preset", preset]))
    argv = ["validate", "--fuel", "1", "--preset", "oq-matrices:3,3"]
    cases.append((_slug("validate", "fuel-1", "oq-matrices:3,3"), argv))
    return cases


CASES = _cases()


def _run(argv, json_path):
    out, err = io.StringIO(), io.StringIO()
    argv = [str(a) for a in argv] + ["--json", str(json_path)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("slug, argv", CASES, ids=[slug for slug, _ in CASES])
def test_frozen_output(slug, argv, tmp_path):
    json_path = tmp_path / "payload.json"
    assert _run(argv, json_path) == (DATA / f"{slug}.txt").read_text(encoding="utf-8")
    assert json_path.read_bytes() == (DATA / f"{slug}.json").read_bytes()


def _record(slugs):
    """Record the named cases, or every case when ``slugs`` is empty."""
    known = {slug for slug, _ in CASES}
    unknown = [slug for slug in slugs if slug not in known]
    if unknown:
        sys.exit(f"unknown case: {' '.join(unknown)}")
    DATA.mkdir(parents=True, exist_ok=True)
    for slug, argv in CASES:
        if slugs and slug not in slugs:
            continue
        text = _run(argv, DATA / f"{slug}.json")
        (DATA / f"{slug}.txt").write_text(text, encoding="utf-8")
        print(f"recorded {slug}", file=sys.stderr)


if __name__ == "__main__":
    _record(sys.argv[1:])
