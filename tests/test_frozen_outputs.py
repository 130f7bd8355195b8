"""Frozen outputs of the commands whose work is exact linear solves.

``y-elements``, ``core``, ``saturation`` and ``verify-nakayama`` all solve the
y-element normality systems; uq-sl3 also has quotient scalars and solves
through ``presets._in_span_coeff`` when it is built.  Each case replays one
command through ``cli.main`` and compares stdout, stderr, the exit code and
the ``--json`` payload byte for byte with the files in ``tests/data/frozen``.

To record the files again (only when an output change is intended), run
``PYTHONPATH=src python tests/test_frozen_outputs.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from cglkit.cli import main

DATA = Path(__file__).resolve().parent / "data" / "frozen"
PRESETS = [
    "oq-matrices:2,3",
    "oq-matrices:3,3",
    "multiparam-matrices:3",
    "uq-sl3",
    "quantum-affine:3",
]
COMMANDS = ["y-elements", "core", "saturation", "verify-nakayama"]
CASES = [(command, preset) for preset in PRESETS for command in COMMANDS]


def _slug(command, preset):
    return f"{command}_{preset.replace(':', '_').replace(',', '-')}"


def _run(command, preset, json_path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--preset", preset, "--json", str(json_path)])
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("command, preset", CASES, ids=[_slug(*c) for c in CASES])
def test_frozen_output(command, preset, tmp_path):
    slug = _slug(command, preset)
    json_path = tmp_path / "payload.json"
    assert _run(command, preset, json_path) == (DATA / f"{slug}.txt").read_text(encoding="utf-8")
    assert json_path.read_bytes() == (DATA / f"{slug}.json").read_bytes()


def _record():
    DATA.mkdir(parents=True, exist_ok=True)
    for command, preset in CASES:
        slug = _slug(command, preset)
        text = _run(command, preset, DATA / f"{slug}.json")
        (DATA / f"{slug}.txt").write_text(text, encoding="utf-8")
        print(f"recorded {slug}", file=sys.stderr)


if __name__ == "__main__":
    _record()
