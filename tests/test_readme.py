"""The command transcripts in README.md, replayed through cli.main.

Every ``$ cgl ...`` line in an unlabelled code block of the README runs in a
scratch directory holding the files that the README shows with ``$ cat``.
The printed output must match the transcript byte for byte; a transcript
that ends in ``...`` is matched as a prefix.
"""

import shlex
from pathlib import Path

import pytest

from cglkit import cli
from cglkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# A file that a transcript reads but the README does not show; the README
# shows only the parse error it produces.
HIDDEN_FILES = {"broken.json": '{"images": ["x1", "x2 + * x3", "x3"]}\n'}

# Exit codes other than 0, as the README states them.
EXIT_CODES = {
    "cgl saturation --preset quantum-plane-minus-one": 1,
    "cgl audit-endo broken.json --preset quantum-affine:3": 2,
}


def _transcripts():
    """(command, output) pairs from the unlabelled code blocks, in order."""
    runs = []
    lang = None  # info string of the open code block; None outside blocks
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            lang = line[3:] if lang is None else None
        elif lang == "":
            if line.startswith("$ "):
                runs.append((line[2:], []))
            elif runs:
                runs[-1][1].append(line)
    out = []
    for command, lines in runs:
        text = "".join(f"{line}\n" for line in lines)
        out.append((command, text.rstrip("\n") + "\n" if text.strip() else ""))
    return out


TRANSCRIPTS = _transcripts()
FILES = {cmd.split()[1]: text for cmd, text in TRANSCRIPTS if cmd.startswith("cat ")}
COMMANDS = [(cmd, text) for cmd, text in TRANSCRIPTS if cmd.startswith("cgl ")]


def test_readme_has_transcripts():
    assert len(COMMANDS) >= 10
    assert "shear.json" in FILES


@pytest.mark.parametrize("command, expected", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_transcript(command, expected, tmp_path, monkeypatch, capsys):
    for name, text in {**FILES, **HIDDEN_FILES}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    printed = captured.out + captured.err
    assert code == EXIT_CODES.get(command, 0)
    if expected.endswith("...\n"):
        head = expected[: expected.rindex("\n", 0, -1) + 1]
        assert printed.startswith(head)
    else:
        assert printed == expected


def test_one_parser_serves_every_call(capsys):
    """A usage error leaves the shared parser fit for the next command."""
    assert cli.build_parser() is cli.build_parser()
    assert main(["y-elements", "--preset", "oq-matrices:2,2", "--fuel", "0"]) == 2
    capsys.readouterr()
    assert main(["y-elements", "--preset", "oq-matrices:2,2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == dict(COMMANDS)["cgl y-elements --preset oq-matrices:2,2"]
    assert captured.err == ""
    assert cli.build_parser() is cli.build_parser()


def _quickstart_lines():
    """The lines of the python block under ``## Library quickstart``."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1]
    return block.split("\n```", 1)[0].splitlines()


def test_library_quickstart_runs_as_commented():
    """Each line runs in turn; a line's ``# comment`` starts with str() of its value."""
    namespace = {}
    checked = 0
    for line in _quickstart_lines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(line, namespace)
            continue
        value = eval(code, namespace)
        assert comment.strip().startswith(str(value)), line
        checked += 1
    assert checked == 7
