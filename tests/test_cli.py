"""End-to-end command-line behavior, driven through cli.main."""

import io
import json
import os
import sys
from pathlib import Path

import pytest

from cglkit import cli, primes, structure
from cglkit.cli import main
from cglkit.presentation import CGLPresentation
from cglkit.presets import parse_preset_spec

FROZEN_INPUTS = Path(__file__).resolve().parent / "data" / "frozen" / "inputs"

ALL_PRESETS = [
    "quantum-affine:2",
    "quantum-affine:3",
    "oq-matrices:2,2",
    "oq-matrices:2,3",
    "oq-matrices:3,2",
    "multiparam-matrices:2",
    "uq-sl3",
    "quantum-plane-minus-one",
]


def test_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    assert "oq-matrices" in out
    assert "uq-sl3" in out
    assert "quantum-plane-minus-one" in out


def test_preset_emit_to_file(tmp_path, capsys):
    target = tmp_path / "m22.json"
    assert main(["preset", "emit", "--preset", "oq-matrices:2,2", "--json", str(target)]) == 0
    P = CGLPresentation.from_json(target.read_text())
    assert P == parse_preset_spec("oq-matrices:2,2")


def test_preset_emit_to_stdout(capsys):
    # stdout is byte for byte the file that the frozen cases read
    for spec in ["uq-sl3", "multiparam-matrices:2", "quantum-plane-minus-one"]:
        assert main(["preset", "emit", "--preset", spec]) == 0
        out = capsys.readouterr().out
        assert "lambda" in json.loads(out)
        slug = spec.replace(":", "_").replace(",", "-")
        assert out == (FROZEN_INPUTS / f"preset_{slug}.json").read_text(encoding="utf-8")


def test_preset_emit_requires_a_spec(capsys):
    assert main(["preset", "emit"]) == 2


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["preset", "list", "junk.json"], "junk.json"),
        (["preset", "emit", "x.json", "--preset", "uq-sl3"], "x.json"),
        (["preset", "emit", "--preset", "uq-sl3", "--fuel", "3"], "--fuel 3"),
    ],
)
def test_preset_takes_no_input_file_and_no_fuel(argv, extra, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"cgl: error: unrecognized arguments: {extra}"
    ]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("spec", ALL_PRESETS)
def test_validate_presets(spec, capsys):
    assert main(["validate", "--preset", spec]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_rejects_bad_lambda_diagonal(tmp_path, capsys):
    data = json.loads(parse_preset_spec("oq-matrices:2,2").to_json())
    data["lambda"][0][0] = "q"
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_rank_zero_torus_fails_axiom_iii(tmp_path, capsys):
    # an empty product of characters is 1, so lambda_21 = q and the
    # non-root-of-unity weights fail instead of raising
    data = json.loads(parse_preset_spec("quantum-affine:2").to_json())
    data["torus"] = {"rank": 0, "chi": [[], []], "h": [[], []]}
    f = tmp_path / "rank0.json"
    f.write_text(json.dumps(data))
    assert main(["validate", str(f)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] axiom (iii): chi_{x_j}(h_k) = lambda_{kj}  (failing (k, j) [(2, 1)])" in out
    assert "[FAIL] axiom (iii): lambda_k = chi_{x_k}(h_k) not a root of unity  (failing k [1, 2])" in out


def test_validate_malformed_file_is_a_usage_error(tmp_path, capsys):
    data = json.loads(parse_preset_spec("oq-matrices:2,2").to_json())
    del data["torus"]["h"]
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_an_exponent_past_the_limit_in_file_text_is_a_parse_error(tmp_path, capsys):
    data = json.loads(parse_preset_spec("quantum-affine:2").to_json())
    data["lambda"][0][1] = "q^2147483648"
    f = tmp_path / "big.json"
    f.write_text(json.dumps(data))
    for command in ("validate", "nakayama", "y-elements"):
        assert main([command, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: power 2147483648 takes an exponent out of range (|e| < 2^31)"
            " (line 1, column 2)\n  q^2147483648\n   ^\n"
        )


@pytest.mark.parametrize("command", ["validate", "nakayama"])
def test_a_torus_value_past_the_exponent_limit_is_refused(command, tmp_path, capsys):
    """chi_{x_1}(h_1) = q^(2^31) is past the exponent limit, refused as a power past it is."""
    data = json.loads(parse_preset_spec("quantum-affine:3").to_json())
    data["torus"]["chi"][0][0] = 2**31
    f = tmp_path / "chi.json"
    f.write_text(json.dumps(data))
    assert main([command, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exponent 2147483648 is out of range (|e| < 2^31)\n"


def assert_usage_error(argv, capsys, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err


NESTED_TOO_DEEPLY = "expression nested too deeply (line 1, column 101)"


def test_a_lambda_entry_nested_too_deeply_is_a_parse_error(tmp_path, capsys):
    data = json.loads(parse_preset_spec("quantum-affine:3").to_json())
    data["lambda"][1][0] = "(" * 400 + "q" + ")" * 400
    f = tmp_path / "deep.json"
    f.write_text(json.dumps(data))
    assert_usage_error(["validate", str(f)], capsys, NESTED_TOO_DEEPLY)


def test_an_image_nested_too_deeply_is_a_parse_error(tmp_path, capsys):
    endo = write_endo(tmp_path, ["-(" * 400 + "x1" + ")" * 400, "x2", "x3"])
    argv = ["audit-endo", endo, "--preset", "quantum-affine:3"]
    assert_usage_error(argv, capsys, NESTED_TOO_DEEPLY)


@pytest.mark.parametrize("command", ["validate", "audit-endo"])
def test_json_nested_too_deeply_is_malformed(command, tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000 + "]" * 100_000)
    if command == "validate":
        assert_usage_error(["validate", str(f)], capsys, "invalid JSON: ")
    else:
        argv = ["audit-endo", str(f), "--preset", "quantum-affine:3"]
        assert_usage_error(argv, capsys, f"{f}: ")


@pytest.mark.parametrize("command", ["validate", "audit-endo"])
def test_a_file_that_is_not_utf8_is_malformed(command, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_bytes(b"\xff\xfe{}")
    argv = ["validate", str(f)]
    if command == "audit-endo":
        argv = ["audit-endo", str(f), "--preset", "quantum-affine:2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {f}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


NOT_STRINGS = {"true": True, "list": [["q"]], "number": 2, "nested": "NESTED"}


@pytest.mark.parametrize("kind", NOT_STRINGS)
@pytest.mark.parametrize(
    "place, message",
    [("lambda", "lambda[2][1]"), ("h", "torus.h[1][1]"), ("Q", "Q[3,1]")],
)
def test_a_scalar_that_is_not_a_json_string_is_malformed(place, message, kind, tmp_path, capsys):
    data = json.loads(parse_preset_spec("quantum-affine:3").to_json())
    value = NOT_STRINGS[kind]
    if place == "lambda":
        data["lambda"][1][0] = value
    elif place == "h":
        data["torus"]["h"][0][0] = value
    else:
        data["Q"] = {"3,1": value}
    f = tmp_path / "scalar.json"
    # a list nested 900 deep, spliced in as text
    f.write_text(json.dumps(data).replace('"NESTED"', "[" * 900 + '"q"' + "]" * 900))
    assert main(["validate", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} must be a string\n"


@pytest.mark.parametrize(
    "family, row",
    [
        ("chi", None), ("chi", 0), ("h", None), ("h", 2), ("h_star", None), ("h_star", 1),
    ],
)
def test_a_torus_family_of_the_wrong_shape_is_malformed(family, row, tmp_path, capsys):
    """row None drops the last row; otherwise that row loses its last entry."""
    data = json.loads(parse_preset_spec("quantum-affine:3").to_json())
    rows = data["torus"][family]
    if row is None:
        rows.pop()
    else:
        rows[row].pop()
    f = tmp_path / "torus.json"
    f.write_text(json.dumps(data))
    assert main(["validate", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: torus {family} must be N x rank\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("params", "qr", "params must be a list"),
        ("params", {"q": 1, "r": 2}, "params must be a list"),
        ("name", ["a", 1], "name must be a string"),
        ("name", 7, "name must be a string"),
    ],
)
def test_params_and_name_of_the_wrong_json_type_are_malformed(field, value, message, tmp_path, capsys):
    data = json.loads(parse_preset_spec("quantum-affine:2").to_json())
    data[field] = value
    f = tmp_path / "typed.json"
    f.write_text(json.dumps(data))
    assert main(["validate", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("name", [None, ""])
def test_an_empty_or_null_name_reads_as_no_name(name, tmp_path, capsys):
    data = json.loads(parse_preset_spec("quantum-affine:2").to_json())
    data["name"] = name
    f = tmp_path / "unnamed.json"
    f.write_text(json.dumps(data))
    assert main(["validate", str(f)]) == 0
    assert capsys.readouterr().out.startswith("PASS  CGL axioms for presentation\n")


def test_a_grading_of_the_wrong_length_is_malformed(tmp_path, capsys):
    data = json.loads(parse_preset_spec("quantum-affine:3").to_json())
    data["torus"]["pi"].append(1)
    f = tmp_path / "pi.json"
    f.write_text(json.dumps(data))
    assert main(["validate", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pi must have length torus.rank\n"


def test_q_outside_its_subalgebra_names_1_based_indices(tmp_path, capsys):
    data = json.loads(parse_preset_spec("quantum-affine:3").to_json())
    data["Q"] = {"2,1": "x2"}
    f = tmp_path / "q21.json"
    f.write_text(json.dumps(data))
    assert main(["validate", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Q[2,1] must lie in the subalgebra on x1..x1\n"


def test_division_by_zero_in_file_text_is_a_parse_error(tmp_path, capsys):
    data = json.loads(parse_preset_spec("quantum-affine:3").to_json())
    f = tmp_path / "zero.json"
    # a lambda entry, an h entry and a Q entry of 1/0
    for path in [("lambda", 1, 0), ("torus", "h", 0, 0), ("Q",)]:
        bad = json.loads(json.dumps(data))
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = {"2,1": "1/0"} if path == ("Q",) else "1/0"
        f.write_text(json.dumps(bad))
        assert main(["validate", str(f)]) == 2
        err = capsys.readouterr().err
        assert err == "error: division by zero (line 1, column 2)\n  1/0\n   ^\n"
    endo = write_endo(tmp_path, ["x1/0", "x2", "x3"])
    assert main(["audit-endo", endo, "--preset", "quantum-affine:3"]) == 2
    assert capsys.readouterr().err == "error: division by zero (line 1, column 3)\n  x1/0\n    ^\n"
    # a negative power of zero divides by zero as well
    endo = write_endo(tmp_path, ["x1", "x2", "(q - q)^-1*x3"])
    assert main(["audit-endo", endo, "--preset", "quantum-affine:3"]) == 2
    assert capsys.readouterr().err.startswith("error: division by zero (line 1, column 1)")
    data["lambda"][1][0] = "0^-1"
    f.write_text(json.dumps(data))
    assert main(["validate", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: division by zero (line 1, column 1)")


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away, backed by a real descriptor."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def test_closed_stdout_ends_quietly(tmp_path, monkeypatch, capsys):
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main(["preset", "emit", "--preset", "oq-matrices:3,3"]) == 1
        # the descriptor now points at devnull, so the flush at exit is silent
        os.write(fd, b"flushed at exit")
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


def test_validate_missing_file(capsys):
    assert main(["validate", "no-such-file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_input_and_preset_are_mutually_exclusive(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text("{}")
    assert main(["validate", str(f), "--preset", "uq-sl3"]) == 2


def test_presentation_source_is_required(capsys):
    assert main(["validate"]) == 2


def test_unknown_preset(capsys):
    assert main(["validate", "--preset", "no-such-thing"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, name, size",
    [
        ("oq-matrices:-1,2", "oq-matrices", "-1"),
        ("oq-matrices:2,-3", "oq-matrices", "-3"),
        ("quantum-affine:-3", "quantum-affine", "-3"),
        ("quantum-affine:-2:q", "quantum-affine", "-2"),
        ("multiparam-matrices:-1", "multiparam-matrices", "-1"),
    ],
)
def test_negative_preset_size_is_a_usage_error(spec, name, size, capsys):
    assert main(["validate", "--preset", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: bad arguments for preset {name}: "
        f"size {size} must be a nonnegative integer\n"
    )


def test_seed_is_not_an_option(capsys):
    assert main(["validate", "--preset", "uq-sl3", "--seed", "1"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_nakayama_output(capsys):
    assert main(["nakayama", "--preset", "oq-matrices:2,2"]) == 0
    assert "eigenvalues [q^2, 1, 1, q^-2]" in capsys.readouterr().out


def test_nakayama_json_payload(tmp_path, capsys):
    target = tmp_path / "nu.json"
    assert main(["nakayama", "--preset", "oq-matrices:2,2", "--json", str(target)]) == 0
    assert json.loads(target.read_text()) == {
        "eigenvalues": ["q^2", "1", "1", "q^-2"]
    }


def test_y_elements_output(tmp_path, capsys):
    target = tmp_path / "y.json"
    code = main(["y-elements", "--preset", "oq-matrices:2,2", "--json", str(target)])
    assert code == 0
    out = capsys.readouterr().out
    assert "y4 = x1*x4 - q*x2*x3" in out
    assert "pred = [-, -, -, 1]" in out
    assert "finals = {2,3,4}" in out
    payload = json.loads(target.read_text())
    assert payload["finals"] == [2, 3, 4]
    assert payload["y"][3] == "x1*x4 - q*x2*x3"


@pytest.mark.parametrize(
    "command, cls",
    [("y-elements", primes.YElementTable), ("core", structure.CoreDecomposition)],
)
def test_json_payload_is_built_only_with_json(command, cls, tmp_path, monkeypatch, capsys):
    """The payload costs a full formatting pass, so a run without --json
    builds none, and a run with it builds exactly one."""
    calls = []
    to_json_dict = cls.to_json_dict

    def counting(self, *args):
        calls.append(1)
        return to_json_dict(self, *args)

    monkeypatch.setattr(cls, "to_json_dict", counting)
    assert main([command, "--preset", "oq-matrices:2,2"]) == 0
    plain = capsys.readouterr().out
    assert len(calls) == 0
    target = tmp_path / "payload.json"
    assert main([command, "--preset", "oq-matrices:2,2", "--json", str(target)]) == 0
    assert capsys.readouterr().out == plain
    assert len(calls) == 1
    assert json.loads(target.read_text())


def test_verify_nakayama(capsys):
    assert main(["verify-nakayama", "--preset", "multiparam-matrices:2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_core_of_quantum_affine_space(capsys):
    assert main(["core", "--preset", "quantum-affine:3"]) == 0
    out = capsys.readouterr().out
    assert "F_x = {1,2,3}" in out
    assert "core generators: 0" in out


def test_core_of_quantum_matrices(capsys):
    assert main(["core", "--preset", "oq-matrices:2,2"]) == 0
    out = capsys.readouterr().out
    assert "F_x = {}" in out
    assert "C_x = {1,2,3,4}" in out


def test_saturation_verdicts(capsys):
    assert main(["saturation", "--preset", "oq-matrices:2,2"]) == 0
    out = capsys.readouterr().out
    assert "commutation subgroup saturated: yes" in out
    assert main(["saturation", "--preset", "quantum-plane-minus-one"]) == 1
    out = capsys.readouterr().out
    assert "commutation subgroup saturated: no" in out
    assert "verdicts agree: yes" in out


def test_rank_output(capsys):
    assert main(["rank", "--preset", "oq-matrices:2,3"]) == 0
    assert "rank = 4" in capsys.readouterr().out


def test_center_output(capsys):
    assert main(["center", "--preset", "oq-matrices:2,2"]) == 0
    out = capsys.readouterr().out
    assert "center lattice rank: 2" in out
    assert "[0, 0, 0, 1]  (monomial)" in out
    assert "[0, 1, -1, 0]  (fraction)" in out


def test_centralizer_output(capsys):
    assert main(["centralizer", "x2", "1", "--preset", "oq-matrices:2,2"]) == 0
    assert "dim C_1(x2) = 1" in capsys.readouterr().out


def test_centralizer_accepts_aliases(capsys):
    assert main(["centralizer", "X12", "1", "--preset", "oq-matrices:2,2"]) == 0
    assert "dim C_1(X12) = 1" in capsys.readouterr().out


def test_centralizer_unknown_generator(capsys):
    assert main(["centralizer", "x9", "1", "--preset", "oq-matrices:2,2"]) == 2


def test_centralizer_multiparameter_limitation(capsys):
    assert main(["centralizer", "x1", "1", "--preset", "multiparam-matrices:2"]) == 1
    assert "error:" in capsys.readouterr().err


def write_endo(tmp_path, images):
    f = tmp_path / "endo.json"
    f.write_text(json.dumps({"images": images}))
    return str(f)


def test_audit_identity_endomorphism(tmp_path, capsys):
    endo = write_endo(tmp_path, ["x1", "x2", "x3", "x4"])
    assert main(["audit-endo", endo, "--preset", "oq-matrices:2,2"]) == 0
    out = capsys.readouterr().out
    assert "unipotent: yes" in out
    assert "certified" in out


def test_audit_shear_on_affine_space(tmp_path, capsys):
    endo = write_endo(tmp_path, ["x1", "x2 + q*x1*x3", "x3"])
    assert main(["audit-endo", endo, "--preset", "quantum-affine:3"]) == 0
    out = capsys.readouterr().out
    assert "unipotent: yes" in out


def test_audit_rejects_relation_breaking_map(tmp_path, capsys):
    endo = write_endo(tmp_path, ["x1", "x2 + x1"])
    assert main(["audit-endo", endo, "--preset", "quantum-affine:2"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_audit_parse_error_shows_position(tmp_path, capsys):
    endo = write_endo(tmp_path, ["x1 + @", "x2"])
    assert main(["audit-endo", endo, "--preset", "quantum-affine:2"]) == 2
    err = capsys.readouterr().err
    assert "(line 1, column 6)" in err
    assert "^" in err


def test_audit_wrong_image_count(tmp_path, capsys):
    endo = write_endo(tmp_path, ["x1", "x2"])
    assert main(["audit-endo", endo, "--preset", "quantum-affine:3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_audit_missing_endo_file(capsys):
    assert main(["audit-endo", "absent.json", "--preset", "quantum-affine:2"]) == 2


def test_fuel_flag_is_accepted(capsys):
    assert main(["validate", "--preset", "oq-matrices:2,2", "--fuel", "20"]) == 0


@pytest.mark.parametrize("fuel, factor", [([], 8), (["--fuel", "3"], 3)])
def test_fuel_flag_sets_the_factor_of_a_file_as_of_a_preset(fuel, factor, monkeypatch, capsys):
    seen = []

    def record(P, args):
        seen.append(P.fuel_factor)
        return 0, None

    monkeypatch.setattr(cli, "cmd_validate", record)
    source = str(FROZEN_INPUTS / "preset_uq-sl3.json")
    assert main(["validate", source, *fuel]) == 0
    assert main(["validate", "--preset", "uq-sl3", *fuel]) == 0
    assert seen == [factor, factor]


@pytest.mark.parametrize("fuel", ["-1", "0"])
def test_fuel_must_be_a_positive_integer(fuel, capsys):
    assert main(["validate", "--preset", "oq-matrices:2,2", "--fuel", fuel]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --fuel: expected a positive integer, got '{fuel}'" in captured.err


def test_handlers_are_looked_up_at_call_time(monkeypatch, capsys):
    """The shared parser names each handler, so a handler replaced after it was built still runs."""
    assert main(["y-elements", "--preset", "oq-matrices:2,2"]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_y_elements", lambda P, args: (calls.append(P.N) or 7, None))
    assert main(["y-elements", "--preset", "oq-matrices:2,2"]) == 7
    assert calls == [4]


def test_roundtrip_emitted_file_through_validate(tmp_path, capsys):
    target = tmp_path / "p.json"
    assert main(["preset", "emit", "--preset", "oq-matrices:3,2", "--json", str(target)]) == 0
    assert main(["validate", str(target)]) == 0
