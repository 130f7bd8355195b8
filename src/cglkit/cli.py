"""Command-line interface: analyze presentations from files or presets."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import presets as preset_catalog
from .automorphisms import (
    EndomorphismSpec,
    check_unipotent_structure,
    degree_zero_component,
    is_unipotent,
    verify_endomorphism,
)
from .errors import (
    CGLError,
    ExponentOverflow,
    MalformedPresentation,
    NotAMonomial,
    NotFiltered,
    ParseError,
    SingularDegreeZeroPart,
    UnknownPreset,
)
from .presentation import (
    CGLPresentation,
    check_torus_covering,
    validate_cgl,
    validate_symmetric,
)
from .primes import (
    bicharacter_radical,
    compute_y_elements,
    is_saturated,
    rank_of,
    torus_center_basis,
)
from .reporting import ValidationReport
from .structure import (
    core_decomposition,
    nakayama_automorphism,
    verify_nakayama_by_normal_element,
)


def _preset_args(sub):
    sub.add_argument("--preset", help="preset spec, e.g. oq-matrices:2,3")
    sub.add_argument("--json", dest="json_out", metavar="PATH", help="write the full report as JSON")


def _presentation_args(sub):
    sub.add_argument("input", nargs="?", help="presentation JSON file")
    _preset_args(sub)
    sub.add_argument("--fuel", type=_positive_int, default=None, help="rewriting fuel factor")


def _positive_int(text):
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


@functools.cache
def build_parser():
    """The `cgl` argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="cgl", description="Iterated Ore extension toolkit"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    # each command on a presentation names its handler, looked up by main at
    # call time and called as handler(P, args); a handler prints its report
    # and returns (exit code, JSON payload thunk)
    for name, helptext, handler in [
        ("validate", "check the CGL extension axioms", "cmd_validate"),
        ("y-elements", "compute the homogeneous prime elements", "cmd_y_elements"),
        ("nakayama", "compute the Nakayama automorphism", "cmd_nakayama"),
        ("verify-nakayama", "re-derive the Nakayama map from a normal element", "cmd_verify_nakayama"),
        ("core", "compute the frame/core decomposition", "cmd_core"),
        ("saturation", "test saturation of the commutation subgroups", "cmd_saturation"),
        ("center", "compute the monomial center of the torus-invariant part", "cmd_center"),
        ("rank", "rank of the character lattice of prime elements", "cmd_rank"),
    ]:
        sub = commands.add_parser(name, help=helptext)
        sub.set_defaults(handler=handler)
        _presentation_args(sub)
    sub = commands.add_parser("audit-endo", help="audit a candidate endomorphism")
    sub.set_defaults(handler="cmd_audit_endo")
    sub.add_argument("endo", help="endomorphism JSON file ({\"images\": [...]})")
    _presentation_args(sub)
    sub = commands.add_parser("centralizer", help="dimension of a centralizer eigenspace")
    sub.set_defaults(handler="cmd_centralizer")
    sub.add_argument("gen", help="generator name, e.g. x2 or X12")
    sub.add_argument("s", type=int, help="eigenvalue exponent: v w = q^s w v")
    _presentation_args(sub)
    sub = commands.add_parser("preset", help="list or emit built-in presentations")
    sub.add_argument("action", choices=["list", "emit"])
    _preset_args(sub)
    return parser


def _load_presentation(args, parser):
    if args.preset and args.input:
        parser.error("give either an input file or --preset, not both")
    if args.preset:
        P = preset_catalog.parse_preset_spec(args.preset)
    elif args.input:
        P = CGLPresentation.from_json(_read_text(args.input))
    else:
        parser.error("an input file or --preset is required")
    if args.fuel is not None:
        P.fuel_factor = args.fuel
    return P


def _read_text(path):
    """The text of a UTF-8 file; any other bytes make it malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedPresentation(f"{path}: {exc}") from exc


def _set_text(indices):
    return "{" + ",".join(str(i + 1) for i in indices) + "}"


def cmd_validate(P, args):
    reports = [validate_cgl(P)]
    if P.torus.h_star is not None:
        reports.append(validate_symmetric(P))
    for rep in reports:
        print(rep)
    code = 0 if all(rep.passed for rep in reports) else 1
    return code, lambda: {"reports": [rep.to_dict() for rep in reports]}


def cmd_y_elements(P, args):
    T = compute_y_elements(P)
    for k in range(P.N):
        print(f"y{k + 1} = {P.format(T.y[k])}")
    print(f"eta = {T.eta_data.eta}")
    pred = ["-" if p is None else str(p + 1) for p in T.eta_data.pred]
    succ = ["-" if s is None else str(s + 1) for s in T.eta_data.succ]
    print(f"pred = [{', '.join(pred)}]")
    print(f"succ = [{', '.join(succ)}]")
    print(f"finals = {_set_text(T.finals())}")
    return 0, lambda: T.to_json_dict(P)


def cmd_nakayama(P, args):
    # the formula for nu holds on CGL extensions; axiom (iii) is the torus
    # hypothesis that nothing else in the computation checks
    rep = ValidationReport(subject=f"torus axiom (iii) for {P.name or 'presentation'}")
    if not check_torus_covering(P, rep).passed:
        print(rep)
        return 1, rep.to_dict
    nu = nakayama_automorphism(P)
    print(f"eigenvalues [{', '.join(str(v) for v in nu.eigenvalues)}]")
    return 0, nu.to_json_dict


def cmd_verify_nakayama(P, args):
    T = compute_y_elements(P)
    nu = nakayama_automorphism(P)
    rep = verify_nakayama_by_normal_element(P, T, nu)
    print(rep)
    return (0 if rep.passed else 1), rep.to_dict


def cmd_core(P, args):
    T = compute_y_elements(P)
    D = core_decomposition(P, T)
    print(f"P_x = {_set_text(D.P_x)}")
    print(f"F_x = {_set_text(D.F_x)}")
    print(f"C_x = {_set_text(D.C_x)}")
    print(f"core generators: {len(D.C_x)}")
    print(D.core_report)
    return (0 if D.core_report.passed else 1), D.to_json_dict


def cmd_saturation(P, args):
    T = compute_y_elements(P)
    lam_ok = is_saturated(P.lam)
    qmat_ok = is_saturated(T.qmat)
    agree = lam_ok == qmat_ok
    print(f"commutation subgroup saturated: {'yes' if lam_ok else 'no'}")
    print(f"prime-element subgroup saturated: {'yes' if qmat_ok else 'no'}")
    print(f"verdicts agree: {'yes' if agree else 'no'}")
    rad_lam = bicharacter_radical(P.lam)
    rad_q = bicharacter_radical(T.qmat)
    print(f"radical rank (generators): {rad_lam.rank}")
    print(f"radical rank (primes): {rad_q.rank}")
    return (0 if lam_ok and qmat_ok and agree else 1), lambda: {
        "lambda_saturated": lam_ok,
        "qmat_saturated": qmat_ok,
        "agree": agree,
        "lambda_radical": rad_lam.to_json_dict(),
        "qmat_radical": rad_q.to_json_dict(),
    }


def cmd_center(P, args):
    T = compute_y_elements(P)
    C = torus_center_basis(P, T)
    print(f"center lattice rank: {C.lattice.rank}")
    for row, flag in zip(C.lattice.basis, C.nonnegative):
        tag = "monomial" if flag else "fraction"
        print(f"  {list(row)}  ({tag})")
    return 0, C.to_json_dict


def cmd_rank(P, args):
    T = compute_y_elements(P)
    r = rank_of(P, T)
    print(f"rank = {r}")
    return 0, lambda: {"rank": r}


def cmd_audit_endo(P, args):
    try:
        data = json.loads(_read_text(args.endo))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedPresentation(f"{args.endo}: {exc}") from exc
    try:
        e = EndomorphismSpec.from_json_dict(data, P)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedPresentation(f"{args.endo}: {exc}") from exc
    reports = [verify_endomorphism(P, e)]
    print(reports[0])
    extra = {}
    uni = None
    if P.generator_degrees() is not None:
        uni = is_unipotent(P, e)
        print(f"unipotent: {'yes' if uni else 'no'}")
        extra["unipotent"] = uni
    if reports[0].passed and uni and P.torus.h_star is not None:
        T = compute_y_elements(P)
        D = core_decomposition(P, T)
        rep = check_unipotent_structure(P, T, D, e)
        print(rep)
        reports.append(rep)
    if reports[0].passed and P.generator_degrees() is not None:
        try:
            _, _, rep = degree_zero_component(P, e)
            print(rep)
            reports.append(rep)
        except NotFiltered:
            print("note: not filtered; graded factorization skipped")
        except SingularDegreeZeroPart:
            print("note: degree-zero part singular; bijectivity not certified")
    code = 0 if all(rep.passed for rep in reports) else 1
    return code, lambda: {**extra, "reports": [rep.to_dict() for rep in reports]}


def cmd_centralizer(P, args):
    from .automorphisms import centralizer_eigenspace_dim

    idx = P.generator_index(args.gen)
    if idx is None:
        build_parser().error(f"unknown generator {args.gen!r}")
    d = centralizer_eigenspace_dim(P, P.x(idx), args.s)
    print(f"dim C_{args.s}({args.gen}) = {d}")
    return 0, lambda: {"dim": d}


def cmd_preset(args, parser):
    if args.action == "list":
        lines = []
        for name in sorted(preset_catalog.CATALOG):
            _, helptext = preset_catalog.CATALOG[name]
            lines.append(f"{name}  {helptext}")
            print(lines[-1])
        return 0, lambda: {"presets": lines}
    if not args.preset:
        parser.error("preset emit requires --preset")
    P = preset_catalog.parse_preset_spec(args.preset)
    text = P.to_json()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0, None


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "preset":
            code, payload = cmd_preset(args, parser)
        else:
            P = _load_presentation(args, parser)
            code, payload = globals()[args.handler](P, args)
        # the JSON payload is built only when it is written
        payload = payload() if getattr(args, "json_out", None) and payload else None
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # interpreter exit stays silent, and report nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ParseError as exc:
        print(f"error: {exc.message} (line {exc.line}, column {exc.col})", file=sys.stderr)
        if exc.source:
            line_text = exc.source.splitlines()[exc.line - 1]
            print(f"  {line_text}", file=sys.stderr)
            print(f"  {' ' * (exc.col - 1)}^", file=sys.stderr)
        return 2
    except (UnknownPreset, MalformedPresentation, NotAMonomial, ExponentOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CGLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if payload is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
