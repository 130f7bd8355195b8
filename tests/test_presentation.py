"""Presentation data model: validators, JSON schema, permutations, reversal."""

import itertools
import json
import random
import re
from math import comb
from pathlib import Path

import pytest

from cglkit.errors import (
    DivergenceBudgetExceeded,
    MalformedPresentation,
    MissingHStar,
    NotAMonomial,
    NotInXi,
    NotReversible,
)
from cglkit import pbw
from cglkit.pbw import PBWPolynomial
from cglkit.presentation import (
    CGLPresentation,
    TorusData,
    is_interval_permutation,
    is_symmetric,
    is_torsionfree,
    permute_presentation,
    reverse_presentation,
    sample_interval_permutation,
    validate_cgl,
    validate_symmetric,
)
from cglkit.parsing import parse_scalar
from cglkit.presets import parse_preset_spec
from cglkit.scalars import LaurentFraction, ParameterSpace

ALL_PRESETS = [
    "quantum-affine:2:q",
    "quantum-affine:3:q",
    "oq-matrices:2,2",
    "oq-matrices:2,3",
    "oq-matrices:3,2",
    "multiparam-matrices:2",
    "uq-sl3",
    "quantum-plane-minus-one",
]
SYMMETRIC_PRESETS = ALL_PRESETS[:-1]
# oq-matrices:2,2 with a diagonal lambda entry, a lower lambda entry, a Q
# term and an h* entry changed
BROKEN_OQ22 = (
    Path(__file__).resolve().parent / "data" / "frozen" / "inputs"
    / "preset_oq-matrices_2-2-broken.json"
)


@pytest.mark.parametrize("spec", ALL_PRESETS)
def test_presets_satisfy_cgl_axioms(spec):
    P = parse_preset_spec(spec)
    rep = validate_cgl(P)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("spec", SYMMETRIC_PRESETS)
def test_presets_are_symmetric(spec):
    P = parse_preset_spec(spec)
    rep = validate_symmetric(P)
    assert rep.passed, str(rep)
    assert is_symmetric(P)


def test_symmetric_needs_h_star():
    P = parse_preset_spec("quantum-plane-minus-one")
    with pytest.raises(MissingHStar):
        validate_symmetric(P)
    assert not is_symmetric(P)


def test_broken_lambda_diagonal_is_reported():
    P = parse_preset_spec("quantum-affine:2:q")
    data = json.loads(P.to_json())
    data["lambda"][0][0] = "q"
    loaded = CGLPresentation.from_json(json.dumps(data))
    assert loaded.file_issues
    rep = validate_cgl(loaded)
    assert not rep.passed
    failing = [c.name for c in rep.failures()]
    assert "lambda matrix as loaded" in failing


def test_broken_lambda_upper_triangle_is_reported():
    P = parse_preset_spec("quantum-affine:2:q")
    data = json.loads(P.to_json())
    data["lambda"][0][1] = "q^5"
    loaded = CGLPresentation.from_json(json.dumps(data))
    rep = validate_cgl(loaded)
    assert not rep.passed


def test_malformed_inputs():
    P = parse_preset_spec("quantum-affine:2:q")
    data = json.loads(P.to_json())
    bad = dict(data)
    bad["lambda"] = data["lambda"][:1]
    with pytest.raises(MalformedPresentation):
        CGLPresentation.from_json_dict(bad)
    bad = json.loads(P.to_json())
    bad["Q"] = {"5,1": "x1"}
    with pytest.raises(MalformedPresentation):
        CGLPresentation.from_json_dict(bad)
    with pytest.raises(MalformedPresentation, match=r"^Q index \(3, 1\) out of range$"):
        CGLPresentation(P.space, 2, {(1, 0): P.lam[1][0]}, {(2, 0): P.x(0)}, P.torus)
    bad = json.loads(P.to_json())
    bad["torus"]["chi"] = bad["torus"]["chi"][:1]
    with pytest.raises(MalformedPresentation):
        CGLPresentation.from_json_dict(bad)
    with pytest.raises(MalformedPresentation):
        CGLPresentation.from_json("{not json")
    # wrong types and missing fields; a value of None deletes the field
    for path, value in [
        (("N",), "abc"),
        (("torus", "rank"), "x"),
        (("torus", "h"), None),
        (("torus", "chi", 0, 0), "a"),
        (("lambda",), 5),
        (("torus", "pi", 0), "z"),
        (("Q",), [1]),
    ]:
        bad = json.loads(P.to_json())
        target = bad
        for key in path[:-1]:
            target = target[key]
        if value is None:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        with pytest.raises(MalformedPresentation):
            CGLPresentation.from_json_dict(bad)
    # counts must be JSON integers: int() would truncate 2.5 and accept true
    for field, value in [
        ("N", -1), ("N", 2.5), ("N", True), ("N", "2"),
        ("rank", -1), ("rank", 2.5), ("rank", True), ("rank", False),
    ]:
        bad = json.loads(P.to_json())
        (bad["torus"] if field == "rank" else bad)[field] = value
        with pytest.raises(MalformedPresentation, match=f"{field} must be a nonnegative integer"):
            CGLPresentation.from_json_dict(bad)
    # torus chi and pi entries must be JSON integers too; negatives are allowed
    for field in ["chi", "pi"]:
        for value in [1.5, 1.9, True, False, "1"]:
            bad = json.loads(P.to_json())
            row = bad["torus"][field]
            (row[0] if field == "chi" else row)[0] = value
            with pytest.raises(MalformedPresentation, match=f"{field} entry must be an integer"):
                CGLPresentation.from_json_dict(bad)


def test_q_entry_must_live_below_its_row():
    sp = ParameterSpace(("q",))
    q = LaurentFraction.parameter(sp, "q")
    one = LaurentFraction.one(sp)
    torus = TorusData(
        rank=2,
        chi=[(1, 0), (0, 1)],
        h=[(q, one)] * 2,
    )
    with pytest.raises(MalformedPresentation):
        CGLPresentation(
            sp,
            2,
            {(1, 0): q},
            {(1, 0): PBWPolynomial(sp, 2, {(0, 1): q})},
            torus,
        )


@pytest.mark.parametrize("entry", ["lambda", "h", "h_star"])
@pytest.mark.parametrize("text", ["q + 1", "q/(q + 1)", "0"])
def test_a_scalar_entry_that_is_not_a_monomial_is_refused(entry, text):
    """The constructor checks every lambda, h and h* entry, also of data built in code."""
    sp = ParameterSpace(("q",))
    q = LaurentFraction.parameter(sp, "q")
    one = LaurentFraction.one(sp)
    bad = parse_scalar(text, sp)
    torus = TorusData(
        rank=2,
        chi=[(1, 0), (0, 1)],
        h=[(q, one), (bad if entry == "h" else q, q)],
        h_star=[(q, q), (one, bad if entry == "h_star" else q)],
        pi=(1, 1),
    )
    lam = bad if entry == "lambda" else q
    with pytest.raises(NotAMonomial, match=f"^not a monomial: {re.escape(str(bad))}$"):
        CGLPresentation(sp, 2, {(1, 0): lam}, {}, torus)


@pytest.mark.parametrize("spec", ALL_PRESETS + ["oq-matrices:3,3"])
def test_json_roundtrip_byte_identical(spec):
    P = parse_preset_spec(spec)
    text = P.to_json()
    P2 = CGLPresentation.from_json(text)
    assert P2.to_json() == text
    assert P2 == P


def test_is_torsionfree():
    assert is_torsionfree(parse_preset_spec("quantum-affine:3:q"))
    assert is_torsionfree(parse_preset_spec("oq-matrices:2,2"))
    assert not is_torsionfree(parse_preset_spec("quantum-plane-minus-one"))
    # subgroup generated by -q alone is infinite cyclic, hence torsionfree
    sp = ParameterSpace(("q",))
    neg_q = LaurentFraction.from_monomial(sp, -1, (1,))
    one = LaurentFraction.one(sp)
    q = LaurentFraction.parameter(sp, "q")
    torus = TorusData(
        rank=2,
        chi=[(1, 0), (0, 1)],
        h=[(q, one), (neg_q, q)],
        pi=(1, 1),
    )
    P = CGLPresentation(sp, 2, {(1, 0): neg_q}, {}, torus)
    assert is_torsionfree(P)


def test_interval_permutation_predicate():
    assert is_interval_permutation([0, 1, 2])
    assert is_interval_permutation([2, 1, 0])
    assert is_interval_permutation([1, 2, 0])
    assert is_interval_permutation([1, 0, 2])
    assert not is_interval_permutation([0, 2, 1])
    assert not is_interval_permutation([2, 0, 3, 1])


def test_sampler_yields_valid_permutations():
    rng = random.Random(13)
    for n in (1, 2, 4, 7):
        for _ in range(20):
            tau = sample_interval_permutation(n, rng)
            assert sorted(tau) == list(range(n))
            assert is_interval_permutation(tau)


def test_permuted_presentation_is_cgl():
    P = parse_preset_spec("oq-matrices:2,2")
    rng = random.Random(42)
    seen = set()
    for _ in range(6):
        tau = tuple(sample_interval_permutation(P.N, rng))
        if tau in seen:
            continue
        seen.add(tau)
        Pt = permute_presentation(P, list(tau))
        assert validate_cgl(Pt).passed, f"tau={tau}"
        for a in range(P.N):
            for b in range(P.N):
                assert Pt.lam[a][b] == P.lam[tau[a]][tau[b]]


def test_permute_rejects_non_interval():
    P = parse_preset_spec("oq-matrices:2,2")
    with pytest.raises(NotInXi):
        permute_presentation(P, [0, 2, 1, 3])


def test_permute_needs_h_star_for_descents():
    P = parse_preset_spec("quantum-plane-minus-one")
    with pytest.raises(MissingHStar):
        permute_presentation(P, [1, 0])
    # the identity works without h*
    Pt = permute_presentation(P, [0, 1])
    assert Pt.lam == P.lam


def test_reversal():
    P = parse_preset_spec("oq-matrices:2,2")
    Pr = reverse_presentation(P)
    assert validate_cgl(Pr).passed
    assert validate_symmetric(Pr).passed
    assert Pr.lam[0][3] == P.lam[3][0]
    # reversal is an involution
    assert reverse_presentation(Pr) == P
    # and matches the general permutation machinery on the reversed order
    Pt = permute_presentation(P, [3, 2, 1, 0])
    assert Pt.lam == Pr.lam
    assert Pt.Q == Pr.Q


def test_reordered_presentations_keep_the_fuel_factor():
    P = parse_preset_spec("oq-matrices:2,2")
    P.fuel_factor = 3
    assert permute_presentation(P, [1, 0, 2, 3]).fuel_factor == 3
    assert reverse_presentation(P).fuel_factor == 3


def test_a_lambda_index_not_strictly_lower_is_named_1_based():
    P = parse_preset_spec("quantum-affine:2")
    with pytest.raises(MalformedPresentation, match=r"^lambda index \(1, 2\) not strictly lower$"):
        CGLPresentation(P.space, 2, {(0, 1): P.lam[1][0]}, {}, P.torus)


def test_reversal_requires_support_between_endpoints():
    # Q_21 = x1 touches an endpoint, so the reversed order is not an
    # iterated Ore extension presentation
    sp = ParameterSpace(("q",))
    q = LaurentFraction.parameter(sp, "q")
    one = LaurentFraction.one(sp)
    torus = TorusData(
        rank=2,
        chi=[(1, 0), (1, 1)],
        h=[(q, one), (one, q)],
        h_star=[(q, one), (q, q)],
        pi=(1, 0),
    )
    P = CGLPresentation(
        sp, 2, {(1, 0): q}, {(1, 0): PBWPolynomial(sp, 2, {(1, 0): q})}, torus
    )
    with pytest.raises(NotReversible):
        reverse_presentation(P)


def test_delta_is_locally_nilpotent_on_quantum_matrices():
    P = parse_preset_spec("oq-matrices:2,2")
    d1 = P.delta(3, P.x(0))
    q = P.scalar("q")
    assert d1 == P.mul(P.x(1), P.x(2)).scale(q.inverse() - q)
    assert P.delta(3, d1).is_zero


def test_sigma_scales_monomials():
    P = parse_preset_spec("oq-matrices:2,2")
    q = P.scalar("q")
    assert P.sigma(3, P.x(1)) == P.x(1).scale(q.inverse())
    assert P.sigma(3, P.x(0)) == P.x(0)


def test_generator_index_and_aliases():
    P = parse_preset_spec("oq-matrices:2,3")
    assert P.generator_index("x1") == 0
    assert P.generator_index("x6") == 5
    assert P.generator_index("X23") == 5
    assert P.generator_index("x7") is None
    assert P.generator_index("bogus") is None


def test_equality_ignores_name():
    P = parse_preset_spec("oq-matrices:2,2")
    data = json.loads(P.to_json())
    data["name"] = "renamed"
    P2 = CGLPresentation.from_json(json.dumps(data))
    assert P2 == P


def test_shared_generators_survive_arithmetic():
    P = parse_preset_spec("oq-matrices:2,2")
    q = P.scalar("q")
    one = LaurentFraction.one(P.space)
    gens = [P.x(i) for i in range(P.N)]
    scaled = [g.scale(q) for g in gens]
    for i, g in enumerate(gens):
        other = P.x((i + 1) % P.N)
        results = [
            g + other, g - other, other - g, -g, g.scale(q), g.scale(0),
            P.mul(g, other), P.mul(other, g), pbw.power(g, 3, P),
            pbw.apply_endomorphism(gens, g, P), pbw.apply_endomorphism(scaled, g, P),
            P.parse(f"x{i + 1} + x{i + 1}"),
        ]
        assert all(r is not g for r in results)
        assert P.x(i) is g and P.parse(f"x{i + 1}") is g
        unit = tuple(int(j == i) for j in range(P.N))
        assert list(g.terms) == [unit] and g.terms[unit] == one


def test_generator_index_out_of_range():
    P = parse_preset_spec("oq-matrices:2,2")
    for i in (-1, P.N):
        with pytest.raises(ValueError, match=f"generator index {i} out of range for N=4"):
            P.x(i)


def _validate_counting_products(monkeypatch, P):
    """validate_cgl(P), and the PBW products it makes besides the two of each
    delta_k step of the nilpotency check."""
    products = []
    delta_steps = []
    multiply, delta = pbw.multiply, P.delta

    def counting_multiply(p, r, P, strategy="leftmost"):
        products.append(1)
        return multiply(p, r, P, strategy)

    def counting_delta(k, p):
        delta_steps.append(1)
        return delta(k, p)

    monkeypatch.setattr(pbw, "multiply", counting_multiply)
    monkeypatch.setattr(P, "delta", counting_delta)
    rep = validate_cgl(P)
    assert delta_steps
    return rep, len(products) - 2 * len(delta_steps)


def test_associativity_sweep_reuses_each_bc_product(monkeypatch):
    P = parse_preset_spec("oq-matrices:2,3")
    rep, products = _validate_counting_products(monkeypatch, P)
    assert rep.passed
    # the overlap sweep makes x_a x_b for a > b > 0, (x_a x_b) x_c and
    # x_a (x_b x_c) for a > b > c and, once, x_b x_c for N - 1 > b > c
    N = P.N
    assert products == (N - 1) * (N - 2) + 2 * comb(N, 3)


def test_failed_overlap_falls_back_to_the_full_sweep(monkeypatch):
    P = CGLPresentation.from_json(BROKEN_OQ22.read_text(encoding="utf-8"))
    rep, products = _validate_counting_products(monkeypatch, P)
    assert _consistency_check(rep) == (False, "failing triples [(4, 2, 1), (4, 3, 1)]")
    # the overlap sweep stops at its first failure (4, 2, 1) after x3 x2,
    # (x3 x2) x1, x2 x1, x3 (x2 x1), x4 x2, (x4 x2) x1 and x4 (x2 x1); the
    # full sweep then makes x_a x_b, (x_a x_b) x_c, x_a (x_b x_c) and x_b x_c
    N = P.N
    assert products == 7 + 2 * N**3 + 2 * N**2


# -- the overlap sweep against a reference sweep over all N^3 triples --


def _reference_consistency(P, triples):
    """The failing 1-based triples among ``triples``, each product made afresh,
    or the message of the first DivergenceBudgetExceeded."""
    failing = []
    try:
        for a, b, c in triples:
            xa, xb, xc = P.x(a), P.x(b), P.x(c)
            if P.mul(P.mul(xa, xb), xc) != P.mul(xa, P.mul(xb, xc)):
                failing.append((a + 1, b + 1, c + 1))
    except DivergenceBudgetExceeded as exc:
        return str(exc)
    return failing


def _reference_check(P):
    """(passed, detail) of the consistency line as the full sweep reports it."""
    failing = _reference_consistency(P, itertools.product(range(P.N), repeat=3))
    if isinstance(failing, str):
        return False, failing
    return not failing, f"failing triples {failing[:5]}" if failing else ""


def _consistency_check(rep):
    (check,) = [c for c in rep.checks if c.name == "rewriting consistency on generator triples"]
    return check.passed, check.detail


def _with_extra_q_term(P, rng):
    """P with c x_i added to one Q_{kj}, i < k, all three seeded."""
    k = rng.randrange(1, P.N)
    j, i = rng.randrange(k), rng.randrange(k)
    term = PBWPolynomial.monomial(P.space, P.N, tuple(int(t == i) for t in range(P.N)))
    poly = P.Q.get((k, j), PBWPolynomial.zero(P.space, P.N)) + term.scale(rng.choice([1, -1, 2]))
    data = json.loads(P.to_json())
    data["Q"][f"{k + 1},{j + 1}"] = P.format(poly)
    return CGLPresentation.from_json_dict(data)


@pytest.mark.parametrize("spec", ["oq-matrices:2,3", "multiparam-matrices:3", "uq-sl3"])
def test_broken_q_term_reports_the_reference_failing_triples(spec):
    P = parse_preset_spec(spec)
    broken = 0
    for seed in range(6):
        Pc = _with_extra_q_term(P, random.Random(seed))
        expected = _reference_check(Pc)
        assert _consistency_check(validate_cgl(Pc)) == expected, f"seed {seed}"
        broken += not expected[0]
    # most changes break consistency; a change that keeps it passes both sweeps
    assert broken >= 4


@pytest.mark.parametrize("spec", ["oq-matrices:2,3", "multiparam-matrices:3"])
def test_interval_permutations_pass_both_sweeps(spec):
    P = parse_preset_spec(spec)
    rng = random.Random(7)
    for _ in range(3):
        Pt = permute_presentation(P, sample_interval_permutation(P.N, rng))
        assert _reference_check(Pt) == (True, "")
        assert _consistency_check(validate_cgl(Pt)) == (True, "")


def test_exhausted_overlap_reports_the_full_sweep_exception():
    data = json.loads(parse_preset_spec("quantum-affine:3").to_json())
    data["Q"] = {"2,1": "x1^2", "3,1": "x2^5"}
    P = CGLPresentation.from_json_dict(data)
    P.fuel_factor = 0
    overlaps = [(a, b, c) for a in range(P.N) for b in range(a) for c in range(b)]
    assert _reference_consistency(P, overlaps).startswith("fuel exhausted")
    expected = _reference_check(P)
    assert not expected[0] and expected[1].startswith("fuel exhausted")
    assert _consistency_check(validate_cgl(P)) == expected
