"""Presentation data model: validators, JSON schema, permutations, reversal."""

import json
import random

import pytest

from cglkit.errors import (
    MalformedPresentation,
    MissingHStar,
    NotInXi,
    NotReversible,
)
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
from cglkit.presets import parse_preset_spec
from cglkit.scalars import ParameterSpace, SignedMonomial

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
    q = SignedMonomial.parameter(sp, "q")
    one = SignedMonomial.one(sp)
    torus = TorusData(
        rank=2,
        chi=[(1, 0), (0, 1)],
        h=[(q.to_fraction(), one.to_fraction())] * 2,
    )
    with pytest.raises(MalformedPresentation):
        CGLPresentation.build(
            sp,
            2,
            {(1, 0): q},
            {(1, 0): PBWPolynomial(sp, 2, {(0, 1): q.to_fraction()})},
            torus,
        )


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
    neg_q = SignedMonomial(sp, -1, (1,))
    one = SignedMonomial.one(sp)
    q = SignedMonomial.parameter(sp, "q")
    torus = TorusData(
        rank=2,
        chi=[(1, 0), (0, 1)],
        h=[(q.to_fraction(), one.to_fraction()), (neg_q.to_fraction(), q.to_fraction())],
        pi=(1, 1),
    )
    P = CGLPresentation.build(sp, 2, {(1, 0): neg_q}, {}, torus)
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


def test_reversal_requires_support_between_endpoints():
    # Q_21 = x1 touches an endpoint, so the reversed order is not an
    # iterated Ore extension presentation
    sp = ParameterSpace(("q",))
    q = SignedMonomial.parameter(sp, "q")
    one = SignedMonomial.one(sp)
    torus = TorusData(
        rank=2,
        chi=[(1, 0), (1, 1)],
        h=[(q.to_fraction(), one.to_fraction()), (one.to_fraction(), q.to_fraction())],
        h_star=[(q.to_fraction(), one.to_fraction()), (q.to_fraction(), q.to_fraction())],
        pi=(1, 0),
    )
    P = CGLPresentation.build(
        sp, 2, {(1, 0): q}, {(1, 0): PBWPolynomial(sp, 2, {(1, 0): q.to_fraction()})}, torus
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
