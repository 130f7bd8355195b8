"""Nakayama automorphisms and core decompositions."""

import dataclasses
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from cglkit import structure
from cglkit.errors import InternalInconsistency, NotReversible
from cglkit.pbw import PBWPolynomial
from cglkit.presentation import (
    CGLPresentation,
    TorusData,
    validate_cgl,
    validate_symmetric,
)
from cglkit.presets import parse_preset_spec
from cglkit.primes import compute_y_elements, rank_of
from cglkit.reporting import ValidationReport
from cglkit.scalars import ParameterSpace, SignedMonomial
from cglkit.structure import (
    DiagonalMap,
    check_diagonal_automorphism,
    core_decomposition,
    diagonal_constraint_rank,
    nakayama_automorphism,
    verify_nakayama_by_normal_element,
)

# oq-matrices:3,3 as written by `preset emit`, with its Q keys in reverse
Q_REVERSED_OQ33 = (
    Path(__file__).resolve().parent / "data" / "frozen" / "inputs"
    / "preset_oq-matrices_3-3-Q-reversed.json"
)
SYMMETRIC_PRESETS = [
    "quantum-affine:2",
    "quantum-affine:3",
    "oq-matrices:2,2",
    "oq-matrices:2,3",
    "oq-matrices:3,2",
    "multiparam-matrices:2",
    "uq-sl3",
]


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("quantum-affine:2", ["q^-1", "q"]),
        ("oq-matrices:2,2", ["q^2", "1", "1", "q^-2"]),
        ("oq-matrices:2,3", ["q^3", "q", "q^-1", "q", "q^-1", "q^-3"]),
        ("multiparam-matrices:2", ["lam^-1", "lam^-2*p12^4", "lam^2*p12^-4", "lam"]),
        ("uq-sl3", ["1", "1", "1"]),
    ],
)
def test_nakayama_eigenvalues(spec, expected):
    P = parse_preset_spec(spec)
    nu = nakayama_automorphism(P)
    assert [str(v) for v in nu.eigenvalues] == expected


def test_sl3_nakayama_is_the_identity():
    nu = nakayama_automorphism(parse_preset_spec("uq-sl3"))
    assert nu.is_identity


def test_diagonal_map_operations():
    P = parse_preset_spec("oq-matrices:2,2")
    T = compute_y_elements(P)
    nu = nakayama_automorphism(P)
    q = P.scalar("q")
    assert nu.apply(P.x(0)) == P.x(0).scale(q * q)
    assert nu.apply(P.x(1)) == P.x(1)
    # the quantum determinant is fixed
    assert nu.apply(T.y[3]) == T.y[3]
    assert nu.compose(nu.inverse()).is_identity
    assert not nu.is_identity
    assert nu.to_json_dict() == {"eigenvalues": ["q^2", "1", "1", "q^-2"]}
    spec = nu.as_spec(P)
    assert spec.images[0] == P.x(0).scale(q * q)
    assert spec.images[3] == P.x(3).scale((q * q).inverse())


def test_check_diagonal_automorphism():
    P = parse_preset_spec("oq-matrices:2,2")
    sp = P.space
    one = SignedMonomial.one(sp)
    two = SignedMonomial(sp, Fraction(2), (0,))
    half = SignedMonomial(sp, Fraction(1, 2), (0,))
    assert check_diagonal_automorphism(P, nakayama_automorphism(P))
    # mu_1 mu_4 must match mu_2 mu_3 because of the determinant correction
    assert not check_diagonal_automorphism(P, DiagonalMap([two, one, one, one]))
    assert check_diagonal_automorphism(P, DiagonalMap([two, one, one, half]))


@pytest.mark.parametrize("spec", SYMMETRIC_PRESETS + ["quantum-plane-minus-one"])
def test_diagonal_torus_dimension_equals_rank(spec):
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    assert diagonal_constraint_rank(P) == rank_of(P, T)


@pytest.mark.parametrize(
    "spec",
    SYMMETRIC_PRESETS
    + [
        "quantum-affine:9",
        "oq-matrices:1,4",
        "oq-matrices:2,4",
        "oq-matrices:4,2",
        "oq-matrices:3,3",
        "multiparam-matrices:3",
    ],
)
def test_nakayama_verified_by_normal_element(spec):
    """Every symmetric preset up to N = 9, with the report of the full
    product as the reference."""
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    nu = nakayama_automorphism(P)
    report = verify_nakayama_by_normal_element(P, T, nu)
    assert report.passed, str(report)
    reference = full_product_nakayama_report(P, T, nu)
    assert str(report) == str(reference)
    assert report.to_dict() == reference.to_dict()


def full_product_nakayama_report(P, T, nu):
    """Reference verifier that builds u and checks every k on it."""
    report = ValidationReport(subject=f"Nakayama via normal element for {P.name or 'presentation'}")
    finals = T.finals()
    u = P.one()
    for l in finals:
        u = P.mul(u, T.y[l])
    bad = [
        k + 1
        for k in range(P.N)
        if P.mul(P.x(k), u) != P.mul(u, P.x(k)).scale(nu.eigenvalues[k].to_fraction())
    ]
    report.check("x_k u = u nu(x_k) for every generator", bad, "failing k")
    one = SignedMonomial.one(P.space)
    bad_beta = [
        k + 1
        for k in range(P.N)
        if prod((T.alpha[k][l] for l in finals), start=one) != nu.eigenvalues[k]
    ]
    report.check("beta_k = prod_j lambda_kj for every generator", bad_beta, "failing k")
    return report


PERTURBED_PRESETS = ["oq-matrices:2,3", "uq-sl3", "multiparam-matrices:3"]


@pytest.mark.parametrize("spec", PERTURBED_PRESETS)
def test_perturbed_nu_fails_as_on_the_full_product(spec):
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    eigenvalues = list(nakayama_automorphism(P).eigenvalues)
    eigenvalues[1] = eigenvalues[1] * P.lam[0][1]
    nu = DiagonalMap(eigenvalues)
    report = verify_nakayama_by_normal_element(P, T, nu)
    assert not report.passed
    assert [c.detail for c in report.checks] == ["failing k [2]", "failing k [2]"]
    reference = full_product_nakayama_report(P, T, nu)
    assert str(report) == str(reference)
    assert report.to_dict() == reference.to_dict()


@pytest.mark.parametrize("spec", PERTURBED_PRESETS)
def test_perturbed_alpha_is_decided_on_the_full_product(spec):
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    alpha = [list(row) for row in T.alpha]
    l = T.finals()[0]
    alpha[0][l] = alpha[0][l] * P.lam[0][1]
    T = dataclasses.replace(T, alpha=alpha)
    nu = nakayama_automorphism(P)
    report = verify_nakayama_by_normal_element(P, T, nu)
    assert [(c.passed, c.detail) for c in report.checks] == [(True, ""), (False, "failing k [1]")]
    reference = full_product_nakayama_report(P, T, nu)
    assert str(report) == str(reference)
    assert report.to_dict() == reference.to_dict()


def counted_products(monkeypatch, P):
    """Record every P.mul call from here on; returns the growing list."""
    calls = []
    mul = P.mul

    def counting_mul(p, r):
        calls.append(1)
        return mul(p, r)

    monkeypatch.setattr(P, "mul", counting_mul)
    return calls


def test_nakayama_certificate_never_builds_u_when_every_factor_holds(monkeypatch):
    """On oq-matrices:3,4 (finals y_4, y_8..y_12) the recursion's ledger
    holds every factor identity x_k y_l with k <= l: the check of a hit y_l
    on x_1..x_l, or the rewrite rule when l has no Q_lj.  It holds k > l too
    when k has some Q_kj, because the recursion made delta_k(y_l) = 0 with
    y_l a candidate at step k.  Left are the pairs k > l whose x_k has no Q,
    (5, 4), (9, 4) and (9, 8), at 2 products each: 6, against
    2 N r = 144 with every factor multiplied out, and u is never built."""
    P = parse_preset_spec("oq-matrices:3,4")
    T = compute_y_elements(P)
    nu = nakayama_automorphism(P)
    calls = counted_products(monkeypatch, P)
    assert verify_nakayama_by_normal_element(P, T, nu).passed
    finals = T.finals()
    no_q = [k for k in range(P.N) if not any((k, j) in P.Q for j in range(k))]
    pairs = [(k + 1, l + 1) for k in no_q for l in finals if l < k]
    assert pairs == [(5, 4), (9, 4), (9, 8)]
    assert len(calls) == 2 * len(pairs) == 6 < 2 * P.N * len(finals) == 144


def assert_fails_as_on_the_full_product(report, P, T, nu, details):
    assert not report.passed
    assert [c.detail for c in report.checks] == details
    reference = full_product_nakayama_report(P, T, nu)
    assert str(report) == str(reference)
    assert report.to_dict() == reference.to_dict()


@pytest.mark.parametrize("spec", PERTURBED_PRESETS)
def test_alpha_edited_in_place_is_not_read_from_the_ledger(spec):
    """alpha_{1,l} of the recursion's own table and nu_1 are both scaled by
    lambda_12, so beta_1 = nu_1 still holds; the ledger's fact for (1, l)
    carries the old scalar, so the factor is multiplied out, fails, and
    x_1 u is decided on u."""
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    l = T.finals()[0]
    T.alpha[0][l] = T.alpha[0][l] * P.lam[0][1]
    eigenvalues = list(nakayama_automorphism(P).eigenvalues)
    eigenvalues[0] = eigenvalues[0] * P.lam[0][1]
    nu = DiagonalMap(eigenvalues)
    report = verify_nakayama_by_normal_element(P, T, nu)
    assert_fails_as_on_the_full_product(report, P, T, nu, ["failing k [1]", ""])


@pytest.mark.parametrize("spec", PERTURBED_PRESETS)
def test_y_replaced_in_place_is_not_read_from_the_ledger(spec):
    """The last final y_l = y_j x_l - c_l of the recursion's own table is
    replaced by its uncorrected lead y_j x_l: the same character and alpha
    row, so every beta_k = nu_k, but not normal.  The ledger's facts name
    the old y_l object, so every factor with y_l is multiplied out."""
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    l = T.finals()[-1]
    T.y[l] = P.mul(T.y[T.eta_data.pred[l]], P.x(l))
    nu = nakayama_automorphism(P)
    detail = full_product_nakayama_report(P, T, nu).checks[0].detail
    assert detail.startswith("failing k [")
    report = verify_nakayama_by_normal_element(P, T, nu)
    assert_fails_as_on_the_full_product(report, P, T, nu, [detail, ""])


@pytest.mark.parametrize("spec", PERTURBED_PRESETS)
def test_table_of_a_second_presentation_gets_every_product(spec, monkeypatch):
    """A table the recursion built on another presentation object of the
    same preset is not P's own, so none of its ledger is read.  With nu_2
    perturbed as in test_perturbed_nu_fails_as_on_the_full_product, x_2 is
    decided on u and every other k on its r factors: 2 r (N - 1) factor
    products, r to build u and 2 for x_2 u."""
    P = parse_preset_spec(spec)
    T = compute_y_elements(parse_preset_spec(spec))
    eigenvalues = list(nakayama_automorphism(P).eigenvalues)
    eigenvalues[1] = eigenvalues[1] * P.lam[0][1]
    nu = DiagonalMap(eigenvalues)
    calls = counted_products(monkeypatch, P)
    report = verify_nakayama_by_normal_element(P, T, nu)
    r = len(T.finals())
    assert len(calls) == 2 * r * (P.N - 1) + r + 2
    monkeypatch.undo()
    assert_fails_as_on_the_full_product(
        report, P, T, nu, ["failing k [2]", "failing k [2]"]
    )


def test_set_q_drops_the_cached_table_and_its_ledger(monkeypatch):
    """``_set_Q`` empties the caches that depend on Q, the y-element table
    among them.  The certificate then reads none of the old table's ledger:
    on oq-matrices:3,4 every factor identity is multiplied out, 2 N r = 144
    products against 6 with the ledger (see
    test_nakayama_certificate_never_builds_u_when_every_factor_holds)."""
    P = parse_preset_spec("oq-matrices:3,4")
    T = compute_y_elements(P)
    nu = nakayama_automorphism(P)
    P._set_Q(P.Q)
    calls = counted_products(monkeypatch, P)
    assert verify_nakayama_by_normal_element(P, T, nu).passed
    assert len(calls) == 2 * P.N * len(T.finals()) == 144
    monkeypatch.undo()
    assert compute_y_elements(P) is not T


def test_certificate_rejects_inputs_of_the_wrong_length():
    P = parse_preset_spec("oq-matrices:2,2")
    T = compute_y_elements(P)
    nu = nakayama_automorphism(P)
    with pytest.raises(ValueError, match="^expected 4 eigenvalues, got 2$"):
        verify_nakayama_by_normal_element(P, T, DiagonalMap(nu.eigenvalues[:2]))
    short = dataclasses.replace(T, y=T.y[:3])
    with pytest.raises(ValueError, match="^expected 4 y-elements, got 3$"):
        verify_nakayama_by_normal_element(P, short, nu)


def test_normal_element_conjugation_beyond_generators():
    P = parse_preset_spec("oq-matrices:2,2")
    T = compute_y_elements(P)
    nu = nakayama_automorphism(P)
    u = P.one()
    for l in T.finals():
        u = P.mul(u, T.y[l])
    for a in [
        P.mul(P.mul(P.x(0), P.x(0)), P.x(2)),
        P.mul(P.x(1), P.x(3)) + P.x(0),
        T.y[3],
    ]:
        assert P.mul(a, u) == P.mul(u, nu.apply(a))


def test_not_reversible_when_q_touches_an_endpoint():
    sp = ParameterSpace(("q",))
    q = SignedMonomial.parameter(sp, "q")
    one = SignedMonomial.one(sp)
    torus = TorusData(
        rank=2,
        chi=[(1, 0), (1, 1)],
        h=[(q, one), (one, q)],
        pi=(1, 0),
    )
    P = CGLPresentation(
        sp,
        2,
        {(1, 0): q},
        {(1, 0): PBWPolynomial(sp, 2, {(1, 0): q.to_fraction()})},
        torus,
    )
    with pytest.raises(NotReversible):
        nakayama_automorphism(P)


def test_single_generator_core_and_nakayama():
    sp = ParameterSpace(("q",))
    q = SignedMonomial.parameter(sp, "q")
    torus = TorusData(rank=1, chi=[(1,)], h=[(q,)], h_star=[(q,)], pi=(1,))
    P = CGLPresentation(sp, 1, {}, {}, torus)
    nu = nakayama_automorphism(P)
    assert nu.is_identity
    D = core_decomposition(P, compute_y_elements(P))
    assert D.P_x == [0]
    assert D.F_x == [0]
    assert D.C_x == []
    assert D.core.N == 0


@pytest.mark.parametrize(
    "spec", ["oq-matrices:2,2", "oq-matrices:2,3", "oq-matrices:3,2", "uq-sl3"]
)
def test_core_equals_whole_algebra_when_no_generator_splits_off(spec):
    P = parse_preset_spec(spec)
    D = core_decomposition(P, compute_y_elements(P))
    assert D.F_x == []
    assert D.C_x == list(range(P.N))
    assert D.core == P
    assert D.frame_lambda == []
    assert D.smash_scalars == {}
    assert D.core_report.passed


def test_the_core_keeps_the_fuel_factor():
    P = parse_preset_spec("oq-matrices:2,3")
    P.fuel_factor = 3
    assert core_decomposition(P, compute_y_elements(P)).core.fuel_factor == 3


def test_quantum_affine_space_is_all_frame():
    P = parse_preset_spec("quantum-affine:3")
    D = core_decomposition(P, compute_y_elements(P))
    assert D.P_x == [0, 1, 2]
    assert D.F_x == [0, 1, 2]
    assert D.C_x == []
    assert D.core.N == 0
    assert D.frame_lambda == [list(row) for row in P.lam]
    assert D.core_report.passed


def central_extension_of_m22():
    """M22 shifted up one slot with a central generator x1 in front."""
    M = parse_preset_spec("oq-matrices:2,2")
    sp = M.space
    one = SignedMonomial.one(sp)
    q = SignedMonomial.parameter(sp, "q")
    lam = {}
    for a in range(1, 5):
        lam[(a, 0)] = one
        for b in range(1, a):
            lam[(a, b)] = M.lam[a - 1][b - 1]
    shifted = {
        (0,) + mono: coeff for mono, coeff in M.Q[(3, 0)].terms.items()
    }
    Q = {(4, 1): PBWPolynomial(sp, 5, shifted)}
    pad = (one,) * 4
    chi = [(1, 0, 0, 0, 0)] + [(0,) + tuple(M.torus.chi[g]) for g in range(4)]
    h = [(q,) + pad] + [(one,) + tuple(M.torus.h[g]) for g in range(4)]
    h_star = [(q,) + pad] + [(one,) + tuple(M.torus.h_star[g]) for g in range(4)]
    torus = TorusData(
        rank=5, chi=chi, h=h, h_star=h_star, pi=(1,) + tuple(M.torus.pi)
    )
    return M, CGLPresentation(sp, 5, lam, Q, torus)


def test_core_decomposition_with_a_proper_frame():
    M, P = central_extension_of_m22()
    assert validate_cgl(P).passed
    assert validate_symmetric(P).passed
    T = compute_y_elements(P)
    D = core_decomposition(P, T)
    assert D.P_x == [0, 2, 3]
    assert D.F_x == [0]
    assert D.C_x == [1, 2, 3, 4]
    core = D.core
    assert core.N == 4
    assert core.lam == M.lam
    assert list(core.Q) == [(3, 0)]
    assert core.Q[(3, 0)] == M.Q[(3, 0)]
    assert D.core_report.passed
    one = SignedMonomial.one(P.space)
    assert D.frame_lambda == [[one]]
    assert D.smash_scalars == {(0, k): one for k in [1, 2, 3, 4]}
    nu = nakayama_automorphism(P)
    assert [str(v) for v in nu.eigenvalues] == ["1", "q^2", "1", "1", "q^-2"]


@pytest.mark.parametrize("Q_order, pair", [("sorted", "6,2"), ("reversed", "8,4")])
def test_q_leaking_out_of_the_core_is_named_in_q_order(Q_order, pair, monkeypatch):
    """With P_x forced to {2, 4, 5} on oq-matrices:3,3, F_x = {5}, and both
    Q_62 = -(q - q^-1) x3 x5 and Q_84 = -(q - q^-1) x5 x7 have their
    endpoints in the core but reach x5; the first of them in the order of
    P.Q is named, also when the file lists the Q keys in reverse."""
    if Q_order == "sorted":
        P = parse_preset_spec("oq-matrices:3,3")
    else:
        P = CGLPresentation.from_json(Q_REVERSED_OQ33.read_text(encoding="utf-8"))
    T = compute_y_elements(P)
    monkeypatch.setattr(structure, "compute_P_x", lambda P, T: [1, 3, 4])
    message = f"^Q\\[{pair}\\] leaks outside the core generators$"
    with pytest.raises(InternalInconsistency, match=message):
        core_decomposition(P, T)


def test_nakayama_lies_in_the_diagonal_torus():
    for spec in SYMMETRIC_PRESETS:
        P = parse_preset_spec(spec)
        nu = nakayama_automorphism(P)
        assert check_diagonal_automorphism(P, nu)
