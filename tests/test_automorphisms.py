"""Endomorphism audits, graded factorization, and unipotent searches."""

import random

import pytest

from cglkit import pbw
from cglkit.automorphisms import (
    EndomorphismSpec,
    centralizer_eigenspace_dim,
    check_unipotent_structure,
    compose,
    degree_zero_component,
    is_unipotent,
    random_unipotent_search,
    verify_endomorphism,
)
from cglkit.errors import (
    MultiParameterUnsupported,
    NotFiltered,
    SingularDegreeZeroPart,
)
from cglkit.pbw import PBWPolynomial, apply_endomorphism
from cglkit.presentation import CGLPresentation, TorusData
from cglkit.presets import parse_preset_spec
from cglkit.primes import compute_y_elements, monomials_of_degree
from cglkit.scalars import LaurentFraction, SignedMonomial
from cglkit.structure import DiagonalMap, core_decomposition, nakayama_automorphism

XI_VALUES = ["1", "-1", "q", "q^-1", "2 - q"]


def shear(P, xi):
    """x2 -> x2 + xi x1 x3 on quantum affine 3-space with equal scalars."""
    a = P.mul(P.x(0), P.x(2)).scale(P.scalar(xi))
    return EndomorphismSpec([P.x(0), P.x(1) + a, P.x(2)])


@pytest.mark.parametrize("xi", XI_VALUES)
def test_shear_family_passes_all_three_gates(xi):
    P = parse_preset_spec("quantum-affine:3")
    T = compute_y_elements(P)
    D = core_decomposition(P, T)
    e = shear(P, xi)
    assert verify_endomorphism(P, e).passed
    assert is_unipotent(P, e)
    report = check_unipotent_structure(P, T, D, e)
    assert report.passed, str(report)
    # the correction mixes characters, which is flagged but not fatal
    assert report.warnings


def test_shear_family_is_a_one_parameter_group():
    P = parse_preset_spec("quantum-affine:3")
    assert compose(P, shear(P, "q"), shear(P, "1 - q")) == shear(P, "1")
    assert compose(P, shear(P, "q"), shear(P, "-q")) == EndomorphismSpec.identity(P)


def test_adding_a_lower_generator_breaks_the_relations():
    P = parse_preset_spec("quantum-affine:2")
    e = EndomorphismSpec([P.x(0), P.x(1) + P.x(0)])
    report = verify_endomorphism(P, e)
    assert not report.passed
    assert "(2, 1)" in report.failures()[0].detail


def test_scaling_is_not_unipotent():
    P = parse_preset_spec("quantum-affine:2")
    e = EndomorphismSpec([P.x(0).scale(P.scalar("2")), P.x(1)])
    assert verify_endomorphism(P, e).passed
    assert not is_unipotent(P, e)
    assert is_unipotent(P, EndomorphismSpec.identity(P))


def test_structure_audit_rejects_motion_on_the_core():
    P = parse_preset_spec("oq-matrices:2,2")
    T = compute_y_elements(P)
    D = core_decomposition(P, T)
    e = EndomorphismSpec(
        [P.x(0), P.x(1), P.x(2), P.x(3) + P.mul(P.x(1), P.x(2))]
    )
    report = check_unipotent_structure(P, T, D, e)
    assert not report.passed
    assert report.failures()[0].name == "identity on the core generators"


def test_structure_audit_rejects_non_normal_corrections():
    P = parse_preset_spec("quantum-affine:3")
    T = compute_y_elements(P)
    D = core_decomposition(P, T)
    # x3^2 commutes with x1 by q^2, not by the q that x2 uses
    e = EndomorphismSpec([P.x(0), P.x(1) + P.mul(P.x(2), P.x(2)), P.x(2)])
    report = check_unipotent_structure(P, T, D, e)
    assert not report.passed
    names = [c.name for c in report.failures()]
    assert "correction of x_2 is normal with the scalars of x_2" in names


def test_structure_audit_rejects_a_wrong_number_of_images():
    P = parse_preset_spec("oq-matrices:2,2")
    T = compute_y_elements(P)
    D = core_decomposition(P, T)
    with pytest.raises(ValueError, match="^expected 4 images, got 1$"):
        check_unipotent_structure(P, T, D, EndomorphismSpec([P.x(0)]))


def minus_one_plane_with_h_star():
    from cglkit.scalars import ParameterSpace

    sp = ParameterSpace(("q",))
    q = SignedMonomial.parameter(sp, "q")
    one = SignedMonomial.one(sp)
    neg = SignedMonomial.minus_one(sp)
    torus = TorusData(
        rank=2,
        chi=[(1, 0), (0, 1)],
        h=[(q, one), (neg, q)],
        h_star=[(q, neg), (one, q)],
        pi=(1, 1),
    )
    return CGLPresentation(sp, 2, {(1, 0): neg}, {}, torus)


def test_unsaturated_commutation_group_downgrades_the_audit():
    P = minus_one_plane_with_h_star()
    T = compute_y_elements(P)
    D = core_decomposition(P, T)
    report = check_unipotent_structure(P, T, D, EndomorphismSpec.identity(P))
    assert report.passed
    assert any("not saturated" in w for w in report.warnings)


# -- relation checks against the full loop -----------------------------------


def _full_relation_failures(P, images):
    """Every failing (k, j), 1-based, with every relation multiplied out."""
    bad = []
    for k in range(P.N):
        for j in range(k):
            lhs = P.mul(images[k], images[j])
            rhs = P.mul(images[j], images[k]).scale(P.lam_fraction(k, j))
            q_poly = P.Q.get((k, j))
            if q_poly is not None:
                rhs = rhs + apply_endomorphism(images, q_poly, P)
            if lhs != rhs:
                bad.append((k + 1, j + 1))
    return bad


def _failing_pairs(report):
    (check,) = report.checks
    assert check.passed == (check.detail == "")
    return check.detail


def _perturbations(P, rng, count):
    """Specs that add a random monomial of degree 0..3 to one or two generators."""
    q = LaurentFraction.parameter(P.space, P.space.names[0])
    coeffs = [LaurentFraction.one(P.space), q, q.inverse(), -LaurentFraction.one(P.space)]
    pool = [m for d in range(4) for m in monomials_of_degree(P, d)]
    for _ in range(count):
        images = [P.x(t) for t in range(P.N)]
        for i in rng.sample(range(P.N), rng.choice([1, 2])):
            mono = rng.choice(pool)
            images[i] = images[i] + PBWPolynomial(P.space, P.N, {mono: rng.choice(coeffs)})
        yield EndomorphismSpec(images)


@pytest.mark.parametrize(
    "spec",
    [
        "oq-matrices:2,2",
        "oq-matrices:2,3",
        "multiparam-matrices:2",
        "multiparam-matrices:3",
        "uq-sl3",
        "quantum-affine:3",
    ],
)
def test_verify_lists_exactly_the_pairs_of_the_full_loop(spec):
    """The skipped relations are the ones the rewrite rules prove, and every
    failing pair is still listed, in the same order."""
    P = parse_preset_spec(spec)
    specs = list(_perturbations(P, random.Random(f"perturb:{spec}"), 25))
    specs.append(EndomorphismSpec([P.parse(f"x{i + 1}") for i in range(P.N)]))
    if spec == "quantum-affine:3":
        specs += [shear(P, xi) for xi in XI_VALUES]
    seen = {"pass": 0, "several": 0, "through_q": 0}
    for e in specs:
        expected = _full_relation_failures(P, e.images)
        assert _failing_pairs(verify_endomorphism(P, e)) == (
            f"failing pairs {expected}" if expected else ""
        ), [P.format(img) for img in e.images]
        moved = {i + 1 for i, img in enumerate(e.images) if img != P.x(i)}
        seen["pass"] += not expected
        seen["several"] += len(expected) > 1
        seen["through_q"] += any(not moved & {k, j} for k, j in expected)
    assert seen["pass"] and seen["several"]
    if P.Q:
        assert seen["through_q"]


def _full_check_search(P, samples, seed, max_degree):
    """The sampler of random_unipotent_search, with the full relation loop."""
    rng = random.Random(seed)
    degs = P.generator_degrees()
    pool = {d: monomials_of_degree(P, d) for d in range(1, max_degree + 1)}
    q = LaurentFraction.parameter(P.space, P.space.names[0])
    coeffs = [LaurentFraction.one(P.space), q, q.inverse()]
    hits = []
    tested = 0
    for _ in range(samples):
        i = rng.randrange(P.N)
        choices = [m for d in range(degs[i] + 1, max_degree + 1) for m in pool[d]]
        if not choices:
            continue
        mono = rng.choice(choices)
        coeff = coeffs[rng.randrange(len(coeffs))]
        images = [P.x(t) for t in range(P.N)]
        images[i] = images[i] + PBWPolynomial(P.space, P.N, {mono: coeff})
        e = EndomorphismSpec(images)
        tested += 1
        if not _full_relation_failures(P, images) and is_unipotent(P, e):
            hits.append(e)
    return hits, tested


@pytest.mark.parametrize(
    "spec, samples, seed, max_degree, has_hits",
    [("quantum-affine:3", 200, 11, 2, True), ("oq-matrices:2,2", 60, 7, 3, False)],
)
def test_search_matches_the_full_check(spec, samples, seed, max_degree, has_hits):
    P = parse_preset_spec(spec)
    hits, tested = random_unipotent_search(P, samples, seed, max_degree)
    assert (hits, tested) == _full_check_search(P, samples, seed, max_degree)
    assert bool(hits) == has_hits


@pytest.fixture
def products(monkeypatch):
    """Count pbw.multiply calls, through P.mul and apply_endomorphism alike."""
    calls = []
    multiply = pbw.multiply

    def counting_multiply(p, r, P, strategy="leftmost"):
        calls.append((p, r))
        return multiply(p, r, P, strategy)

    monkeypatch.setattr(pbw, "multiply", counting_multiply)
    return calls


def test_identity_makes_no_products(products):
    for spec in ["oq-matrices:2,3", "uq-sl3", "multiparam-matrices:2"]:
        P = parse_preset_spec(spec)
        copies = EndomorphismSpec([P.x(i) + 0 for i in range(P.N)])
        for e in [EndomorphismSpec.identity(P), copies]:
            assert verify_endomorphism(P, e).passed
    assert products == []


def test_shear_multiplies_out_only_the_relations_of_x2(products):
    P = parse_preset_spec("quantum-affine:3")
    e = shear(P, "1")
    products.clear()
    assert verify_endomorphism(P, e).passed
    # x2 x1 and x3 x2, each as lhs and rhs; x3 x1 is proved by its rule
    assert len(products) == 4
    assert all(e.images[1] in (p, r) for p, r in products)


def test_wrong_number_of_images_is_a_value_error(products):
    P = parse_preset_spec("oq-matrices:2,2")
    with pytest.raises(ValueError, match="expected 4 images, got 1"):
        verify_endomorphism(P, EndomorphismSpec([P.x(0)]))
    assert products == []


# -- graded factorization ----------------------------------------------------


def test_identity_splits_trivially():
    P = parse_preset_spec("oq-matrices:2,2")
    e = EndomorphismSpec.identity(P)
    psi0, uni, report = degree_zero_component(P, e)
    assert psi0 == e
    assert uni == e
    assert report.passed
    assert report.checks[-1].name == (
        "automorphism certified: graded bijection composed with a unipotent map"
    )


def test_diagonal_times_shear_splits_exactly():
    P = parse_preset_spec("quantum-affine:3")
    d = DiagonalMap(
        [
            SignedMonomial(P.space, 2, (0,)),
            SignedMonomial(P.space, 3, (0,)),
            SignedMonomial.parameter(P.space, "q"),
        ]
    ).as_spec(P)
    e = compose(P, d, shear(P, "1"))
    psi0, uni, report = degree_zero_component(P, e)
    assert psi0 == d
    assert compose(P, psi0, uni) == e
    assert report.passed
    # conjugating the shear through the diagonal part recovers it exactly
    assert uni == shear(P, "1")


def test_relation_breaking_graded_part_is_reported_not_raised():
    P = parse_preset_spec("quantum-affine:2")
    e = EndomorphismSpec([P.x(1), P.x(0)])
    psi0, uni, report = degree_zero_component(P, e)
    assert psi0 == e
    assert uni == EndomorphismSpec.identity(P)
    assert not report.passed
    assert any("not certified" in w for w in report.warnings)


def test_collapsing_graded_part_is_singular():
    P = parse_preset_spec("quantum-affine:2")
    e = EndomorphismSpec([P.x(1), P.x(1)])
    with pytest.raises(SingularDegreeZeroPart):
        degree_zero_component(P, e)


def test_image_below_the_filtration_is_rejected():
    P = parse_preset_spec("uq-sl3")
    e = EndomorphismSpec([P.x(0), P.x(0), P.x(2)])
    with pytest.raises(NotFiltered):
        degree_zero_component(P, e)


# -- centralizer eigenspaces -------------------------------------------------


def test_centralizer_dimensions_on_quantum_matrices():
    P = parse_preset_spec("oq-matrices:2,2")
    assert centralizer_eigenspace_dim(P, P.x(1), 1) == 1
    assert centralizer_eigenspace_dim(P, P.x(2), 1) == 1
    assert centralizer_eigenspace_dim(P, P.x(1), -1) == 1
    assert centralizer_eigenspace_dim(P, P.x(1), 0) == 2


def test_centralizer_within_a_row():
    P = parse_preset_spec("oq-matrices:2,2")
    row1 = [P.x(0), P.x(1)]
    assert centralizer_eigenspace_dim(P, P.x(0), 1, within=row1) == 1
    assert centralizer_eigenspace_dim(P, P.x(0), -1, within=row1) == 0
    assert centralizer_eigenspace_dim(P, P.x(1), 1, within=row1) == 0
    assert centralizer_eigenspace_dim(P, P.x(1), -1, within=row1) == 1


def test_centralizer_on_the_affine_plane():
    P = parse_preset_spec("quantum-affine:2")
    assert centralizer_eigenspace_dim(P, P.x(0), 0) == 1


def test_centralizer_requires_a_single_parameter():
    P = parse_preset_spec("multiparam-matrices:2")
    with pytest.raises(MultiParameterUnsupported):
        centralizer_eigenspace_dim(P, P.x(0), 1)


# -- randomized search -------------------------------------------------------


def test_random_search_finds_nothing_on_quantum_matrices():
    P = parse_preset_spec("oq-matrices:2,2")
    hits, tested = random_unipotent_search(P, samples=50, seed=7, max_degree=3)
    assert hits == []
    assert tested == 50


def test_random_search_finds_the_shear_on_affine_space():
    # sanity check that the search recognizes genuine unipotent maps: on
    # quantum affine 3-space the shear x2 -> x2 + x1 x3 is one of the
    # monomial perturbations the sampler can draw
    P = parse_preset_spec("quantum-affine:3")
    hits, tested = random_unipotent_search(P, samples=200, seed=11, max_degree=2)
    assert tested == 200
    assert hits
    target = shear(P, "1")
    assert any(e == target for e in hits)


# -- serialization -----------------------------------------------------------


def test_endomorphism_spec_roundtrip():
    P = parse_preset_spec("quantum-affine:3")
    e = shear(P, "q")
    data = e.to_json_dict(P)
    assert data["images"][1] == "x2 + q*x1*x3"
    assert EndomorphismSpec.from_json_dict(data, P) == e
    with pytest.raises(ValueError):
        EndomorphismSpec.from_json_dict({"images": ["x1", "x2"]}, P)


def test_nakayama_spec_passes_the_audit():
    P = parse_preset_spec("oq-matrices:2,3")
    spec = nakayama_automorphism(P).as_spec(P)
    assert verify_endomorphism(P, spec).passed
    assert not is_unipotent(P, spec)
