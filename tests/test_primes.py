"""Prime elements, bicharacter lattices, and the probes behind them."""

import itertools
import random
from math import prod

import pytest

from cglkit import pbw, primes
from cglkit.errors import AmbiguousPredecessor, NoGradingDefined, NoPredecessorSolution
from cglkit.linalg import solve_in_span
from cglkit.pbw import PBWPolynomial
from cglkit.lattice import lattices_equal
from cglkit.presentation import (
    CGLPresentation,
    TorusData,
    permute_presentation,
    sample_interval_permutation,
)
from cglkit.presets import parse_preset_spec
from cglkit.primes import (
    bicharacter_radical,
    compute_P_x,
    compute_y_elements,
    is_saturated,
    monomials_of_degree,
    monomials_with_character,
    rank_of,
    saturation_closure,
    torus_center_basis,
    verify_quantum_affine,
)
from cglkit.scalars import LaurentFraction, ParameterSpace, _power_product

SYMMETRIC_PRESETS = [
    "quantum-affine:2",
    "quantum-affine:3",
    "oq-matrices:2,2",
    "oq-matrices:2,3",
    "oq-matrices:3,2",
    "multiparam-matrices:2",
    "uq-sl3",
]
ALL_PRESETS = SYMMETRIC_PRESETS + ["quantum-plane-minus-one"]


# -- quantum minor oracle ----------------------------------------------------
#
# The t x t quantum minor on row set R and column set C of O_q(M_{t,n}) is
# the signed permutation sum over bijections R -> C with weight (-q)^inv.
# Generators sit row-major, so each summand is already an ordered monomial
# and no engine multiplication is involved.


def inversions(seq):
    return sum(
        1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b]
    )


def quantum_minor(P, n, rows, cols):
    q = P.scalar("q")
    terms = {}
    for perm in itertools.permutations(range(len(cols))):
        exps = [0] * P.N
        for a, r in enumerate(rows):
            exps[(r - 1) * n + cols[perm[a]] - 1] = 1
        terms[tuple(exps)] = (-q) ** inversions(perm)
    return PBWPolynomial(P.space, P.N, terms)


# the ceiling sizes run only with `pytest -m ceiling` (several seconds each)
@pytest.mark.parametrize(
    "t,n",
    [
        (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (4, 5), (5, 5),
        pytest.param(6, 6, marks=pytest.mark.ceiling),
    ],
)
def test_every_y_is_a_contiguous_quantum_minor(t, n):
    P = parse_preset_spec(f"oq-matrices:{t},{n}")
    T = compute_y_elements(P)
    for k in range(P.N):
        i, j = divmod(k, n)
        i, j = i + 1, j + 1
        r = min(i, j) - 1
        rows = list(range(i - r, i + 1))
        cols = list(range(j - r, j + 1))
        assert T.y[k] == quantum_minor(P, n, rows, cols)


# The y_k of multiparam-matrices:n is the contiguous minor on the same rows R
# and columns C: each bijection sigma contributes sign(sigma) times, for each
# inversion a < b with sigma(a) > sigma(b), p_{C[sigma b], C[sigma a]}^-1.


def multiparam_minor(P, n, rows, cols):
    terms = {}
    for perm in itertools.permutations(range(len(cols))):
        exps = [0] * P.N
        for a, r in enumerate(rows):
            exps[(r - 1) * n + cols[perm[a]] - 1] = 1
        weight = P.scalar("1")
        for a, b in itertools.combinations(range(len(perm)), 2):
            if perm[a] > perm[b]:
                weight = -weight / P.scalar(f"p{cols[perm[b]]}{cols[perm[a]]}")
        terms[tuple(exps)] = weight
    return PBWPolynomial(P.space, P.N, terms)


@pytest.mark.parametrize("n", [3, 4, 5, pytest.param(6, marks=pytest.mark.ceiling)])
def test_every_mp_y_is_a_contiguous_minor(n):
    P = parse_preset_spec(f"multiparam-matrices:{n}")
    T = compute_y_elements(P)
    for k in range(P.N):
        i, j = divmod(k, n)
        i, j = i + 1, j + 1
        r = min(i, j) - 1
        rows = list(range(i - r, i + 1))
        cols = list(range(j - r, j + 1))
        assert T.y[k] == multiparam_minor(P, n, rows, cols), k


def test_m22_table_exact():
    P = parse_preset_spec("oq-matrices:2,2")
    T = compute_y_elements(P)
    ed = T.eta_data
    assert ed.pred == [None, None, None, 0]
    assert ed.succ == [3, None, None, None]
    assert ed.eta == [0, 1, 2, 0]
    assert ed.ominus == [0, 0, 0, 1]
    assert ed.oplus == [1, 0, 0, 0]
    assert T.finals() == [1, 2, 3]
    assert P.format(T.y[3]) == "x1*x4 - q*x2*x3"
    assert list(T.c) == [3]
    assert P.format(T.c[3]) == "q*x2*x3"
    assert compute_P_x(P, T) == [1, 2]


@pytest.mark.parametrize(
    "spec,finals",
    [
        ("oq-matrices:2,3", [3, 4, 5, 6]),
        ("oq-matrices:3,2", [2, 4, 5, 6]),
        ("oq-matrices:3,3", [3, 6, 7, 8, 9]),
    ],
)
def test_oq_finals(spec, finals):
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    assert [k + 1 for k in T.finals()] == finals


@pytest.mark.parametrize(
    "spec,rank",
    [
        ("quantum-affine:2", 2),
        ("quantum-affine:3", 3),
        ("oq-matrices:2,2", 3),
        ("oq-matrices:2,3", 4),
        ("oq-matrices:3,2", 4),
        ("oq-matrices:3,3", 5),
        ("multiparam-matrices:2", 3),
        ("uq-sl3", 2),
        ("quantum-plane-minus-one", 2),
    ],
)
def test_rank(spec, rank):
    P = parse_preset_spec(spec)
    assert rank_of(P, compute_y_elements(P)) == rank


def test_sl3_table():
    P = parse_preset_spec("uq-sl3")
    T = compute_y_elements(P)
    q = P.scalar("q")
    c = P.x(1).scale((q * q) / (q * q - P.scalar("1")))
    assert T.c[2] == c
    assert T.y[2] == P.mul(P.x(0), P.x(2)) - c
    assert T.finals() == [1, 2]
    assert compute_P_x(P, T) == [1]
    assert rank_of(P, T) == 2


def test_quantum_affine_case_is_trivial():
    P = parse_preset_spec("quantum-affine:3")
    T = compute_y_elements(P)
    assert all(y == P.x(k) for k, y in enumerate(T.y))
    assert T.eta_data.pred == [None, None, None]
    assert compute_P_x(P, T) == [0, 1, 2]
    assert T.qmat == P.lam


@pytest.mark.parametrize("spec", SYMMETRIC_PRESETS)
def test_y_elements_generate_a_quantum_affine_space(spec):
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    report = verify_quantum_affine(P, T)
    assert report.passed, str(report)


def test_m22_determinant_row_of_qmat_is_trivial():
    P = parse_preset_spec("oq-matrices:2,2")
    T = compute_y_elements(P)
    assert all(v.is_one for v in T.qmat[3])
    assert all(T.qmat[j][3].is_one for j in range(4))


@pytest.mark.parametrize("spec", ["oq-matrices:2,2", "uq-sl3", "multiparam-matrices:2"])
def test_alpha_commutation_scalars(spec):
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    for k in T.finals():
        for j in range(P.N):
            lhs = P.mul(P.x(j), T.y[k])
            rhs = P.mul(T.y[k], P.x(j)).scale(T.alpha[j][k])
            assert lhs == rhs


# -- bicharacter lattices ----------------------------------------------------


def _chain(T, k):
    out = [k]
    while T.eta_data.pred[out[-1]] is not None:
        out.append(T.eta_data.pred[out[-1]])
    return out


@pytest.mark.parametrize(
    "spec, tau",
    [
        ("oq-matrices:3,4", None),
        ("multiparam-matrices:4", None),
        ("uq-sl3", None),
        ("oq-matrices:3,3", [3, 4, 2, 5, 1, 6, 0, 7, 8]),
    ],
    ids=["oq-matrices:3,4", "multiparam-matrices:4", "uq-sl3", "oq33-permuted"],
)
def test_alpha_and_qmat_are_the_chain_products(spec, tau):
    """alpha[j][k] is the product of lambda_{j c} over the chain of k, and
    qmat[k][j] that of lambda_{u v} over the chains of k and j, entry by
    entry as the recursion's definition states them."""
    P = parse_preset_spec(spec)
    if tau is not None:
        P = permute_presentation(P, tau)
    T = compute_y_elements(P)
    one = LaurentFraction.one(P.space)
    chains = [_chain(T, k) for k in range(P.N)]
    assert any(len(chain) > 1 for chain in chains)
    for j in range(P.N):
        for k in range(P.N):
            assert T.alpha[j][k] == prod((P.lam[j][c] for c in chains[k]), start=one)
            assert T.qmat[k][j] == prod(
                (P.lam[u][v] for u in chains[k] for v in chains[j]), start=one
            )


def brute_radical(M, box=2):
    """All vectors e in [-box, box]^N with prod_k M[k][j]^e_k = 1 for all j."""
    N = len(M)
    out = []
    for e in itertools.product(range(-box, box + 1), repeat=N):
        ok = True
        for j in range(N):
            value = LaurentFraction.one(M[0][0].space)
            for k in range(N):
                value = value * M[k][j] ** e[k]
            if not value.is_one:
                ok = False
                break
        if ok:
            out.append(e)
    return out


def test_minus_one_plane_radical_and_saturation():
    P = parse_preset_spec("quantum-plane-minus-one")
    rad = bicharacter_radical(P.lam)
    assert rad.basis == [[2, 0], [0, 2]]
    for e in itertools.product(range(-2, 3), repeat=2):
        assert rad.contains(e) == (e[0] % 2 == 0 and e[1] % 2 == 0)
    assert set(map(tuple, (r for r in rad.basis))) <= set(brute_radical(P.lam))
    sat = saturation_closure(P.lam)
    assert sat.basis == [[1, 0], [0, 1]]
    assert not is_saturated(P.lam)


@pytest.mark.parametrize("spec", ["oq-matrices:2,2", "uq-sl3", "multiparam-matrices:2"])
def test_radical_matches_brute_force(spec):
    P = parse_preset_spec(spec)
    rad = bicharacter_radical(P.lam)
    hits = brute_radical(P.lam)
    for e in itertools.product(range(-2, 3), repeat=P.N):
        assert rad.contains(e) == (e in hits)


def test_m22_radical_rank():
    P = parse_preset_spec("oq-matrices:2,2")
    rad = bicharacter_radical(P.lam)
    assert rad.rank == 2
    assert rad.contains((1, 0, 0, 1))
    assert rad.contains((0, 1, -1, 0))
    assert not rad.contains((1, 0, 0, 0))
    assert is_saturated(P.lam)


@pytest.mark.parametrize("spec", ALL_PRESETS)
def test_lambda_and_qmat_saturation_verdicts_agree(spec):
    """The two verdicts agree, and each Smith verdict on a radical agrees with
    comparing the radical to its saturation, the kernel of the exponent rows,
    which contains it with equal rank: on lambda, on qmat, and on lambda after
    interval permutations."""
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    assert is_saturated(P.lam) == is_saturated(T.qmat)
    matrices = [P.lam, T.qmat]
    if spec in SYMMETRIC_PRESETS:
        rng = random.Random(31)
        for _ in range(3):
            tau = sample_interval_permutation(P.N, rng)
            matrices.append(permute_presentation(P, tau).lam)
    for M in matrices:
        rad = bicharacter_radical(M)
        sat = saturation_closure(M)
        assert rad.rank == sat.rank
        assert all(sat.contains(v) for v in rad.basis)
        assert is_saturated(M) == lattices_equal(rad.basis, sat.basis)


def test_full_radical_for_trivial_bicharacter():
    sp = ParameterSpace(("q",))
    one = LaurentFraction.one(sp)
    M = [[one, one], [one, one]]
    rad = bicharacter_radical(M)
    assert rad.basis == [[1, 0], [0, 1]]
    assert is_saturated(M)


def test_torus_center_of_quantum_matrices():
    P = parse_preset_spec("oq-matrices:2,2")
    T = compute_y_elements(P)
    center = torus_center_basis(P, T)
    assert center.lattice.basis == [[0, 1, -1, 0], [0, 0, 0, 1]]
    assert center.nonnegative == [False, True]


def test_torus_center_of_quantum_affine_plane_is_trivial():
    P = parse_preset_spec("quantum-affine:2")
    T = compute_y_elements(P)
    center = torus_center_basis(P, T)
    assert center.lattice.rank == 0
    assert center.nonnegative == []


# -- probes ------------------------------------------------------------------
#
# Desk-scale probes backing the primeness claims: a search for a
# factorization of a final y_k, and the factorization of a product of final
# y's by repeated division.  No command needs them.


def _chi_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _divide_in_span(P, left, target, basis):
    """Solve left * b = target with b in the span of the basis monomials."""
    if not basis:
        return None
    columns = [P.mul(left, PBWPolynomial(P.space, P.N, {m: 1})).terms for m in basis]
    solved = solve_in_span(columns, target.terms, P.space)
    if solved is None:
        return None
    terms = {m: c for m, c in zip(basis, solved[0]) if not c.is_zero}
    return PBWPolynomial(P.space, P.N, terms)


def irreducibility_probe(P, T, k):
    """Search for y_k = a * b with homogeneous non-unit factors of lower degree.

    For each split of the pi-degree and each character of the left factor,
    the bilinear equation is linearized whenever one side's homogeneous
    component is 1-dimensional.  Returns (irreducible, complete): complete is
    False when some component pair was too fat to linearize.
    """
    y = T.y[k]
    chi_y = T.characters[k]
    d = pbw.min_degree(y, P)
    complete = True
    for d1 in range(1, d):
        by_char = {}
        for mono in monomials_of_degree(P, d1):
            chi = tuple(
                sum(e * c[a] for e, c in zip(mono, P.torus.chi))
                for a in range(P.torus.rank)
            )
            by_char.setdefault(chi, []).append(mono)
        for chi_a, B1 in by_char.items():
            B2 = monomials_with_character(P, _chi_sub(chi_y, chi_a))
            if not B2:
                continue
            if len(B1) == 1:
                left = PBWPolynomial(P.space, P.N, {B1[0]: 1})
                if _divide_in_span(P, left, y, B2) is not None:
                    return False, complete
            elif len(B2) == 1:
                right = PBWPolynomial(P.space, P.N, {B2[0]: 1})
                columns = [
                    P.mul(PBWPolynomial(P.space, P.N, {m: 1}), right).terms for m in B1
                ]
                if solve_in_span(columns, y.terms, P.space) is not None:
                    return False, complete
            else:
                complete = False
    return True, complete


def greedy_prime_factorization(P, T, w):
    """Recover the multiset of final-prime factors of w by repeated division.

    w should be a scalar times a product of the final y's; returns
    (scalar, {k: multiplicity}) or None when division gets stuck before
    reaching a constant.
    """
    finals = T.finals()
    counts = {k: 0 for k in finals}
    rem = w
    progress = True
    while progress and rem.as_constant() is None:
        progress = False
        chi_rem = pbw.homogeneous_character(rem, P)
        if chi_rem is None:
            return None
        for k in finals:
            chi_b = _chi_sub(chi_rem, T.characters[k])
            basis = monomials_with_character(P, chi_b)
            quotient = _divide_in_span(P, T.y[k], rem, basis)
            if quotient is not None:
                counts[k] += 1
                rem = quotient
                progress = True
                break
    scalar = rem.as_constant()
    if scalar is None:
        return None
    return scalar, counts


@pytest.mark.parametrize("spec", ["oq-matrices:2,2", "uq-sl3"])
def test_final_y_elements_are_irreducible(spec):
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    for k in T.finals():
        irreducible, complete = irreducibility_probe(P, T, k)
        assert irreducible
        assert complete


def test_greedy_factorization_recovers_products():
    P = parse_preset_spec("oq-matrices:2,2")
    T = compute_y_elements(P)
    rng = random.Random(2718)
    for _ in range(5):
        counts = {k: rng.randrange(0, 3) for k in T.finals()}
        if not any(counts.values()):
            counts[3] = 1
        scalar = P.scalar("3/2*q")
        w = PBWPolynomial.constant(P.space, P.N, scalar)
        for k in sorted(counts):
            for _ in range(counts[k]):
                w = P.mul(w, T.y[k])
        result = greedy_prime_factorization(P, T, w)
        assert result is not None
        found_scalar, found_counts = result
        assert found_counts == counts
        rebuilt = PBWPolynomial.constant(P.space, P.N, found_scalar)
        for k in sorted(found_counts):
            for _ in range(found_counts[k]):
                rebuilt = P.mul(rebuilt, T.y[k])
        assert rebuilt == w


def test_greedy_factorization_rejects_non_products():
    P = parse_preset_spec("oq-matrices:2,2")
    T = compute_y_elements(P)
    assert greedy_prime_factorization(P, T, P.x(0)) is None
    assert greedy_prime_factorization(P, T, P.x(0) + P.x(1)) is None


# -- failure modes of the recursion ------------------------------------------


def _two_generator_presentation(pi):
    sp = ParameterSpace(("q",))
    q = LaurentFraction.parameter(sp, "q")
    one = LaurentFraction.one(sp)
    torus = TorusData(
        rank=2,
        chi=[(1, 0), (0, 1)],
        h=[(q, one), (one, q)],
        pi=pi,
    )
    Q = {(1, 0): PBWPolynomial(sp, 2, {(1, 0): LaurentFraction.one(sp)})}
    return CGLPresentation(sp, 2, {(1, 0): q.inverse()}, Q, torus)


def test_no_predecessor_solution():
    P = _two_generator_presentation((1, 1))
    with pytest.raises(NoPredecessorSolution):
        compute_y_elements(P)


def test_normal_element_off_the_target_character_is_not_a_predecessor():
    """x_1 x_0 = q x_0 x_1 + 1 under the torus of the quantum plane.

    The closed form gives the constant c = 1/(1 - q), and x_0 x_1 - c is
    normal, but c lacks the character chi_0 + chi_1 of x_0 x_1, whose
    monomials below x_1 are none: there is no homogeneous predecessor.
    """
    P = _two_generator_presentation((1, 1))
    Q = {(1, 0): PBWPolynomial.constant(P.space, 2, 1)}
    P = CGLPresentation(P.space, 2, {(1, 0): P.lam[0][1]}, Q, P.torus)
    c = PBWPolynomial.constant(P.space, 2, 1 / (1 - P.scalar("q")))
    y = P.mul(P.x(0), P.x(1)) - c
    for i, gamma in [(0, P.scalar("q")), (1, 1 / P.scalar("q"))]:
        assert P.mul(y, P.x(i)) == P.mul(P.x(i), y).scale(gamma)
    assert primes._solve_predecessor(P, P.x(0), [0], 1, (1, 1), {}) is None
    with pytest.raises(NoPredecessorSolution):
        compute_y_elements(P)


def test_missing_grading_is_reported():
    P = _two_generator_presentation(None)
    with pytest.raises(NoGradingDefined):
        compute_y_elements(P)


def test_ambiguous_predecessor_when_every_row_vanishes():
    """x_0 x_2 in a quantum affine space whose x_1 has the character of x_0 x_2.

    lambda comes from the skew bicharacter beta(u, v) = q^(u_0 v_1 - u_1 v_0),
    so lambda_2 = beta(chi_2, chi_2) = 1, against axiom (iii).  With
    chi_1 = chi_0 + chi_2 this gives mu_{x_1} = s_0 lambda_2 = s_0: the x_2
    row leaves the coefficient of x_1 in c free, and c = t x_1 makes
    x_0 x_2 - c normal for every t.
    """
    sp = ParameterSpace(("q",))
    q = LaurentFraction.parameter(sp, "q")
    chi = [(1, 0), (1, 1), (0, 1)]

    def beta(u, v):
        return q ** (u[0] * v[1] - u[1] * v[0])

    torus = TorusData(
        rank=2,
        chi=chi,
        h=[(beta(c, (1, 0)), beta(c, (0, 1))) for c in chi],
        pi=(1, 1),
    )
    lower = {(k, j): beta(chi[k], chi[j]) for k in range(3) for j in range(k)}
    P = CGLPresentation(sp, 3, lower, {}, torus)
    with pytest.raises(AmbiguousPredecessor):
        primes._solve_predecessor(P, P.x(0), [0], 2, chi[1], {})


# -- the closed form against the full stacked system ------------------------


def _stack(polys):
    """Pack a list of polynomials into one term dict with disjoint monomials.

    Implemented by tagging each monomial with its list position; equality of
    the stacked dict is equivalent to simultaneous equality of the parts.
    """
    terms = {}
    for pos, poly in enumerate(polys):
        for mono, coeff in poly.terms.items():
            terms[(pos,) + mono] = coeff
    return terms


def _full_system_solve(P, y_j, chain_j, k, target_chi):
    """c from all k + 1 normality rows stacked into one system, or None."""
    chain = [k] + chain_j
    lead = P.mul(y_j, P.x(k))
    basis = monomials_with_character(P, target_chi, top=k)
    columns = [PBWPolynomial(P.space, P.N, {m: 1}) for m in basis]
    lhs_rows = []
    col_rows = [[] for _ in columns]
    for i in range(k + 1):
        gamma = prod((P.lam[c][i] for c in chain), start=P.unit)
        xi = P.x(i)
        lhs_rows.append(P.mul(lead, xi) - P.mul(xi, lead).scale(gamma))
        for t, col in enumerate(columns):
            col_rows[t].append(P.mul(col, xi) - P.mul(xi, col).scale(gamma))
    target = _stack(lhs_rows)
    if not columns:
        return None if target else PBWPolynomial.zero(P.space, P.N)
    solved = solve_in_span([_stack(rows) for rows in col_rows], target, P.space)
    if solved is None:
        return None
    coeffs, null_basis = solved
    if null_basis:
        raise AmbiguousPredecessor(f"k = {k + 1}")
    terms = {m: coeff for m, coeff in zip(basis, coeffs) if not coeff.is_zero}
    return PBWPolynomial(P.space, P.N, terms)


@pytest.mark.parametrize(
    "spec, tau",
    [
        ("oq-matrices:2,3", None),
        ("oq-matrices:3,3", None),
        ("multiparam-matrices:3", None),
        ("uq-sl3", None),
        ("oq-matrices:3,3", [3, 4, 2, 5, 1, 6, 0, 7, 8]),
        ("oq-matrices:4,4", None),
        ("multiparam-matrices:4", None),
    ],
    ids=[
        "oq-matrices:2,3",
        "oq-matrices:3,3",
        "multiparam-matrices:3",
        "uq-sl3",
        "oq33-permuted",
        "oq-matrices:4,4",
        "multiparam-matrices:4",
    ],
)
def test_closed_form_matches_the_full_system(spec, tau, monkeypatch):
    """On every (k, j) candidate the recursion visits, the closed form
    c = delta_k(y_j) / (s_j (lambda_k - 1)) checked directly gives the c of
    the full stacked system of all k + 1 normality rows, or None on both
    sides, and y = y_j x_k - c.  The permuted presentation is the one whose
    candidates the x_0 row alone does not pin."""
    P = parse_preset_spec(spec)
    if tau is not None:
        P = permute_presentation(P, tau)
    solve = primes._solve_predecessor
    visited = []

    def compared(P, y_j, chain_j, k, target_chi, ledger):
        found = solve(P, y_j, chain_j, k, target_chi, ledger)
        expected = _full_system_solve(P, y_j, chain_j, k, target_chi)
        if expected is None:
            assert found is None, (k, chain_j)
        else:
            y, c = found
            assert c == expected, (k, chain_j)
            assert y == P.mul(y_j, P.x(k)) - c
        visited.append((k, found is not None))
        return found

    monkeypatch.setattr(primes, "_solve_predecessor", compared)
    T = compute_y_elements(P)
    hits = [k for k, hit in visited if hit]
    assert hits == [k for k in range(P.N) if T.eta_data.pred[k] is not None]
    assert len(visited) > len(hits)


def counting_products(monkeypatch):
    """Record every pbw.multiply call from here on; returns the growing list."""
    products = []
    multiply = pbw.multiply

    def counting_multiply(p, r, P, strategy="leftmost"):
        products.append(1)
        return multiply(p, r, P, strategy)

    monkeypatch.setattr(pbw, "multiply", counting_multiply)
    return products


def test_y_element_recursion_product_count(monkeypatch):
    """The products of the recursion on oq-matrices:3,3: each of its 18
    candidates makes x_k y_j and the lead y_j x_k, which together give
    delta_k(y_j); each of the 14 misses then makes the one product y_j Q_ki
    that proves it (one fewer than the 2 of the normality row that decided
    it before), and the 4 hits, at k = 5, 6, 8, 9 (1-based), make 2 k each
    for the direct check: 36 + 14 + 56 = 106 in all, against 120 when the
    first normality row decided each miss and 454 when every candidate posed
    all k normality rows."""
    P = parse_preset_spec("oq-matrices:3,3")
    products = counting_products(monkeypatch)
    T = compute_y_elements(P)
    assert [k + 1 for k in T.c] == [5, 6, 8, 9]
    assert len(products) == 106 < 120 < 454


def test_a_miss_costs_three_products(monkeypatch):
    """On uq-sl3 the recursion runs at k = 3 only (1-based), on y_1 and y_2.
    y_2 is the miss: delta_3(y_2) = 0 from x_3 y_2 and y_2 x_3, and the
    nonzero y_2 Q_31 decides it, 3 products.  y_1 is the hit: 2 for
    delta_3(y_1) and 2 per row on x_1, x_2, x_3 for the direct check."""
    P = parse_preset_spec("uq-sl3")
    products = counting_products(monkeypatch)
    solve = primes._solve_predecessor
    visited = []

    def counted(P, y_j, chain_j, k, target_chi, ledger):
        before = len(products)
        found = solve(P, y_j, chain_j, k, target_chi, ledger)
        visited.append((k + 1, chain_j[0] + 1, found is not None, len(products) - before))
        return found

    monkeypatch.setattr(primes, "_solve_predecessor", counted)
    compute_y_elements(P)
    assert visited == [(3, 1, True, 8), (3, 2, False, 3)]


@pytest.mark.parametrize(
    "spec", ["oq-matrices:2,3", "oq-matrices:3,3", "multiparam-matrices:3", "uq-sl3"]
)
def test_a_miss_is_decided_by_its_x_k_free_part(spec, monkeypatch):
    """At every miss delta_k(y_j) = 0, so y = y_j x_k, and for every i < k
    with Q_ki != 0 the x_k^0 part of the normality row y x_i - gamma_i x_i y
    is y_j Q_ki, which is nonzero."""
    P = parse_preset_spec(spec)
    solve = primes._solve_predecessor
    misses = []

    def compared(P, y_j, chain_j, k, target_chi, ledger):
        found = solve(P, y_j, chain_j, k, target_chi, ledger)
        if found is None:
            x_k = P.x(k)
            s_j = prod((P.lam[k][u] for u in chain_j), start=P.unit)
            assert P.mul(x_k, y_j) == P.mul(y_j, x_k).scale(s_j)
            y = P.mul(y_j, x_k)
            for i in range(k):
                if (k, i) not in P.Q:
                    continue
                gamma = prod((P.lam[u][i] for u in [k] + chain_j), start=P.unit)
                row = P.mul(y, P.x(i)) - P.mul(P.x(i), y).scale(gamma)
                free = {m: c for m, c in row.terms.items() if not m[k]}
                assert free == P.mul(y_j, P.Q[k, i]).terms != {}
            misses.append(k)
        return found

    monkeypatch.setattr(primes, "_solve_predecessor", compared)
    compute_y_elements(P)
    assert misses


@pytest.mark.parametrize(
    "spec",
    [
        "oq-matrices:2,2",
        "oq-matrices:3,3",
        "oq-matrices:3,4",
        "multiparam-matrices:3",
        "multiparam-matrices:4",
        "uq-sl3",
    ],
)
def test_c_is_delta_over_s_times_lambda_minus_one(spec):
    """c_k = delta_k(y_j) / (s_j (lambda_k - 1)) at every predecessor step
    j = p(k), with s_j = chi(y_j)(h_k) and lambda_k = chi_k(h_k) read off the
    torus."""
    P = parse_preset_spec(spec)
    T = compute_y_elements(P)
    assert T.c.keys() == {k for k, j in enumerate(T.eta_data.pred) if j is not None} != set()
    for k, c in T.c.items():
        j = T.eta_data.pred[k]
        h_k = P.torus.h[k]
        s_j = _power_product(P.space, h_k, T.characters[j])
        lambda_k = _power_product(P.space, h_k, P.torus.chi[k])
        assert c == P.delta(k, T.y[j]).scale(1 / (s_j * (lambda_k - 1))), k


# -- homogeneous monomial enumeration ----------------------------------------


def test_monomials_of_degree():
    P = parse_preset_spec("oq-matrices:2,2")
    assert len(monomials_of_degree(P, 1)) == 4
    assert len(monomials_of_degree(P, 2)) == 10
    assert sorted(monomials_of_degree(P, 1, top=2)) == [(0, 1, 0, 0), (1, 0, 0, 0)]


def test_monomials_with_character():
    P = parse_preset_spec("oq-matrices:2,2")
    chi = tuple(a + b for a, b in zip(P.torus.chi[0], P.torus.chi[3]))
    found = monomials_with_character(P, chi)
    assert sorted(found) == [(0, 1, 1, 0), (1, 0, 0, 1)]


@pytest.mark.parametrize("spec", ["oq-matrices:2,3", "multiparam-matrices:3", "uq-sl3"])
def test_monomial_enumeration_matches_brute_force(spec):
    """All exponent tuples up to degree 2, in lexicographic order, grouped by
    degree and by character: the pruned knapsack must list exactly these."""
    P = parse_preset_spec(spec)
    degs = P.generator_degrees()
    by_degree, by_character = {}, {}
    for top in (P.N, P.N - 1):
        for mono in itertools.product(range(3), repeat=top):
            mono += (0,) * (P.N - top)
            d = sum(e * g for e, g in zip(mono, degs))
            chi = tuple(
                sum(e * c[a] for e, c in zip(mono, P.torus.chi)) for a in range(P.torus.rank)
            )
            if d <= 2:
                by_degree.setdefault((top, d), []).append(mono)
                by_character.setdefault((top, chi), []).append(mono)
    for (top, d), monos in by_degree.items():
        assert monomials_of_degree(P, d, top=top) == monos
    for (top, chi), monos in by_character.items():
        assert monomials_with_character(P, chi, top=top) == monos
        # a nearby character of degree at most 2, which may have no monomials
        for off in ((chi[0] - 1,) + chi[1:], (chi[0] + 1,) + chi[1:]):
            if 0 <= sum(p * c for p, c in zip(P.torus.pi, off)) <= 2:
                expected = by_character.get((top, off), [])
                assert monomials_with_character(P, off, top=top) == expected
