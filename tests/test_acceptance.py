"""Acceptance gate: one pass/fail line per criterion, all exact checks.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import contextlib
import itertools
import random
import time

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
from cglkit.pbw import PBWPolynomial, graded_split, multiply
from cglkit.presentation import permute_presentation, sample_interval_permutation
from cglkit.presets import parse_preset_spec
from cglkit.primes import (
    bicharacter_radical,
    compute_y_elements,
    is_saturated,
    rank_of,
    verify_quantum_affine,
)
from cglkit.scalars import LaurentFraction, SignedMonomial
from cglkit.structure import (
    core_decomposition,
    nakayama_automorphism,
    verify_nakayama_by_normal_element,
)

SEED = 20240823

SYMMETRIC_PRESETS = [
    "quantum-affine:2",
    "quantum-affine:3",
    "oq-matrices:2,2",
    "oq-matrices:2,3",
    "oq-matrices:3,2",
    "oq-matrices:3,3",
    "multiparam-matrices:2",
    "uq-sl3",
]
ALL_PRESETS = SYMMETRIC_PRESETS + ["quantum-plane-minus-one"]


@contextlib.contextmanager
def criterion(n):
    try:
        yield
    except BaseException:
        print(f"[criterion {n:02d}] FAIL")
        raise
    print(f"[criterion {n:02d}] PASS")


# -- criterion 1: quantum minors --------------------------------------------


def inversions(seq):
    return sum(
        1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b]
    )


def quantum_minor(P, n, rows, cols):
    """Permutation-sum oracle: sum over bijections with weight (-q)^inv."""
    q = P.scalar("q")
    terms = {}
    for perm in itertools.permutations(range(len(cols))):
        exps = [0] * P.N
        for a, r in enumerate(rows):
            exps[(r - 1) * n + cols[perm[a]] - 1] = 1
        terms[tuple(exps)] = (-q) ** inversions(perm)
    return PBWPolynomial(P.space, P.N, terms)


def test_criterion_01_quantum_minor_identification():
    with criterion(1):
        for t, n in [(2, 2), (2, 3), (3, 2)]:
            P = parse_preset_spec(f"oq-matrices:{t},{n}")
            T = compute_y_elements(P)
            for k in range(P.N):
                i, j = divmod(k, n)
                i, j = i + 1, j + 1
                r = min(i, j) - 1
                rows = list(range(i - r, i + 1))
                cols = list(range(j - r, j + 1))
                assert T.y[k] == quantum_minor(P, n, rows, cols)


# -- criterion 2: Nakayama eigenvalues ---------------------------------------


def test_criterion_02_nakayama_eigenvalues():
    # known-answer checks: nu_k = prod_j lambda_kj is read off the preset's
    # lambda table, so these closed forms check preset data, not the engine
    with criterion(2):
        for t, n in [(2, 2), (2, 3), (3, 3), (4, 5), (5, 5), (6, 6)]:
            P = parse_preset_spec(f"oq-matrices:{t},{n}")
            nu = nakayama_automorphism(P)
            for k in range(P.N):
                i, j = divmod(k, n)
                i, j = i + 1, j + 1
                expected = SignedMonomial.parameter(
                    P.space, "q", power=t + n - 2 * i - 2 * j + 2
                )
                assert nu.eigenvalues[k] == expected
        for n in range(2, 7):
            P = parse_preset_spec(f"multiparam-matrices:{n}")
            nu = nakayama_automorphism(P)
            one = SignedMonomial.one(P.space)
            lam = SignedMonomial.parameter(P.space, "lam")
            # p[r][s] = p_rs from the parameter names p<r><s>, r < s; p_sr = p_rs^-1
            p = [[one] * n for _ in range(n)]
            for name in P.space.names:
                if name.startswith("p"):
                    r, s = int(name[1]) - 1, int(name[2]) - 1
                    p[r][s] = SignedMonomial.parameter(P.space, name)
                    p[s][r] = p[r][s].inverse()
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    expected = one
                    for l in range(1, n + 1):
                        expected = expected * p[i - 1][l - 1] ** n
                    for m in range(1, n + 1):
                        expected = expected * p[m - 1][j - 1] ** n
                    expected = expected * lam ** (n * (i - j - 1) + i + j - 1)
                    assert nu.eigenvalues[(i - 1) * n + (j - 1)] == expected


# -- criterion 3: normal-element realization ---------------------------------


def test_criterion_03_nakayama_via_normal_element():
    with criterion(3):
        for spec in SYMMETRIC_PRESETS:
            P = parse_preset_spec(spec)
            start = time.monotonic()
            T = compute_y_elements(P)
            nu = nakayama_automorphism(P)
            report = verify_nakayama_by_normal_element(P, T, nu)
            elapsed = time.monotonic() - start
            assert report.passed, f"{spec}: {report}"
            if spec == "oq-matrices:3,3":
                assert elapsed < 300.0, f"N=9 took {elapsed:.1f}s"


# -- criterion 4: frame/core decompositions ----------------------------------


def test_criterion_04_core_results():
    with criterion(4):
        for spec in [
            "oq-matrices:2,2",
            "oq-matrices:2,3",
            "oq-matrices:3,2",
            "oq-matrices:3,3",
            "uq-sl3",
        ]:
            P = parse_preset_spec(spec)
            D = core_decomposition(P, compute_y_elements(P))
            assert D.F_x == [], spec
        P = parse_preset_spec("quantum-affine:3")
        D = core_decomposition(P, compute_y_elements(P))
        assert D.F_x == [0, 1, 2]
        assert D.core.N == 0


# -- criterion 5: rank cross-check -------------------------------------------


def test_criterion_05_rank():
    with criterion(5):
        for t, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            P = parse_preset_spec(f"oq-matrices:{t},{n}")
            assert rank_of(P, compute_y_elements(P)) == t + n - 1
        for N in [2, 3]:
            P = parse_preset_spec(f"quantum-affine:{N}")
            assert rank_of(P, compute_y_elements(P)) == N


# -- criterion 6: the quantum affine space of prime elements -----------------


def test_criterion_06_quantum_affine_embedding():
    with criterion(6):
        for spec in ALL_PRESETS:
            P = parse_preset_spec(spec)
            T = compute_y_elements(P)
            assert verify_quantum_affine(P, T).passed, spec
        P = parse_preset_spec("oq-matrices:2,2")
        T = compute_y_elements(P)
        assert all(v.is_one for v in T.qmat[3])


# -- criterion 7: saturation -------------------------------------------------


def test_criterion_07_saturation():
    with criterion(7):
        single_parameter = [
            "quantum-affine:2",
            "quantum-affine:3",
            "oq-matrices:2,2",
            "oq-matrices:2,3",
            "oq-matrices:3,2",
            "oq-matrices:3,3",
            "uq-sl3",
        ]
        for spec in single_parameter:
            assert is_saturated(parse_preset_spec(spec).lam), spec
        P = parse_preset_spec("quantum-plane-minus-one")
        assert not is_saturated(P.lam)
        rad = bicharacter_radical(P.lam)
        assert rad.basis == [[2, 0], [0, 2]]
        for e in itertools.product(range(-2, 3), repeat=2):
            in_brute = True
            for j in range(2):
                prod = P.lam[j][0] ** e[0] * P.lam[j][1] ** e[1]
                if not prod.is_one:
                    in_brute = False
            assert rad.contains(list(e)) == in_brute
        for spec in ALL_PRESETS:
            P = parse_preset_spec(spec)
            T = compute_y_elements(P)
            assert is_saturated(P.lam) == is_saturated(T.qmat), spec
        rng = random.Random(SEED)
        for spec in SYMMETRIC_PRESETS:
            P = parse_preset_spec(spec)
            base = is_saturated(P.lam)
            for _ in range(3):
                tau = sample_interval_permutation(P.N, rng)
                Pt = permute_presentation(P, tau)
                assert is_saturated(Pt.lam) == base, (spec, tau)


# -- criterion 8: unipotent rigidity -----------------------------------------


def shear(P, xi):
    a = P.mul(P.x(0), P.x(2)).scale(P.scalar(xi))
    return EndomorphismSpec([P.x(0), P.x(1) + a, P.x(2)])


def test_criterion_08_unipotent_rigidity():
    with criterion(8):
        P = parse_preset_spec("quantum-affine:3")
        T = compute_y_elements(P)
        D = core_decomposition(P, T)
        for xi in ["1", "-1", "q", "q^-1", "2 - q"]:
            e = shear(P, xi)
            assert verify_endomorphism(P, e).passed, xi
            assert is_unipotent(P, e), xi
            assert check_unipotent_structure(P, T, D, e).passed, xi
        for spec in ["oq-matrices:2,2", "uq-sl3"]:
            Ps = parse_preset_spec(spec)
            hits, tested = random_unipotent_search(
                Ps, samples=500, seed=SEED, max_degree=4
            )
            assert tested >= 500
            assert hits == [], spec


# -- criterion 9: centralizer dimensions -------------------------------------


def test_criterion_09_centralizer_dimensions():
    with criterion(9):
        for t, n in [(2, 2), (3, 3)]:
            P = parse_preset_spec(f"oq-matrices:{t},{n}")
            x_1n = P.x(n - 1)
            x_t1 = P.x((t - 1) * n)
            assert centralizer_eigenspace_dim(P, x_1n, 1) == t - 1
            assert centralizer_eigenspace_dim(P, x_t1, 1) == n - 1
            row1 = [P.x(j) for j in range(n)]
            for j in range(1, n + 1):
                v = P.x(j - 1)
                assert centralizer_eigenspace_dim(P, v, 1, within=row1) == n - j
                assert centralizer_eigenspace_dim(P, v, -1, within=row1) == j - 1


# -- criterion 10: Cartan-data consistency for the sl3 Nakayama map ----------


def a2_pairing_exponents():
    """<(w0 + 1) rho, gamma> for the three positive roots, from the A2 data.

    Everything is computed in simple-root coordinates: reflections act by
    s_i(alpha_j) = alpha_j - C_ij alpha_i, w0 = s1 s2 s1, rho = alpha_1 +
    alpha_2, and the pairing is the symmetrized Cartan form.
    """
    C = [[2, -1], [-1, 2]]

    def reflect_vector(i, v):
        # s_i(v) = v - <v, alpha_i^vee> alpha_i with v in root coordinates
        pairing = sum(v[j] * C[j][i] for j in range(2))
        out = list(v)
        out[i] -= pairing
        return out

    rho = [1, 1]
    w0_rho = reflect_vector(0, reflect_vector(1, reflect_vector(0, rho)))
    v = [w0_rho[a] + rho[a] for a in range(2)]
    roots = [[1, 0], [1, 1], [0, 1]]
    return [
        sum(v[a] * C[a][b] * g[b] for a in range(2) for b in range(2)) for g in roots
    ]


def test_criterion_10_sl3_nakayama_against_cartan_oracle():
    with criterion(10):
        P = parse_preset_spec("uq-sl3")
        nu = nakayama_automorphism(P)
        exponents = a2_pairing_exponents()
        for k in range(3):
            expected = SignedMonomial.parameter(P.space, "q", power=-exponents[k])
            assert nu.eigenvalues[k] == expected


# -- criterion 11: engine properties -----------------------------------------


def rand_poly(P, rng, max_deg, max_terms):
    terms = {}
    q = LaurentFraction.parameter(P.space, P.space.names[0])
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = [0] * P.N
        for _ in range(rng.randrange(0, max_deg + 1)):
            mono[rng.randrange(P.N)] += 1
        coeff = LaurentFraction.from_rational(P.space, rng.choice([1, -1, 2]))
        if rng.random() < 0.5:
            coeff = coeff * q ** rng.choice([-1, 1])
        terms[tuple(mono)] = coeff
    return PBWPolynomial(P.space, P.N, terms)


def random_filtered_map(P, rng):
    """Invertible scaling of each generator plus random higher-degree tails.

    The degree-preserving part of such a map is a diagonal algebra
    automorphism, so the graded/unipotent factorization must recompose
    exactly.
    """
    q = LaurentFraction.parameter(P.space, "q")
    tails = [LaurentFraction.one(P.space), q, q.inverse(), -q]
    images = []
    for i in range(3):
        c = LaurentFraction.from_rational(P.space, rng.choice([1, -1, 2, -3]))
        if rng.random() < 0.5:
            c = c * q ** rng.choice([-1, 1, 2])
        img = P.x(i).scale(c)
        for _ in range(rng.randrange(0, 3)):
            mono = [0] * 3
            for _ in range(rng.choice([2, 3])):
                mono[rng.randrange(3)] += 1
            img = img + PBWPolynomial(
                P.space, 3, {tuple(mono): tails[rng.randrange(len(tails))]}
            )
        images.append(img)
    return EndomorphismSpec(images)


def test_criterion_11_engine_properties():
    with criterion(11):
        rng = random.Random(SEED)
        for spec in ALL_PRESETS:
            P = parse_preset_spec(spec)
            max_deg = 2 if P.N >= 9 else 3
            for _ in range(1000):
                a, b, c = (rand_poly(P, rng, max_deg, 2) for _ in range(3))
                assert P.mul(P.mul(a, b), c) == P.mul(a, P.mul(b, c))
                assert multiply(a, b, P, strategy="leftmost") == multiply(
                    a, b, P, strategy="rightmost"
                )
        P = parse_preset_spec("quantum-affine:3")
        degs = P.generator_degrees()
        for _ in range(100):
            psi = random_filtered_map(P, rng)
            psi0, uni, report = degree_zero_component(P, psi)
            assert compose(P, psi0, uni) == psi
            zero = PBWPolynomial.zero(P.space, P.N)
            for i in range(3):
                assert psi0.images[i] == graded_split(psi.images[i], P).get(
                    degs[i], zero
                )
