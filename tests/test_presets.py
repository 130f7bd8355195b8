"""Built-in presentations and the independent relation oracles behind them."""

import pytest

from cglkit.errors import UnknownPreset
from cglkit.presets import CATALOG, parse_preset_spec, preset
from cglkit.scalars import LaurentFraction, ParameterSpace

# -- free-algebra oracle, independent of the preset builder ------------------
#
# Words in two letters are tuples of 0/1; elements are dicts word -> scalar.
# The Serre ideal has no component in degree 2 and exactly span{S1, S2} in
# degree 3, so the first root-vector relation must hold on the nose and the
# other two must reduce into that span.

SP = ParameterSpace(("q",))
Q = LaurentFraction.parameter(SP, "q")


def w_mul(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            c = out.get(w, LaurentFraction.zero(SP)) + ca * cb
            if c.is_zero:
                out.pop(w, None)
            else:
                out[w] = c
    return out


def w_sub(a, b):
    out = dict(a)
    for w, c in b.items():
        nc = out.get(w, LaurentFraction.zero(SP)) - c
        if nc.is_zero:
            out.pop(w, None)
        else:
            out[w] = nc
    return out


def w_scale(a, s):
    return {w: c * s for w, c in a.items()}


E1 = {(0,): LaurentFraction.one(SP)}
E2 = {(1,): LaurentFraction.one(SP)}
E12 = w_sub(w_mul(E1, E2), w_scale(w_mul(E2, E1), Q.inverse()))
S1 = w_sub(
    w_sub(w_mul(w_mul(E1, E1), E2), w_scale(w_mul(w_mul(E1, E2), E1), Q + Q.inverse())),
    w_scale(w_mul(w_mul(E2, E1), E1), LaurentFraction.from_rational(SP, -1)),
)
S2 = w_sub(
    w_sub(w_mul(w_mul(E2, E2), E1), w_scale(w_mul(w_mul(E2, E1), E2), Q + Q.inverse())),
    w_scale(w_mul(w_mul(E1, E2), E2), LaurentFraction.from_rational(SP, -1)),
)


def in_serre_span(elem):
    """Solve elem = a*S1 + b*S2 coefficient-wise over the degree-3 words."""
    words = sorted(set(elem) | set(S1) | set(S2))
    zero = LaurentFraction.zero(SP)
    sol_a = sol_b = None
    for w in words:
        c1, c2 = S1.get(w, zero), S2.get(w, zero)
        if not c1.is_zero and (sol_a is None) and c2.is_zero:
            sol_a = elem.get(w, zero) / c1
        if not c2.is_zero and (sol_b is None) and c1.is_zero:
            sol_b = elem.get(w, zero) / c2
    if sol_a is None:
        sol_a = zero
    if sol_b is None:
        sol_b = zero
    combo = w_sub(w_sub(elem, w_scale(S1, sol_a)), w_scale(S2, sol_b))
    return not combo


def test_sl3_relations_against_free_algebra():
    P = parse_preset_spec("uq-sl3")
    lam21 = P.lam[1][0]
    lam31 = P.lam[2][0]
    lam32 = P.lam[2][1]
    q31 = P.Q[(2, 0)].terms[(0, 1, 0)]
    # x2 x1 - lam21 x1 x2 must fall into the Serre span
    r21 = w_sub(w_mul(E12, E1), w_scale(w_mul(E1, E12), lam21))
    assert in_serre_span(r21)
    # x3 x1 - lam31 x1 x3 - q31 x2 must vanish identically (degree 2)
    r31 = w_sub(
        w_sub(w_mul(E2, E1), w_scale(w_mul(E1, E2), lam31)), w_scale(E12, q31)
    )
    assert not r31
    # x3 x2 - lam32 x2 x3 must fall into the Serre span
    r32 = w_sub(w_mul(E2, E12), w_scale(w_mul(E12, E2), lam32))
    assert in_serre_span(r32)


def test_sl3_derived_constants():
    P = parse_preset_spec("uq-sl3")
    assert P.lam[1][0] == Q.inverse()
    assert P.lam[2][0] == Q
    assert P.lam[2][1] == Q.inverse()
    assert list(P.Q) == [(2, 0)]
    assert P.format(P.Q[(2, 0)]) == "-q*x2"


def relation_scalar(P, k, j):
    """lambda_kj when x_k x_j = lambda_kj x_j x_k exactly."""
    lhs = P.mul(P.x(k), P.x(j))
    mono = P.mul(P.x(j), P.x(k))
    ((m, c),) = mono.terms.items()
    return lhs.terms[m] / c if list(lhs.terms) == [m] else None


def test_oq_matrices_2_2():
    P = parse_preset_spec("oq-matrices:2,2")
    assert P.N == 4
    assert list(P.Q) == [(3, 0)]
    q = P.scalar("q")
    assert P.Q[(3, 0)] == P.mul(P.x(1), P.x(2)).scale(q.inverse() - q)
    # row, column, antidiagonal commutation scalars
    assert relation_scalar(P, 1, 0) == q.inverse()
    assert relation_scalar(P, 2, 0) == q.inverse()
    assert relation_scalar(P, 2, 1) == P.scalar("1")
    assert relation_scalar(P, 3, 1) == q.inverse()
    assert relation_scalar(P, 3, 2) == q.inverse()
    assert P.generator_index("X21") == 2


def test_oq_matrices_row_major_layout():
    P = parse_preset_spec("oq-matrices:2,3")
    # X_ij sits at slot (i-1)n + j
    assert P.generator_index("X12") == 1
    assert P.generator_index("X21") == 3
    assert P.generator_index("X23") == 5
    # NW/SE pairs carry the correction term, NE/SW pairs commute
    assert (4, 0) in P.Q and (5, 0) in P.Q and (5, 1) in P.Q
    assert (3, 1) not in P.Q
    assert relation_scalar(P, 3, 1) == P.scalar("1")


def test_multiparam_matrices_relations():
    P = parse_preset_spec("multiparam-matrices:2")
    assert P.space.names == ("lam", "p12")
    lam = P.scalar("lam")
    p12 = P.scalar("p12")
    assert relation_scalar(P, 1, 0) == p12
    assert relation_scalar(P, 2, 0) == lam / p12
    assert relation_scalar(P, 2, 1) == lam / (p12 * p12)
    assert relation_scalar(P, 3, 1) == lam / p12
    assert relation_scalar(P, 3, 2) == p12
    # x4 x1 = x1 x4 + ((lam - 1)/p12) x2 x3
    lhs = P.mul(P.x(3), P.x(0))
    rhs = P.mul(P.x(0), P.x(3)) + P.mul(P.x(1), P.x(2)).scale((lam - 1) / p12)
    assert lhs == rhs


def test_quantum_affine_relations():
    P = parse_preset_spec("quantum-affine:3:q")
    q = P.scalar("q")
    for k in range(3):
        for j in range(k):
            assert relation_scalar(P, k, j) == q
    assert not P.Q
    P2 = parse_preset_spec("quantum-affine:2:q^2")
    assert relation_scalar(P2, 1, 0) == P2.scalar("q^2")


def test_quantum_plane_minus_one():
    P = parse_preset_spec("quantum-plane-minus-one")
    assert P.N == 2
    assert relation_scalar(P, 1, 0) == P.scalar("-1")
    assert P.torus.h_star is None


def test_catalog_and_errors():
    assert set(CATALOG) == {
        "quantum-affine",
        "oq-matrices",
        "multiparam-matrices",
        "uq-sl3",
        "quantum-plane-minus-one",
    }
    with pytest.raises(UnknownPreset):
        preset("no-such-algebra")
    with pytest.raises(UnknownPreset):
        preset("oq-matrices", ("2",))
    with pytest.raises(UnknownPreset):
        preset("oq-matrices", ("2", "x"))
    with pytest.raises(UnknownPreset):
        preset("uq-sl3", ("3",))


def test_parse_preset_spec():
    P = parse_preset_spec("oq-matrices:2,3")
    assert P.N == 6
    assert parse_preset_spec("uq-sl3").N == 3
    assert parse_preset_spec("quantum-affine:4").N == 4
    with pytest.raises(UnknownPreset):
        parse_preset_spec("oq-matrices")
