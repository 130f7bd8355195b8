"""Exact linear solves over Q(q_1,...,q_m): solve_affine, solve_in_span,
nullspace, rank.

The random systems are sparse rows plus combinations of them, with Laurent
entries in one and two parameters and some true quotients.  Every answer is checked against the system itself, and
inconsistency against a certificate from the left nullspace.
"""

import random
from fractions import Fraction

import pytest

from cglkit.linalg import _rref, nullspace, rank, solve_affine, solve_in_span
from cglkit.scalars import LaurentFraction, ParameterSpace

SP = ParameterSpace(("q",))
SP2 = ParameterSpace(("lam", "p12"))


def rand_laurent(rng, space, n_terms):
    terms = {
        tuple(rng.randint(-1, 1) for _ in range(space.m)): rng.choice([1, -1, 2, Fraction(1, 2)])
        for _ in range(n_terms)
    }
    return LaurentFraction(space, terms)


def rand_entry(rng, space):
    """Zero half the time, else a Laurent polynomial; in one parameter, one
    time in six a quotient (two-parameter GCDs would dominate the run time)."""
    if rng.random() < 0.5:
        return LaurentFraction.zero(space)
    x = rand_laurent(rng, space, rng.randint(1, 2))
    if space.m == 1 and rng.random() < 1 / 6:
        x = x / (LaurentFraction.parameter(space, "q") + 1)
    return x


def mat_vec(A, v, space):
    return [sum((a * x for a, x in zip(row, v)), LaurentFraction.zero(space)) for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def rand_system(rng, space):
    """(A, b, n): random rows plus monomial combinations of them, so that A
    is rank-deficient when combinations were added; b is consistent two
    times in three."""
    n = rng.randint(2, 5)
    A = [[rand_entry(rng, space) for _ in range(n)] for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(len(A)), rng.randrange(len(A))
        a, c = rand_laurent(rng, space, 1), rand_laurent(rng, space, 1)
        A.insert(rng.randint(0, len(A)), [a * x + c * y for x, y in zip(A[i], A[j])])
    if rng.random() < 2 / 3:
        b = mat_vec(A, [rand_entry(rng, space) for _ in range(n)], space)
    else:
        b = [rand_entry(rng, space) for _ in range(len(A))]
    return A, b, n


def render(vectors):
    """Printed form of a list of vectors, to compare results exactly."""
    return [[str(x) for x in vec] for vec in vectors]


def render_solution(result):
    return None if result is None else render([result[0]] + result[1])


SYSTEMS = [(space, seed) for space in (SP, SP2) for seed in range(30)]


@pytest.mark.parametrize(
    "space, seed", SYSTEMS, ids=[f"{space.m}param-{seed}" for space, seed in SYSTEMS]
)
def test_random_system(space, seed):
    rng = random.Random(1000 * space.m + seed)
    A, b, n = rand_system(rng, space)
    zero = LaurentFraction.zero(space)
    result = solve_affine(A, b, space)
    basis = nullspace(A, space)
    r = rank(A, space)
    assert len(basis) == n - r
    assert r == rank(transpose(A), space)
    for vec in basis:
        assert mat_vec(A, vec, space) == [zero] * len(A)
    if basis:
        assert rank(basis, space) == len(basis)
    if result is None:
        # a left-nullspace vector y with y A = 0 and y b != 0 proves 0 = nonzero
        assert any(not (sum((y * bv for y, bv in zip(vec, b)), zero)).is_zero
                   for vec in nullspace(transpose(A), space))
    else:
        particular, solution_basis = result
        assert mat_vec(A, particular, space) == b
        assert render(solution_basis) == render(basis)
    # the same system posed as sparse column vectors keyed by row index
    columns = [{i: row[j] for i, row in enumerate(A) if not row[j].is_zero} for j in range(n)]
    target = {i: bv for i, bv in enumerate(b) if not bv.is_zero}
    assert render_solution(solve_in_span(columns, target, space)) == render_solution(result)
    # the row order, and so the pivot order, cannot change any result
    for _ in range(3):
        order = list(range(len(A)))
        rng.shuffle(order)
        A2, b2 = [A[i] for i in order], [b[i] for i in order]
        assert render_solution(solve_affine(A2, b2, space)) == render_solution(result)
        assert render(nullspace(A2, space)) == render(basis)
        assert rank(A2, space) == r


def test_random_systems_cover_every_case():
    kinds = set()
    for space, seed in SYSTEMS:
        A, b, n = rand_system(random.Random(1000 * space.m + seed), space)
        r = rank(A, space)
        kinds.add("inconsistent" if solve_affine(A, b, space) is None else "consistent")
        kinds.add("rank-deficient" if r < min(len(A), n) else "full rank")
        if any(not x.is_zero and not x.is_laurent for row in A for x in row):
            kinds.add("quotient entries")
    assert kinds == {
        "inconsistent", "consistent", "rank-deficient", "full rank", "quotient entries"
    }


def test_small_cases():
    q = LaurentFraction.parameter(SP, "q")
    zero, one = LaurentFraction.zero(SP), LaurentFraction.one(SP)
    assert solve_affine([], [], SP) == ([], [])
    assert rank([], SP) == 0
    assert nullspace([], SP, n=2) == [[one, zero], [zero, one]]
    with pytest.raises(ValueError):
        nullspace([], SP)
    assert rank([[zero, zero]], SP) == 0
    assert solve_affine([[zero, zero]], [q], SP) is None
    # q t0 + t1 = 1 and (q + 1) t0 = q + 1: t0 = 1, t1 = 1 - q
    particular, basis = solve_affine([[q, one], [q + 1, zero]], [one, q + 1], SP)
    assert particular == [one, one - q] and basis == []


def test_solve_in_span_without_rows():
    q = LaurentFraction.parameter(SP, "q")
    zero, one = LaurentFraction.zero(SP), LaurentFraction.one(SP)
    # every unknown is free when no column and no target has an entry
    assert solve_in_span([{}, {}], {}, SP) == ([zero, zero], [[one, zero], [zero, one]])
    assert solve_in_span([], {"x": q}, SP) is None
    assert solve_in_span([], {}, SP) == ([], [])
    # the rows are the sorted union of the keys: t0 * (q, 1) + t1 * (0, 1) = (q, 0)
    assert solve_in_span([{"b": one, "a": q}, {"b": one}], {"a": q}, SP) == ([one, -one], [])


def test_pivot_prefers_the_cheapest_entry():
    q = LaurentFraction.parameter(SP, "q")
    one = LaurentFraction.one(SP)
    quotient = one / (q + 1)
    rows = [
        {0: q * q, 1: one, 2: q},
        {0: q, 1: q},
        {0: quotient, 1: q},
        {0: q + 1, 1: one},
        {0: -q, 2: one},
    ]
    # monomials beat the binomial q + 1 and the quotient, the shorter rows
    # beat the row of q^2, and of the two equal rows the first one wins
    column, chosen = _rref(rows, 3)[0]
    assert column == 0 and chosen is rows[1]
