"""Integer lattice algebra: Hermite/Smith forms, kernels, membership."""

import itertools
import random
from math import gcd

from cglkit.lattice import (
    hermite_normal_form,
    integer_kernel,
    lattice_contains,
    lattices_equal,
    row_space_basis,
    smith_invariant_factors,
)


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def mat_mul(A, B):
    return [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A
    ]


def det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det(minor)
    return total


def test_hermite_form_properties():
    rng = random.Random(314)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = rand_matrix(rng, rows, cols)
        H, U = hermite_normal_form(A)
        # U is unimodular and U A = H
        assert abs(det(U)) == 1
        assert mat_mul(U, A) == H
        # staircase shape: pivots strictly advance, entries above reduced
        pivots = []
        for row in H:
            nz = [j for j, v in enumerate(row) if v]
            if nz:
                pivots.append(nz[0])
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for r, row in enumerate(H):
            nz = [j for j, v in enumerate(row) if v]
            if not nz:
                continue
            p = nz[0]
            assert row[p] > 0
            for above in range(r):
                assert 0 <= H[above][p] < row[p]


def test_integer_kernel_brute_force():
    rng = random.Random(2718)
    for _ in range(20):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        A = rand_matrix(rng, rows, cols, -2, 2)
        basis = integer_kernel(A, cols)
        # every basis vector killed by A
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
        # brute force: every small kernel vector must lie in the lattice
        for cand in itertools.product(range(-2, 3), repeat=cols):
            if any(cand) and all(
                sum(a * x for a, x in zip(row, cand)) == 0 for row in A
            ):
                assert lattice_contains(basis, cand)


def minor_gcd(A, k):
    """gcd of all k x k minors of A (0 when every one vanishes)."""
    g = 0
    for rows in itertools.combinations(range(len(A)), k):
        for cols in itertools.combinations(range(len(A[0])), k):
            g = gcd(g, det([[A[r][c] for c in cols] for r in rows]))
    return g


def minor_gcd_invariants(A):
    """Oracle: s_k = d_k / d_{k-1} with d_k the gcd of the k x k minors."""
    expected = []
    prev = 1
    for k in range(1, min(len(A), len(A[0])) + 1):
        g = minor_gcd(A, k)
        if g == 0:
            break
        expected.append(g // prev)
        prev = g
    return expected


def test_smith_invariants_vs_minor_gcd():
    rng = random.Random(5)
    for _ in range(15):
        A = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), -3, 3)
        assert smith_invariant_factors(A) == minor_gcd_invariants(A)


# invariant factors 1, 1, 1, 1, 6; an elimination that clears one row and
# column at a time, swapping each nonzero remainder into the pivot, ran for
# more than 60 s on it
CYCLING_5X7 = [
    [0, -20, -45, -29, 18, 47, 0],
    [-3, -36, 0, 0, -33, 48, -45],
    [0, 50, -34, 28, -2, 20, 0],
    [0, 22, -36, -15, 0, -49, -49],
    [0, -45, 0, 3, 7, -20, -37],
]


def test_smith_invariants_vs_minor_gcd_up_to_5x7():
    rng = random.Random(1)
    matrices = [CYCLING_5X7] + [
        rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 7), -50, 50) for _ in range(30)
    ]
    for A in matrices:
        assert smith_invariant_factors(A) == minor_gcd_invariants(A), A


def test_smith_divisibility_chain():
    rng = random.Random(6)
    for _ in range(10):
        A = rand_matrix(rng, 3, 4, -5, 5)
        inv = smith_invariant_factors(A)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


def test_lattice_contains_and_equal():
    basis = [[2, 0], [0, 2]]
    assert lattice_contains(basis, [4, -2])
    assert not lattice_contains(basis, [1, 0])
    assert lattices_equal([[2, 2], [4, 0]], [[2, 2], [2, -2]])
    assert not lattices_equal([[2, 0], [0, 2]], [[1, 0], [0, 1]])
    # index-4 sublattice of 2Z^2: sums of coordinates are even
    assert not lattices_equal([[2, 0], [0, 2]], [[2, 2], [2, -2]])
    assert lattices_equal([], [])


def test_lattice_contains_on_dependent_generators():
    # (3, 0) - (2, 0) = (1, 0), although no single rational solution is integral
    assert lattice_contains([[2, 0], [3, 0], [0, 1]], [1, 0])
    # oracle for a full-rank L in Z^2: v lies in L iff adding v keeps the
    # index of L, the gcd of its 2 x 2 minors
    rng = random.Random(11)
    for _ in range(20):
        rows = rand_matrix(rng, 3, 2, -6, 6)
        index = minor_gcd(rows, 2)
        if index == 0:
            continue
        for v in itertools.product(range(-3, 4), repeat=2):
            assert lattice_contains(rows, v) == (minor_gcd(rows + [list(v)], 2) == index)


def test_row_space_basis_rank():
    rng = random.Random(7)
    for _ in range(10):
        A = rand_matrix(rng, 3, 3, -2, 2)
        basis = row_space_basis(A)
        # every original row is in the span over Z
        for row in A:
            assert lattice_contains(basis, row)
        d = det(A)
        if d != 0:
            assert len(basis) == 3
