"""Exact integer matrix routines: Hermite/Smith forms, kernels, membership.

Matrices are lists of row lists of Python ints.  The Hermite normal form is
the one elimination: kernels read it off the unimodular transform, the
canonical HNF basis decides lattice equality and membership, and the Smith
form alternates it on rows and columns.  Bicharacter radicals reach N = 36
generators on the largest presets, with a handful of parameters; the
textbook algorithm is fast enough there, and everything is deterministic.
"""

from __future__ import annotations

from math import gcd


def hermite_normal_form(A):
    """Row-style HNF with transform: returns (H, U) with U*A = H, U unimodular.

    Pivots are positive; entries above a pivot are reduced modulo it; zero
    rows sink to the bottom.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    H = [list(r) for r in A]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    pivot_row = 0
    for col in range(cols):
        # find a row at or below pivot_row with a nonzero entry in col
        nonzero = [r for r in range(pivot_row, rows) if H[r][col]]
        if not nonzero:
            continue
        # euclidean elimination within the column
        while True:
            nonzero = [r for r in range(pivot_row, rows) if H[r][col]]
            if len(nonzero) <= 1:
                break
            nonzero.sort(key=lambda r: abs(H[r][col]))
            small, other = nonzero[0], nonzero[1]
            f = H[other][col] // H[small][col]
            for c in range(cols):
                H[other][c] -= f * H[small][c]
            for c in range(rows):
                U[other][c] -= f * U[small][c]
        r = [r for r in range(pivot_row, rows) if H[r][col]][0]
        H[pivot_row], H[r] = H[r], H[pivot_row]
        U[pivot_row], U[r] = U[r], U[pivot_row]
        if H[pivot_row][col] < 0:
            H[pivot_row] = [-x for x in H[pivot_row]]
            U[pivot_row] = [-x for x in U[pivot_row]]
        p = H[pivot_row][col]
        for r in range(pivot_row):
            f = H[r][col] // p
            if f:
                for c in range(cols):
                    H[r][c] -= f * H[pivot_row][c]
                for c in range(rows):
                    U[r][c] -= f * U[pivot_row][c]
        pivot_row += 1
        if pivot_row == rows:
            break
    return H, U


def row_space_basis(rows):
    """Canonical basis (HNF, no zero rows) of the lattice spanned by rows."""
    if not rows:
        return []
    H, _ = hermite_normal_form(rows)
    return [r for r in H if any(r)]


def _transpose(M):
    return [list(col) for col in zip(*M)]


def integer_kernel(A, n_cols=None):
    """Basis of {x in Z^n : A x = 0} (x as row vectors of length n).

    A maps Z^n -> Z^m with rows of length n; an empty A needs n_cols.
    """
    if not A:
        if n_cols is None:
            raise ValueError("need n_cols for an empty matrix")
        return [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]
    # left-kernel rows of A's transpose are kernel vectors of A
    H, U = hermite_normal_form(_transpose(A))
    return [list(U[i]) for i in range(len(A[0])) if not any(H[i])]


def smith_invariant_factors(A):
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Alternates the row HNF of M and of its transpose until no off-diagonal
    entry is left (Kannan and Bachem).  This terminates: from the second
    pass on, the top-left pivot is a positive integer that never grows, as
    each pass replaces it by the gcd of its column (or row).  It shrinks
    unless it divides that column, and once it divides its row and column
    they are cleared and stay cleared, so the passes go on in the
    lower-right block alone.  The diagonal is then brought into a
    divisibility chain by gcd/lcm swaps, which keep Z/a + Z/b fixed.
    """
    M = A
    while any(v for i, row in enumerate(M) for j, v in enumerate(row) if i != j):
        M = _transpose(row_space_basis(M))
    factors = [abs(row[i]) for i, row in enumerate(M) if i < len(row) and row[i]]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
    return factors


def lattice_contains(basis_rows, vector):
    """Whether vector is an integer combination of basis_rows."""
    return lattices_equal([*basis_rows, list(vector)], basis_rows)


def lattices_equal(rows_a, rows_b):
    return row_space_basis(rows_a) == row_space_basis(rows_b)
