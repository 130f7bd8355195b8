"""Exact linear algebra over the scalar field (LaurentFraction entries).

Callers that hold term dicts pose their systems through ``solve_in_span``:
the columns and the target are sparse vectors {row key: scalar}, and the
rows of the system are the sorted union of their keys.  It builds the rows
and solves them with ``solve_affine``.

One sparse Gauss-Jordan routine, ``_rref``, serves ``solve_affine``,
``nullspace`` and ``rank``.  Rows are dicts {column: entry} without zero
entries, so elimination touches only nonzeros.  Pivots are chosen for cost:
in each column the pivot is a Laurent polynomial before a quotient, then the
entry with the fewest terms, then the row with the fewest nonzeros, then the
lowest row index.  Inverting a non-unit makes a quotient, and every later
update with a quotient pays a polynomial GCD, so cheap pivots keep the sparse,
Laurent-valued systems of the y-element search cheap.

The pivot choice cannot change a result: the reduced row echelon form of a
matrix is unique, so the solutions, nullspace bases and ranks are the same
field elements whatever pivots were taken.  Scalars are stored reduced, so
equal results also print identically (below the GCD cap of ``scalars``).
"""

from __future__ import annotations

from itertools import chain

from .scalars import LaurentFraction


def _sparse(row):
    return {j: x for j, x in enumerate(row) if not x.is_zero}


def _pivot_cost(row, c, index):
    x = row[c]
    return (not x.is_laurent, len(x.num) + len(x.den), len(row), index)


def _rref(rows, width):
    """Reduce sparse rows to reduced row echelon form, in place.

    ``rows`` is a list of dicts {column: nonzero entry}, columns below
    ``width``.  Returns the pivots as (column, row) pairs in column order.
    A pivot row's entry in its own column is 1 and is not stored; no other
    row keeps an entry in a pivot column.
    """
    pending = dict(enumerate(rows))
    pivots = []
    for c in range(width):
        found = [i for i, row in pending.items() if c in row]
        if not found:
            continue
        prow = pending.pop(min(found, key=lambda i: _pivot_cost(pending[i], c, i)))
        inv = prow.pop(c).inverse()
        for j in prow:
            prow[j] = prow[j] * inv
        for row in chain(pending.values(), (r for _, r in pivots)):
            f = row.pop(c, None)
            if f is None:
                continue
            for j, y in prow.items():
                x = row.get(j)
                new = -(f * y) if x is None else x - f * y
                if new.is_zero:
                    del row[j]
                else:
                    row[j] = new
        pivots.append((c, prow))
        if not pending:
            break
    return pivots


def solve_affine(A, b, space):
    """All solutions of A t = b.

    Returns (particular, nullspace_basis) with vectors as lists of
    LaurentFraction, or None when inconsistent.  A is a list of rows; the
    number of unknowns is inferred from the row length.  The particular
    solution is zero at the free unknowns.
    """
    if not A:
        return [], []
    n = len(A[0])
    # eliminate over [A | b]: a pivot in column n means 0 = nonzero
    pivots = _rref([_sparse(list(row) + [bv]) for row, bv in zip(A, b)], n + 1)
    if pivots and pivots[-1][0] == n:
        return None
    return _solution(pivots, n, space)


def _solution(pivots, n, space):
    """(particular, nullspace_basis) of a reduced consistent system over n unknowns."""
    zero = LaurentFraction.zero(space)
    particular = [zero] * n
    for c, row in pivots:
        particular[c] = row.get(n, zero)
    pivot_columns = {c for c, _ in pivots}
    basis = []
    for fc in range(n):
        if fc in pivot_columns:
            continue
        vec = [zero] * n
        vec[fc] = LaurentFraction.one(space)
        for c, row in pivots:
            if fc in row:
                vec[c] = -row[fc]
        basis.append(vec)
    return particular, basis


def solve_in_span(columns, target, space):
    """All t with sum(t[j] * columns[j]) = target.

    Columns and target are sparse vectors, dicts {row key: scalar} with
    sortable keys; the rows of the system are the sorted union of the keys.
    Returns (particular, nullspace_basis) as ``solve_affine`` does, or None
    when the target lies outside the span.  There are len(columns) unknowns,
    all of them free when no row is left.
    """
    keys = sorted(set(target).union(*columns))
    if not keys:
        return _solution([], len(columns), space)
    zero = LaurentFraction.zero(space)
    rows = [[col.get(key, zero) for col in columns] for key in keys]
    return solve_affine(rows, [target.get(key, zero) for key in keys], space)


def nullspace(A, space, n=None):
    if not A:
        if n is None:
            raise ValueError("need the number of unknowns for an empty system")
        return _solution([], n, space)[1]
    return solve_affine(A, [LaurentFraction.zero(space)] * len(A), space)[1]


def rank(A, space):
    if not A:
        return 0
    return len(_rref([_sparse(row) for row in A], len(A[0])))
