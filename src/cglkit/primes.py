"""Homogeneous prime elements of the nested subalgebra chain.

Implements the level function eta with its predecessor/successor statistics,
the recursively built elements y_k (y_k = y_{p(k)} x_k - c_k when delta_k is
nonzero, else y_k = x_k), the commutation matrices alpha and q, the embedded
quantum affine space check, the prime-generator set P_x, bicharacter radicals
with saturation, and the center lattice of the associated quantum torus.

Each c_k has a closed form.  Write x_k r = sigma_k(r) x_k + delta_k(r) for
r below x_k.  If y = y_j x_k - c is normal, y x_k = gamma_k x_k y, then
sigma_k(y_j) = s_j y_j with gamma_k = 1/s_j, and c has the character of y_j
x_k, so sigma_k(c) = s_j lambda_k c with lambda_k = chi_k(h_k).  The x_k^1
coefficients of the normality condition give (lambda_k - 1) c = gamma_k
delta_k(y_j), so c = delta_k(y_j) / (s_j (lambda_k - 1)); CGL axiom (iii)
says lambda_k is not a root of unity.  No linear system is posed: y is built
from this c and checked directly on every x_i, i <= k, unless one product
refuses it when delta_k(y_j) = 0.  The commutation facts these products prove
are kept with the table, for the Nakayama certificate to read.

All indices are 0-based in code; reports and CLI output are 1-based.  The
sentinels -infinity (for predecessors) and +infinity (for successors) are
represented by None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm, prod
from operator import mul

from .errors import (
    AmbiguousPredecessor,
    InternalInconsistency,
    NoGradingDefined,
    NoPredecessorSolution,
)
from .lattice import (
    integer_kernel,
    lattice_contains,
    row_space_basis,
    smith_invariant_factors,
)
from .pbw import PBWPolynomial
from .reporting import ValidationReport
from .scalars import _power_product


@dataclass
class EtaData:
    """Level function and chain statistics of the y-element recursion."""

    eta: list
    pred: list
    succ: list
    ominus: list
    oplus: list

    def finals(self):
        """Indices with no successor; their y's are the primes of the full algebra."""
        return [k for k, s in enumerate(self.succ) if s is None]

    def to_json_dict(self):
        return {
            "eta": list(self.eta),
            "pred": [("-inf" if v is None else v + 1) for v in self.pred],
            "succ": [("+inf" if v is None else v + 1) for v in self.succ],
            "O_minus": list(self.ominus),
            "O_plus": list(self.oplus),
        }


@dataclass
class YElementTable:
    y: list
    c: dict
    alpha: list
    qmat: list
    eta_data: EtaData
    characters: list = field(default_factory=list)
    # facts x_i y_l = s y_l x_i proved by the recursion, {(i, l): (y_l, s)};
    # read only when the table is P._y_table
    ledger: dict = field(default_factory=dict, repr=False, compare=False)

    def finals(self):
        return self.eta_data.finals()

    def to_json_dict(self, P):
        return {
            "y": [P.format(p) for p in self.y],
            "c": {str(k + 1): P.format(p) for k, p in sorted(self.c.items())},
            "eta_data": self.eta_data.to_json_dict(),
            "alpha": [[str(v) for v in row] for row in self.alpha],
            "qmat": [[str(v) for v in row] for row in self.qmat],
            "finals": [k + 1 for k in self.finals()],
        }


def _chi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _monomials(P, degs, d, top, chi):
    """Exponent tuples over x_0..x_{top-1} of pi-degree d and character chi.

    A bounded knapsack over the pi-degree budget, finite because pi is
    positive on the generators; the tuples come in lexicographic order.  An
    empty chi imposes no character.  A branch is cut as soon as the
    remaining character is out of reach: with remaining degree r, the
    unplaced slots i can only add coordinate a in [r * min_i chi_i[a]/deg_i,
    r * max_i chi_i[a]/deg_i].  Both sides are scaled by L = lcm(deg_i) to
    stay in integers.
    """
    top = P.N if top is None else top
    rows = [P.torus.chi[i][: len(chi)] for i in range(top)]
    L = lcm(*degs[:top])
    rates = [[c * (L // degs[i]) for c in row] for i, row in enumerate(rows)]
    # lo[s], hi[s]: per-coordinate min and max rate over the slots s..top-1
    lo, hi = rates[:], rates[:]
    for s in reversed(range(top - 1)):
        lo[s] = list(map(min, rates[s], lo[s + 1]))
        hi[s] = list(map(max, rates[s], hi[s + 1]))
    out = []
    acc = [0] * P.N

    def rec(slot, remaining_chi, remaining_deg):
        if remaining_deg == 0:
            if not any(remaining_chi):
                out.append(tuple(acc))
            return
        if slot == top or any(
            v * L < remaining_deg * a or v * L > remaining_deg * b
            for v, a, b in zip(remaining_chi, lo[slot], hi[slot])
        ):
            return
        step = degs[slot]
        for e in range(remaining_deg // step + 1):
            acc[slot] = e
            rec(
                slot + 1,
                tuple(r - e * c for r, c in zip(remaining_chi, rows[slot])),
                remaining_deg - e * step,
            )
        acc[slot] = 0

    rec(0, chi, d)
    return out


def monomials_with_character(P, chi, top=None):
    """Exponent tuples over x_0..x_{top-1} whose character is chi."""
    degs = P.generator_degrees()
    if degs is None:
        raise NoGradingDefined("character components need the positive grading pi")
    budget = sum(p * c for p, c in zip(P.torus.pi, chi))
    return _monomials(P, degs, budget, top, chi)


def monomials_of_degree(P, d, top=None):
    """Exponent tuples over x_0..x_{top-1} of pi-degree exactly d."""
    degs = P.generator_degrees()
    if degs is None:
        raise NoGradingDefined("graded components need the positive grading pi")
    return _monomials(P, degs, d, top, ())


def _failing_normality(P, p, scalars, indices):
    """Yield each i of indices, in order, with p x_i != scalars[i] x_i p; each
    check is the two products p x_i and x_i p."""
    for i in indices:
        x = P.x(i)
        if P.mul(p, x) != P.mul(x, p).scale(scalars[i]):
            yield i


def _solve_predecessor(P, y_j, chain_j, k, target_chi, ledger):
    """The normal y = y_j x_k - c in the prefix subalgebra, as (y, c), or None.

    On a monomial m below x_k, sigma_k(m) = mu_m m with mu_m = prod_i
    lambda_{k i}^{m_i}.  y_j has the character of its chain, so
    sigma_k(y_j) = s_j y_j with s_j = prod of lambda_{k c} over chain_j, and
    the x_k condition y x_k = gamma_k x_k y has gamma_k = 1/s_j.  Its x_k^1
    coefficient reads (mu_m - s_j) c_m = Delta_m for every monomial m, where
    Delta = delta_k(y_j) = x_k y_j - sigma_k(y_j) x_k = x_k y_j - s_j (y_j x_k),
    so y_j x_k is made once, for Delta and for y.  By axiom (iii)
    mu_m = s_j lambda_k on the target character, lambda_k = chi_k(h_k) not a
    root of unity, so c = Delta / (s_j (lambda_k - 1)).

    c is formed term by term on the support of Delta.  Each divisor
    mu_m - s_j is a difference of two signed monomials, by which ``scalars``
    divides a Laurent Delta_m without a GCD; a zero mu_m - s_j makes the x_k
    row inconsistent, and there is no c.

    Delta = 0 proves x_k y_j = s_j y_j x_k; then c = 0 and y = y_j x_k.  In
    y x_i = y_j (lambda_ki x_i x_k + Q_ki), i < k, only the branch y_j Q_ki
    of x_i's first move, past x_k, has no x_k, and every term of
    x_i y = (x_i y_j) x_k keeps it.  So the x_k^0 part of y x_i - gamma_i x_i y
    is y_j Q_ki, and a nonzero one at the least i with Q_ki != 0 proves y
    not normal: None, without the normality row.

    Otherwise y is checked directly, y x_i = gamma_i x_i y for i = 0..k with
    gamma_i the product of lambda_{u i} over the chain [k] + chain_j, so no
    verdict rests on the formula.  Only once y passes are the monomials of
    the target character listed: a c outside their span gives None, and one
    of them outside the support of Delta with mu_m = s_j is left free by the
    x_k row, which raises AmbiguousPredecessor.

    Each fact x_i y_l = s y_l x_i that these products prove is kept as
    ledger[i, l] = (y_l, s): (k, j) when Delta = 0, (i, k), i <= k, for y.
    """
    s_j = prod((P.lam[k][u] for u in chain_j), start=P.unit)
    lead = P.mul(y_j, P.x(k))
    terms = {}
    for m, coeff in (P.mul(P.x(k), y_j) - lead.scale(s_j)).terms.items():
        mu = _power_product(P.space, P.lam[k], m)
        if mu == s_j:
            return None
        terms[m] = coeff / (mu - s_j)
    if not terms:
        ledger[k, chain_j[0]] = (y_j, s_j)
        i = next((i for i in range(k) if (k, i) in P.Q), None)
        if i is not None and not P.mul(y_j, P.Q[k, i]).is_zero:
            return None
    c = PBWPolynomial(P.space, P.N, terms)
    y = lead - c
    gammas = [prod((P.lam[u][i] for u in chain_j), start=P.lam[k][i]) for i in range(k + 1)]
    if next(_failing_normality(P, y, gammas, range(k + 1)), None) is not None:
        return None
    basis = set(monomials_with_character(P, target_chi, top=k))
    if not basis.issuperset(terms):
        return None
    if any(_power_product(P.space, P.lam[k], m) == s_j for m in basis.difference(terms)):
        raise AmbiguousPredecessor(f"the x_{k + 1} row leaves c free at k = {k + 1}")
    ledger.update(((i, k), (y, gamma.inverse())) for i, gamma in enumerate(gammas))
    return y, c


def compute_y_elements(P) -> YElementTable:
    """Run the y-element recursion and assemble the full table.

    The result is cached on the presentation until ``_set_Q`` replaces its
    Q-data; presentations are otherwise treated as immutable after
    construction.
    """
    if P._y_table is not None:
        return P._y_table
    if P.generator_degrees() is None:
        raise NoGradingDefined("the y-element search needs the positive grading pi")
    N = P.N
    y = []
    y_chi = []
    pred = []
    succ = [None] * N
    c_map = {}
    ledger = {}
    for k in range(N):
        if not any((k, j) in P.Q for j in range(k)):
            # with no Q_ki, the rewrite rule proves x_i x_k = lambda_ki^-1 x_k x_i
            facts = [P.lam[k][i].inverse() for i in range(k)] + [P.unit]
            ledger.update(((i, k), (P.x(k), s)) for i, s in enumerate(facts))
            y.append(P.x(k))
            y_chi.append(tuple(P.torus.chi[k]))
            pred.append(None)
            continue
        hits = []
        for j in range(k):
            if succ[j] is not None:
                continue
            chain_j = [j]
            while pred[chain_j[-1]] is not None:
                chain_j.append(pred[chain_j[-1]])
            target_chi = _chi_add(y_chi[j], P.torus.chi[k])
            solved = _solve_predecessor(P, y[j], chain_j, k, target_chi, ledger)
            if solved is not None:
                hits.append((j, solved))
        if not hits:
            raise NoPredecessorSolution(
                f"no currently-final y_j admits a normal y_j x_{k + 1} - c"
            )
        if len(hits) > 1:
            raise AmbiguousPredecessor(
                f"predecessors {[j + 1 for j, _ in hits]} all admit solutions "
                f"at k = {k + 1}"
            )
        j, (y_k, c_map[k]) = hits[0]
        pred.append(j)
        succ[j] = k
        y.append(y_k)
        y_chi.append(_chi_add(y_chi[j], P.torus.chi[k]))

    eta = [0] * N
    ominus = [0] * N
    label = 0
    for k in range(N):
        if pred[k] is None:
            eta[k] = label
            label += 1
        else:
            eta[k] = eta[pred[k]]
            ominus[k] = ominus[pred[k]] + 1
    oplus = [0] * N
    for k in reversed(range(N)):
        if succ[k] is not None:
            oplus[k] = oplus[succ[k]] + 1
    eta_data = EtaData(eta=eta, pred=pred, succ=succ, ominus=ominus, oplus=oplus)

    # chain_k = [k] + chain_p(k), so each entry is one product with an
    # earlier one: alpha[j][k] = lambda_jk alpha[j][p(k)] over chain_k, and
    # qmat[k][j] = alpha[k][j] qmat[p(k)][j] over chain_k x chain_j
    alpha = []
    for lam_j in P.lam:
        row = []
        for k, p in enumerate(pred):
            row.append(lam_j[k] if p is None else lam_j[k] * row[p])
        alpha.append(row)
    qmat = []
    for k, p in enumerate(pred):
        qmat.append(list(alpha[k]) if p is None else list(map(mul, alpha[k], qmat[p])))

    table = YElementTable(
        y=y, c=c_map, alpha=alpha, qmat=qmat, eta_data=eta_data, characters=y_chi, ledger=ledger
    )
    P._y_table = table
    return table


def rank_of(P, T: YElementTable) -> int:
    """Rank of the algebra, cross-checked three ways.

    The number of zero delta-columns, the number of successor-free indices,
    and the number of eta-levels must agree.
    """
    a = sum(1 for v in T.eta_data.pred if v is None)
    b = sum(1 for v in T.eta_data.succ if v is None)
    c = len(set(T.eta_data.eta))
    if not (a == b == c):
        raise InternalInconsistency(f"rank formulas disagree: {a}, {b}, {c}")
    return a


def compute_P_x(P, T: YElementTable):
    """0-based indices i with x_i prime, via singleton eta-levels.

    Cross-checked against the direct condition: no Q-data involves x_i as an
    endpoint (Q_{ki} = 0 for k > i and Q_{ij} = 0 for j < i).
    """
    ed = T.eta_data
    by_level = {i: ed.pred[i] is None and ed.succ[i] is None for i in range(P.N)}
    a_set = {i for i, flag in by_level.items() if flag}
    c_set = {
        i
        for i in range(P.N)
        if not any((k, i) in P.Q for k in range(i + 1, P.N))
        and not any((i, j) in P.Q for j in range(i))
    }
    if a_set != c_set:
        raise InternalInconsistency(
            f"eta-level criterion {sorted(a_set)} disagrees with the "
            f"Q-support criterion {sorted(c_set)}"
        )
    return sorted(a_set)


def verify_quantum_affine(P, T: YElementTable) -> ValidationReport:
    """Check y_k y_j = q_kj y_j y_k symbolically for every pair."""
    report = ValidationReport(subject=f"quantum affine relations for {P.name or 'presentation'}")
    bad = []
    for k in range(P.N):
        for j in range(k):
            lhs = P.mul(T.y[k], T.y[j])
            rhs = P.mul(T.y[j], T.y[k]).scale(T.qmat[k][j])
            if lhs != rhs:
                bad.append((k + 1, j + 1))
    report.check("y_k y_j = q_kj y_j y_k for all pairs", bad, "failing pairs")
    return report


# -- bicharacter lattices --


@dataclass
class LatticeDescription:
    """Sublattice of Z^n given by a canonical (Hermite-form) row basis."""

    n: int
    basis: list

    @property
    def rank(self):
        return len(self.basis)

    def contains(self, vector):
        return lattice_contains(self.basis, vector)

    def to_json_dict(self):
        return {"n": self.n, "basis": [list(r) for r in self.basis]}


def _log_data(M):
    """Split a multiplicatively skew-symmetric matrix into sign and exponent rows."""
    N = len(M)
    sign_rows = []
    exp_rows = []
    m = M[0][0].space.m if N else 0
    for i in range(N):
        logs = [M[i][j].monomial_log() for j in range(N)]
        sign_rows.append([s for s, _ in logs])
        for a in range(m):
            exp_rows.append([v[a] for _, v in logs])
    return exp_rows, sign_rows, N


def bicharacter_radical(M) -> LatticeDescription:
    """Radical of the bicharacter e_i, e_j -> M[i][j] on Z^N.

    f is in the radical iff prod_j M[i][j]^{f_j} = 1 for every i: the
    exponent rows must vanish over Z and the sign rows mod 2.  The parity
    constraints are absorbed by the doubling trick: take the integer kernel
    of [[A, 0], [S, -2I]] and project to the f-block (the projection is an
    isomorphism since the auxiliary block is determined by f).
    """
    exp_rows, sign_rows, N = _log_data(M)
    big = [row + [0] * N for row in exp_rows]
    for i, row in enumerate(sign_rows):
        big.append(row + [-2 if j == i else 0 for j in range(N)])
    kernel = integer_kernel(big, n_cols=2 * N)
    return LatticeDescription(N, row_space_basis([vec[:N] for vec in kernel]))


def saturation_closure(M) -> LatticeDescription:
    """Saturation of the radical: the kernel of the exponent rows alone.

    The radical has index a power of 2 in this kernel (2f satisfies every
    parity constraint), and a kernel sublattice is saturated in Z^N, so this
    is exactly {f : nf in rad for some n > 0}.
    """
    exp_rows, _, N = _log_data(M)
    return LatticeDescription(N, row_space_basis(integer_kernel(exp_rows, n_cols=N)))


def is_saturated(M) -> bool:
    """Whether Z^N modulo the radical of the bicharacter is torsionfree.

    Z^N / L is Z^(N-r) plus the sum of the Z/d_i over the Smith invariant
    factors d_i of a basis of L, so it is torsionfree when every d_i is 1;
    equivalently, the radical equals its saturation.
    """
    return all(d == 1 for d in smith_invariant_factors(bicharacter_radical(M).basis))


@dataclass
class CenterLattice:
    """Exponent lattice of central y-monomials in the quantum torus."""

    lattice: LatticeDescription
    nonnegative: list

    def to_json_dict(self):
        return {
            "basis": [list(r) for r in self.lattice.basis],
            "all_nonnegative": list(self.nonnegative),
        }


def torus_center_basis(P, T: YElementTable) -> CenterLattice:
    """Basis of {f : y^f is central in the quantum torus on the y's}.

    Basis vectors with all-nonnegative entries give central elements of the
    affine algebra itself; each vector is flagged accordingly.
    """
    rad = bicharacter_radical(T.qmat)
    flags = [all(v >= 0 for v in row) for row in rad.basis]
    return CenterLattice(rad, flags)
