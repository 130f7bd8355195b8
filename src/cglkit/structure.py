"""Nakayama automorphism computation and the core decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import InternalInconsistency, MissingHStar
from .lattice import row_space_basis
from .pbw import PBWPolynomial, _scale_diagonally
from .presentation import CGLPresentation, _reorder, _require_reversible, validate_symmetric
from .primes import YElementTable, _failing_normality, compute_P_x
from .reporting import ValidationReport
from .scalars import SignedMonomial, _power_product


@dataclass
class DiagonalMap:
    """x_k -> mu_k x_k for invertible scalars mu_k."""

    eigenvalues: list

    def apply(self, p: PBWPolynomial) -> PBWPolynomial:
        return _scale_diagonally(p, self.eigenvalues)

    def as_spec(self, P):
        from .automorphisms import EndomorphismSpec

        return EndomorphismSpec(
            [P.x(i).scale(self.eigenvalues[i].to_fraction()) for i in range(P.N)]
        )

    def inverse(self) -> "DiagonalMap":
        return DiagonalMap([v.inverse() for v in self.eigenvalues])

    def compose(self, other: "DiagonalMap") -> "DiagonalMap":
        return DiagonalMap([a * b for a, b in zip(self.eigenvalues, other.eigenvalues)])

    @property
    def is_identity(self) -> bool:
        return all(v.is_one for v in self.eigenvalues)

    def to_json_dict(self):
        return {"eigenvalues": [str(v) for v in self.eigenvalues]}


def check_diagonal_automorphism(P: CGLPresentation, d: DiagonalMap) -> bool:
    """Whether x_i -> mu_i x_i preserves every defining relation.

    Equivalent to each Q_{kj} being an eigenvector of the diagonal scaling
    with eigenvalue mu_k mu_j.
    """
    for (k, j), poly in P.Q.items():
        want = d.eigenvalues[k] * d.eigenvalues[j]
        for mono in poly.terms:
            if _power_product(P.space, d.eigenvalues, mono) != want:
                return False
    return True


def diagonal_constraint_rank(P: CGLPresentation) -> int:
    """Dimension of the torus of diagonal maps preserving the relations.

    Each monomial e of each Q_{kj} forces mu^(e - e_k - e_j) = 1; the
    solution torus has dimension N minus the rank of the constraint lattice.
    """
    rows = []
    for (k, j), poly in P.Q.items():
        for mono in poly.terms:
            rows.append(
                [
                    mono[i] - (1 if i == k else 0) - (1 if i == j else 0)
                    for i in range(P.N)
                ]
            )
    if not rows:
        return P.N
    return P.N - len(row_space_basis(rows))


def nakayama_automorphism(P: CGLPresentation) -> DiagonalMap:
    """The diagonal map x_k -> (prod_j lambda_kj) x_k.

    Requires every Q_{kj} to be supported strictly between its endpoints
    (the reversibility condition); the result is asserted to preserve the
    relations.
    """
    _require_reversible(P)
    one = SignedMonomial.one(P.space)
    nu = DiagonalMap([prod(P.lam[k], start=one) for k in range(P.N)])
    if not check_diagonal_automorphism(P, nu):
        raise InternalInconsistency("Nakayama eigenvalues fail relation preservation")
    return nu


def verify_nakayama_by_normal_element(
    P: CGLPresentation, T: YElementTable, nu: DiagonalMap
) -> ValidationReport:
    """Realize nu by conjugation: x_k u = u nu(x_k) for u the product of primes.

    u = y_{l1}...y_{lr} is the ordered product of the final y's (increasing
    index), and beta_k is the product of alpha_{k,l} over the final l.  Each
    final y_l is normal on its own, x_k y_l = alpha_{k,l} y_l x_k, and scalars
    are central, so these r factor identities give x_k u = beta_k u x_k; when
    they hold and beta_k = nu_k, x_k u = u nu(x_k) is proved without u.  A
    factor identity that the y-element recursion's own products proved for
    this y_l and this alpha_{k,l} is read from its ledger when T is the table
    the recursion cached on P; every other one is multiplied out.  Any other
    k is decided on u itself, built only when such a k is left, so every
    failure rests on the full product.  Separately checks the scalar identity
    beta_k = prod_j lambda_kj, that is beta_k = nu_k.
    """
    if len(nu.eigenvalues) != P.N:
        raise ValueError(f"expected {P.N} eigenvalues, got {len(nu.eigenvalues)}")
    if len(T.y) != P.N:
        raise ValueError(f"expected {P.N} y-elements, got {len(T.y)}")
    report = ValidationReport(subject=f"Nakayama via normal element for {P.name or 'presentation'}")
    finals = T.finals()
    one = SignedMonomial.one(P.space)
    betas = [prod((T.alpha[k][l] for l in finals), start=one) for k in range(P.N)]
    ledger = T.ledger if P._y_table is T else {}
    factored = [k for k in range(P.N) if betas[k] == nu.eigenvalues[k]]
    for l in finals:
        facts = [ledger.get((k, l), (None, None)) for k in factored]
        open_k = [k for k, (y, s) in zip(factored, facts) if y is not T.y[l] or s != T.alpha[k][l]]
        inverses = [row[l].inverse() for row in T.alpha]
        failed = set(_failing_normality(P, T.y[l], inverses, open_k))
        factored = [k for k in factored if k not in failed]
    rest = sorted(set(range(P.N)).difference(factored))
    bad = []
    if rest:
        u = P.one()
        for l in finals:
            u = P.mul(u, T.y[l])
        # x_k u = nu_k u x_k, read as u x_k = nu_k^-1 x_k u
        inverses = {k: nu.eigenvalues[k].inverse() for k in rest}
        bad = [k + 1 for k in _failing_normality(P, u, inverses, rest)]
    report.check("x_k u = u nu(x_k) for every generator", bad, "failing k")
    bad_beta = [k + 1 for k in range(P.N) if betas[k] != nu.eigenvalues[k]]
    report.check("beta_k = prod_j lambda_kj for every generator", bad_beta, "failing k")
    return report


@dataclass
class CoreDecomposition:
    """Split of the generators into frame (F_x) and core (C_x) parts.

    The core presentation lives on the C_x generators; frame_lambda carries
    the commutation scalars within F_x and smash_scalars the action of the
    frame on the core.
    """

    P_x: list
    F_x: list
    C_x: list
    core: CGLPresentation
    frame_lambda: list
    smash_scalars: dict
    core_report: ValidationReport

    def to_json_dict(self):
        return {
            "P_x": [i + 1 for i in self.P_x],
            "F_x": [i + 1 for i in self.F_x],
            "C_x": [i + 1 for i in self.C_x],
            "core": self.core.to_json_dict(),
            "frame_lambda": [[str(v) for v in row] for row in self.frame_lambda],
            "smash_scalars": {
                f"{i + 1},{k + 1}": str(v) for (i, k), v in sorted(self.smash_scalars.items())
            },
            "core_report": self.core_report.to_dict(),
        }


def core_decomposition(P: CGLPresentation, T: YElementTable) -> CoreDecomposition:
    """Compute P_x, F_x, C_x and the induced core presentation.

    F_x collects the prime generators that are absent from every Q_{kj} with
    both endpoints outside P_x; the core is the restriction to the
    complement, which by construction contains all such Q-data.  It is P
    reordered onto the increasing list C_x, with the h- and h*-families of
    its generators.
    """
    if P.torus.h_star is None:
        raise MissingHStar("the core decomposition applies to symmetric presentations")
    p_set = compute_P_x(P, T)
    p_lookup = set(p_set)
    essential = [
        poly
        for (k, j), poly in P.Q.items()
        if k not in p_lookup and j not in p_lookup
    ]
    f_set = [
        i
        for i in p_set
        if all(all(mono[i] == 0 for mono in poly.terms) for poly in essential)
    ]
    f_lookup = set(f_set)
    c_set = [i for i in range(P.N) if i not in f_lookup]
    for (k, j), poly in P.Q.items():
        if k not in f_lookup and j not in f_lookup and poly.support() & f_lookup:
            raise InternalInconsistency(f"Q[{k + 1},{j + 1}] leaks outside the core generators")
    core = _reorder(
        P,
        c_set,
        [P.torus.h[g] for g in c_set],
        [P.torus.h_star[g] for g in c_set],
        f"{P.name}|core" if P.name else None,
    )
    core_report = validate_symmetric(core)
    frame = [[P.lam[i][j] for j in f_set] for i in f_set]
    smash = {(i, k): P.lam[i][k] for i in f_set for k in c_set}
    return CoreDecomposition(
        P_x=p_set,
        F_x=f_set,
        C_x=c_set,
        core=core,
        frame_lambda=frame,
        smash_scalars=smash,
        core_report=core_report,
    )
