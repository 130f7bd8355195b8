"""Presentation data for iterated skew polynomial algebras with torus action.

A presentation holds, for generators x_1..x_N (0-based indices in code):

* the multiplicatively skew-symmetric commutation matrix ``lam`` of
  SignedMonomials (x_k x_j = lam_{kj} x_j x_k + Q_{kj} for k > j),
* the lower-order terms ``Q`` as PBW polynomials supported below k,
* rational torus data: characters chi_i of the generators, covering torus
  elements h_k (and optionally h*_j for the reversed order), and an optional
  positive grading functional pi.

Validators return ValidationReports instead of raising so that broken input
can be diagnosed; structural impossibilities (shape mismatches, Q escaping
its prefix subalgebra) raise MalformedPresentation at construction.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from . import pbw
from .errors import (
    DivergenceBudgetExceeded,
    MalformedPresentation,
    MissingHStar,
    NotInXi,
    NotReversible,
)
from .lattice import integer_kernel
from .pbw import PBWPolynomial
from .reporting import ValidationReport
from .scalars import LaurentFraction, ParameterSpace, SignedMonomial, _power_product

_GEN_RE = re.compile(r"x([1-9][0-9]*)\Z")


def _integer(value, name, nonnegative=False) -> int:
    # int() would truncate 2.5 and accept true; bool is an int subclass
    if not isinstance(value, int) or isinstance(value, bool) or (nonnegative and value < 0):
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise MalformedPresentation(f"{name} must be {kind}")
    return value


@dataclass
class TorusData:
    """Rational torus (K^x)^rank acting diagonally on the generators."""

    rank: int
    chi: list  # N tuples of ints, length rank
    h: list  # N tuples of SignedMonomial, length rank
    h_star: list | None = None
    pi: tuple | None = None


class CGLPresentation:
    """Presentation of an iterated skew polynomial algebra over Q(params)."""

    def __init__(self, space, N, lam, Q, torus, name=None, aliases=None, fuel_factor=8):
        self.space = space
        self.N = N
        self.lam = [list(row) for row in lam]
        self.torus = torus
        self.name = name
        self.aliases = dict(aliases) if aliases else {}
        self.fuel_factor = fuel_factor
        self.file_issues: list[str] = []
        if len(self.lam) != N or any(len(row) != N for row in self.lam):
            raise MalformedPresentation(f"lambda must be {N}x{N}")
        if len(torus.chi) != N or len(torus.h) != N:
            raise MalformedPresentation("torus chi/h must have one row per generator")
        for row in torus.chi:
            if len(row) != torus.rank:
                raise MalformedPresentation("chi rows must have length torus.rank")
        for row in torus.h:
            if len(row) != torus.rank:
                raise MalformedPresentation("h rows must have length torus.rank")
        if torus.h_star is not None:
            if len(torus.h_star) != N or any(len(r) != torus.rank for r in torus.h_star):
                raise MalformedPresentation("h_star rows must be N x rank")
        if torus.pi is not None and len(torus.pi) != torus.rank:
            raise MalformedPresentation("pi must have length torus.rank")
        self._set_Q(Q)
        self._lam_frac = {}
        self._degrees = -1  # sentinel: not computed
        # built once and shared: PBW values are immutable by convention
        self.unit = LaurentFraction.one(space)
        self._generators = [
            PBWPolynomial(space, N, {tuple(int(j == i) for j in range(N)): self.unit})
            for i in range(N)
        ]

    def _set_Q(self, Q):
        """Check and attach the Q-data, and empty the caches that depend on it."""
        self.Q = {}
        for (k, j), poly in Q.items():
            if not (0 <= j < k < self.N):
                raise MalformedPresentation(f"Q index {(k + 1, j + 1)} out of range")
            if poly is None or poly.is_zero:
                continue
            if not pbw.supported_below(poly, k):
                raise MalformedPresentation(
                    f"Q[{k + 1},{j + 1}] must lie in the subalgebra on x1..x{k}"
                )
            self.Q[(k, j)] = poly
        self._qhat = {}
        self.pair_cache = {}
        self._y_table = None  # compute_y_elements caches its table here

    # -- construction helpers --

    @classmethod
    def build(cls, space, N, lower, Q, torus, name=None, aliases=None, fuel_factor=8):
        """Build from the strict lower triangle {(k, j): SignedMonomial}, k > j."""
        one = SignedMonomial.one(space)
        lam = [[one for _ in range(N)] for _ in range(N)]
        for (k, j), value in lower.items():
            if not (0 <= j < k < N):
                raise MalformedPresentation(f"lambda index {(k, j)} not strictly lower")
            lam[k][j] = value
            lam[j][k] = value.inverse()
        return cls(space, N, lam, Q, torus, name=name, aliases=aliases, fuel_factor=fuel_factor)

    # -- engine hooks --

    def lam_fraction(self, k, j) -> LaurentFraction:
        key = (k, j)
        out = self._lam_frac.get(key)
        if out is None:
            out = self.lam[k][j].to_fraction()
            self._lam_frac[key] = out
        return out

    def qhat(self, u, v):
        """Lower-order term of x_u x_v = lam_{uv} x_v x_u + Qhat for any u != v."""
        key = (u, v)
        if key in self._qhat:
            return self._qhat[key]
        if u > v:
            out = self.Q.get((u, v))
        else:
            base = self.Q.get((v, u))
            out = None if base is None else base.scale(-self.lam_fraction(u, v))
        self._qhat[key] = out
        return out

    def generator_degrees(self):
        """pi-degrees of the generators, or None when no valid grading."""
        if self._degrees == -1:
            degs = None
            if self.torus.pi is not None:
                degs = [
                    sum(p * c for p, c in zip(self.torus.pi, chi)) for chi in self.torus.chi
                ]
                if any(d <= 0 for d in degs):
                    degs = None
            self._degrees = degs
        return self._degrees

    # -- conveniences --

    def x(self, i) -> PBWPolynomial:
        """x_i (0-based i); the same object on every call."""
        if not 0 <= i < self.N:
            raise ValueError(f"generator index {i} out of range for N={self.N}")
        return self._generators[i]

    def one(self) -> PBWPolynomial:
        return PBWPolynomial.constant(self.space, self.N, 1)

    def scalar(self, value) -> LaurentFraction:
        if isinstance(value, LaurentFraction):
            return value
        if isinstance(value, SignedMonomial):
            return value.to_fraction()
        if isinstance(value, str):
            from .parsing import parse_scalar

            return parse_scalar(value, self.space)
        return LaurentFraction.from_rational(self.space, value)

    def mul(self, p, r) -> PBWPolynomial:
        return pbw.multiply(p, r, self)

    def parse(self, src, normalize=True) -> PBWPolynomial:
        from .parsing import parse_poly

        return parse_poly(src, self, normalize=normalize)

    def format(self, p) -> str:
        from .parsing import format_poly

        return format_poly(p, names=self.generator_names(), degrees=self.generator_degrees())

    def generator_index(self, name):
        """0-based index for 'x<k>' or a registered alias; None when unknown."""
        match = _GEN_RE.match(name)
        if match:
            k = int(match.group(1))
            if 1 <= k <= self.N:
                return k - 1
            return None
        return self.aliases.get(name)

    def generator_names(self):
        return [f"x{i + 1}" for i in range(self.N)]

    def sigma(self, k, p) -> PBWPolynomial:
        """sigma_k = (h_k .) restricted to PBW polynomials (scales monomials)."""
        return pbw._scale_diagonally(p, self.lam[k])

    def delta(self, k, p) -> PBWPolynomial:
        """delta_k(p) = x_k p - sigma_k(p) x_k for p supported below k."""
        xk = self.x(k)
        return self.mul(xk, p) - self.mul(self.sigma(k, p), xk)

    def __eq__(self, other):
        if not isinstance(other, CGLPresentation):
            return NotImplemented
        if (self.space, self.N) != (other.space, other.N):
            return False
        for k in range(self.N):
            for j in range(self.N):
                if self.lam[k][j] != other.lam[k][j]:
                    return False
        if set(self.Q) != set(other.Q):
            return False
        if any(self.Q[key] != other.Q[key] for key in self.Q):
            return False
        t, u = self.torus, other.torus
        if (t.rank, list(map(tuple, t.chi)), t.pi) != (u.rank, list(map(tuple, u.chi)), u.pi):
            return False
        if [tuple(r) for r in t.h] != [tuple(r) for r in u.h]:
            return False
        hs_t = None if t.h_star is None else [tuple(r) for r in t.h_star]
        hs_u = None if u.h_star is None else [tuple(r) for r in u.h_star]
        return hs_t == hs_u

    __hash__ = None

    def __repr__(self):
        label = self.name or "presentation"
        return f"<CGLPresentation {label}: N={self.N}, params={self.space.names}>"

    # -- JSON --

    def to_json_dict(self):
        q_obj = {f"{k + 1},{j + 1}": self.format(self.Q[(k, j)]) for (k, j) in sorted(self.Q)}
        torus_obj = {
            "rank": self.torus.rank,
            "chi": [list(row) for row in self.torus.chi],
            "h": [[str(v) for v in row] for row in self.torus.h],
        }
        if self.torus.h_star is not None:
            torus_obj["h_star"] = [[str(v) for v in row] for row in self.torus.h_star]
        if self.torus.pi is not None:
            torus_obj["pi"] = list(self.torus.pi)
        return {
            "name": self.name or "",
            "params": list(self.space.names),
            "N": self.N,
            "lambda": [[str(v) for v in row] for row in self.lam],
            "Q": q_obj,
            "torus": torus_obj,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data, fuel_factor=8):
        from .parsing import parse_scalar

        try:
            names = tuple(data["params"])
            N = _integer(data["N"], "N", nonnegative=True)
            lam_rows = [list(row) for row in data["lambda"]]
            q_items = list(data.get("Q", {}).items())
            torus_obj = data["torus"]
            rank = _integer(torus_obj["rank"], "torus.rank", nonnegative=True)
            chi = [tuple(_integer(c, "chi entry") for c in row) for row in torus_obj["chi"]]
            h_rows = [list(row) for row in torus_obj["h"]]
            h_star_rows = None
            if "h_star" in torus_obj:
                h_star_rows = [list(row) for row in torus_obj["h_star"]]
            pi = None
            if "pi" in torus_obj:
                pi = tuple(_integer(v, "pi entry") for v in torus_obj["pi"])
            space = ParameterSpace(names)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedPresentation(f"missing or malformed field: {exc}") from exc
        if len(lam_rows) != N or any(len(r) != N for r in lam_rows):
            raise MalformedPresentation(f"lambda must be {N}x{N}")

        def scalar_mono(text):
            return parse_scalar(str(text), space).as_monomial()

        # only the strict lower triangle is read; the rest is derived, and any
        # disagreement with the file is recorded for the validator to report
        lower = {}
        for k in range(N):
            for j in range(k):
                lower[(k, j)] = scalar_mono(lam_rows[k][j])
        issues = []
        one = SignedMonomial.one(space)
        for k in range(N):
            diag = scalar_mono(lam_rows[k][k])
            if diag != one:
                issues.append(f"lambda[{k + 1}][{k + 1}] = {lam_rows[k][k]} is not 1")
            for j in range(k + 1, N):
                upper = scalar_mono(lam_rows[k][j])
                if upper != lower[(j, k)].inverse():
                    issues.append(
                        f"lambda[{k + 1}][{j + 1}] is not the inverse of "
                        f"lambda[{j + 1}][{k + 1}]"
                    )

        h = [tuple(scalar_mono(v) for v in row) for row in h_rows]
        h_star = None
        if h_star_rows is not None:
            h_star = [tuple(scalar_mono(v) for v in row) for row in h_star_rows]
        torus = TorusData(rank=rank, chi=chi, h=h, h_star=h_star, pi=pi)

        # the Q text is parsed against the presentation it becomes part of
        out = cls.build(
            space, N, lower, {}, torus, name=data.get("name") or None, fuel_factor=fuel_factor
        )
        Q = {}
        for key, text in q_items:
            try:
                k_s, j_s = key.split(",")
                k, j = int(k_s) - 1, int(j_s) - 1
            except ValueError as exc:
                raise MalformedPresentation(f"bad Q key {key!r}") from exc
            if not (0 <= j < k < N):
                raise MalformedPresentation(f"Q key {key!r} is not strictly lower")
            Q[(k, j)] = out.parse(str(text), normalize=False)
        out._set_Q(Q)
        out.file_issues = issues
        return out

    @classmethod
    def from_json(cls, text, fuel_factor=8):
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedPresentation(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data, fuel_factor=fuel_factor)


# -- validators --


def validate_cgl(P: CGLPresentation) -> ValidationReport:
    """Check the defining axioms on the given presentation data.

    Covered: well-formedness of lambda, Q confined to prefix subalgebras and
    chi-homogeneous of the right character, pairwise consistency of the
    rewriting data (associativity on generator triples), local nilpotency of
    each delta_k, and the covering-torus conditions
    chi_{x_j}(h_k) = lambda_{kj} with lambda_k no root of unity.

    Consistency is proved from the overlap triples a > b > c alone, by the
    diamond lemma (Bergman 1978).  The rules x_a x_b -> lambda_{ab} x_b x_a
    + Q_{ab} (a > b) terminate under this order on words: compare the
    multisets of letters under the multiset extension of the generator
    order, then the numbers of inversions.  A swap keeps the multiset and
    removes one inversion; a term of Q_{ab} replaces {a, b} by letters below
    a (``_set_Q`` rejects any other Q), so its multiset is smaller.  The
    order is well founded and compatible with concatenation for every
    presentation.  The left sides x_a x_b are distinct words of length 2, so
    the only ambiguities are the overlaps x_a x_b x_c with a > b > c.  Once
    (x_a x_b) x_c = x_a (x_b x_c) on each of them, every word has one normal
    form, and the product is associative on all N^3 triples.  When an overlap
    fails or exhausts the fuel, the sweep over all N^3 triples runs instead:
    it reports its first five failing triples, or the exception it raises.
    """
    report = ValidationReport(subject=f"CGL axioms for {P.name or 'presentation'}")
    one = SignedMonomial.one(P.space)
    if P.file_issues:
        report.add("lambda matrix as loaded", False, "; ".join(P.file_issues))
    ok = all(P.lam[k][k] == one for k in range(P.N))
    detail = "" if ok else "diagonal entries must equal 1"
    bad_skew = [
        (k + 1, j + 1)
        for k in range(P.N)
        for j in range(k)
        if not (P.lam[k][j] * P.lam[j][k]).is_one
    ]
    report.add("lambda diagonal", ok, detail)
    report.check("lambda multiplicative skew-symmetry", bad_skew, "failing pairs")

    bad_support = [
        (k + 1, j + 1) for (k, j), poly in P.Q.items() if not pbw.supported_below(poly, k)
    ]
    report.check("Q confined to prefix subalgebras", bad_support, "failing pairs")

    bad_char = []
    for (k, j), poly in P.Q.items():
        want = tuple(a + b for a, b in zip(P.torus.chi[k], P.torus.chi[j]))
        got = pbw.homogeneous_character(poly, P)
        if got != want:
            bad_char.append((k + 1, j + 1))
    report.check("Q homogeneous of character chi_k + chi_j", bad_char, "failing pairs")

    check_torus_covering(P, report)

    # axiom (ii): local nilpotency of delta_k, bounded iteration
    degs = P.generator_degrees()
    nil_fail = []
    for k in range(P.N):
        if not any((k, j) in P.Q for j in range(k)):
            continue
        for j in range(k):
            if degs is not None:
                cap = degs[j] // min(degs) + P.N
            else:
                cap = 2 * P.N + 2
            value = P.Q.get((k, j))
            if value is None:
                continue
            steps = 1
            try:
                while not value.is_zero and steps <= cap:
                    if not pbw.supported_below(value, k):
                        break
                    value = P.delta(k, value)
                    steps += 1
                if not value.is_zero:
                    nil_fail.append((k + 1, j + 1))
            except DivergenceBudgetExceeded:
                nil_fail.append((k + 1, j + 1))
    report.check("axiom (ii): each delta_k locally nilpotent", nil_fail, "failing (k, j)")

    # consistency of the rewriting data, proved from the overlaps (see above)
    try:
        resolved = next(_failing_triples(P, overlaps_only=True), None) is None
    except DivergenceBudgetExceeded:
        resolved = False
    try:
        assoc_fail = [] if resolved else list(_failing_triples(P, overlaps_only=False))
    except DivergenceBudgetExceeded as exc:
        report.add("rewriting consistency on generator triples", False, str(exc))
    else:
        report.check(
            "rewriting consistency on generator triples",
            assoc_fail[:5],
            "failing triples",
        )
    return report


def check_torus_covering(P: CGLPresentation, report: ValidationReport) -> ValidationReport:
    """Add the axiom (iii) checks to ``report`` and return it.

    The torus covers each sigma_k, chi_{x_j}(h_k) = lambda_{kj} for j < k, and
    the weight lambda_k = chi_{x_k}(h_k) is not a root of unity.
    """
    bad_eig, bad_root = _covering_failures(P, P.torus.h, lambda k: range(k))
    report.check("axiom (iii): chi_{x_j}(h_k) = lambda_{kj}", bad_eig, "failing (k, j)")
    return report.check(
        "axiom (iii): lambda_k = chi_{x_k}(h_k) not a root of unity",
        bad_root,
        "failing k",
    )


def _covering_failures(P: CGLPresentation, family, others):
    """The failing pairs and the failing weights of a torus family, 1-based.

    (i, o) with o in ``others(i)`` fails when chi_{x_o}(family[i]) != lambda_{io},
    and i fails when chi_{x_i}(family[i]) is a root of unity.
    """
    bad_eig = []
    bad_root = []
    for i in range(P.N):
        t = family[i]
        for o in others(i):
            if _power_product(P.space, t, P.torus.chi[o]) != P.lam[i][o]:
                bad_eig.append((i + 1, o + 1))
        if _power_product(P.space, t, P.torus.chi[i]).is_root_of_unity():
            bad_root.append(i + 1)
    return bad_eig, bad_root


def _failing_triples(P: CGLPresentation, overlaps_only):
    """Yield each (a, b, c), 1-based, with (x_a x_b) x_c != x_a (x_b x_c).

    Triples come in increasing (a, b, c) order, over all of them or over the
    overlaps a > b > c alone; each x_b x_c is made once and reused.
    """
    bc_products = {}
    for a in range(P.N):
        xa = P.x(a)
        for b in range(1, a) if overlaps_only else range(P.N):
            ab = P.mul(xa, P.x(b))
            for c in range(b) if overlaps_only else range(P.N):
                left = P.mul(ab, P.x(c))
                bc = bc_products.get((b, c))
                if bc is None:
                    bc = bc_products[(b, c)] = P.mul(P.x(b), P.x(c))
                if left != P.mul(xa, bc):
                    yield a + 1, b + 1, c + 1


def validate_symmetric(P: CGLPresentation) -> ValidationReport:
    """Check the symmetric-presentation conditions (two-sided CGL structure).

    Raises MissingHStar when no h*-family is present.
    """
    if P.torus.h_star is None:
        raise MissingHStar("presentation carries no h*-data")
    report = ValidationReport(subject=f"symmetric conditions for {P.name or 'presentation'}")
    bad_support = [(k + 1, j + 1) for k, j in _q_not_between(P)]
    report.check("Q supported strictly between j and k", bad_support, "failing pairs")
    bad_eig, bad_root = _covering_failures(P, P.torus.h_star, lambda j: range(j + 1, P.N))
    report.check("h*: chi_{x_k}(h*_j) = lambda_{jk}", bad_eig, "failing (j, k)")
    report.check("h*: weight chi_{x_j}(h*_j) not a root of unity", bad_root, "failing j")
    return report


def _q_not_between(P: CGLPresentation):
    """Yield each (k, j) whose Q_{kj} is not supported strictly between x_j and x_k."""
    for (k, j), poly in P.Q.items():
        if any(i <= j or i >= k for i in poly.support()):
            yield k, j


def _require_reversible(P: CGLPresentation):
    """Raise NotReversible unless every Q_{kj} lies strictly between x_j and x_k."""
    for k, j in _q_not_between(P):
        raise NotReversible(
            f"Q[{k + 1},{j + 1}] is not supported strictly between the endpoints"
        )


def is_symmetric(P: CGLPresentation) -> bool:
    try:
        return validate_symmetric(P).passed
    except MissingHStar:
        return False


# -- torsion of the commutation subgroup --


def is_torsionfree(P: CGLPresentation) -> bool:
    """Whether the subgroup of K^x generated by the lambda_{kj} is torsionfree.

    Under monomial_log the subgroup lives in Z/2 x Z^m; it has torsion exactly
    when -1 (sign bit 1, zero exponents) is an integer combination of the
    generators.  Decided by an integer kernel plus a parity check.
    """
    logs = [P.lam[k][j].monomial_log() for k in range(P.N) for j in range(k)]
    signs = [s for s, _ in logs]
    rows = [[v[i] for _, v in logs] for i in range(P.space.m)]
    kernel = integer_kernel(rows, n_cols=len(logs))
    for vec in kernel:
        if sum(n * s for n, s in zip(vec, signs)) % 2:
            return False
    return True


# -- admissible permutations --


def is_interval_permutation(tau) -> bool:
    """True when every prefix image tau([0, k]) is an integer interval."""
    N = len(tau)
    if sorted(tau) != list(range(N)):
        return False
    lo = hi = tau[0]
    for value in tau[1:]:
        if value == hi + 1:
            hi = value
        elif value == lo - 1:
            lo = value
        else:
            return False
    return True


def sample_interval_permutation(N, rng):
    """Uniform sample over the 2^(N-1) admissible permutations."""
    bits = [rng.randint(0, 1) for _ in range(N - 1)]
    start = sum(bits)  # number of descending steps determines tau(0)
    tau = [start]
    lo = hi = start
    for b in bits:
        if b:
            lo -= 1
            tau.append(lo)
        else:
            hi += 1
            tau.append(hi)
    return tau


def _reorder(P: CGLPresentation, tau, h, h_star, name) -> CGLPresentation:
    """The algebra of P presented on x_{tau(0)}, x_{tau(1)}, ...

    tau lists distinct generators of P: a permutation of all of them, or an
    increasing subset on whose letters every Q_{kj} with k and j in tau lies,
    as for the core.  lambda and chi are restricted to tau and permuted;
    Q-data is recomputed by normalizing Qhat_{tau(a) tau(b)} into the new
    generator order.  Rewriting uses only P's own pair data (via qhat), so no
    permuted data is needed.  The caller supplies the covering families h and
    h_star in the new order.
    """
    N = len(tau)
    positions = {g: a for a, g in enumerate(tau)}
    lower = {(a, b): P.lam[tau[a]][tau[b]] for a in range(N) for b in range(a)}
    torus = TorusData(
        rank=P.torus.rank,
        chi=[P.torus.chi[g] for g in tau],
        h=h,
        h_star=h_star,
        pi=P.torus.pi,
    )
    Q = {}
    for a in range(N):
        for b in range(a):
            qhat = P.qhat(tau[a], tau[b])
            if qhat is None:
                continue
            items = [(c, pbw.word_of_monomial(m)) for m, c in qhat.terms.items()]
            converted = pbw.normalize_words(P, items, order_positions=positions)
            if not converted.is_zero:
                Q[(a, b)] = converted
    return CGLPresentation.build(
        P.space, N, lower, Q, torus, name=name, fuel_factor=P.fuel_factor
    )


def permute_presentation(P: CGLPresentation, tau) -> CGLPresentation:
    """Present the same algebra with generators x_{tau(0)}, x_{tau(1)}, ...

    tau must be admissible (prefix images are intervals; NotInXi otherwise).
    Covering h-elements come from h on ascending steps and h* on descending
    steps (MissingHStar when h* is needed but absent).  Q-data is recomputed
    by normalization in the original algebra.  h*-data is carried over only
    for the identity; use reverse_presentation for the full flip.
    """
    tau = list(tau)
    if len(tau) != P.N or not is_interval_permutation(tau):
        raise NotInXi(f"{tau} does not have interval prefixes")
    new_h = [P.torus.h[tau[0]]]
    hi = tau[0]
    for a in range(1, P.N):
        g = tau[a]
        if g == hi + 1:
            hi = g
            new_h.append(P.torus.h[g])
        elif P.torus.h_star is None:
            raise MissingHStar(f"descending step at position {a + 1} needs h*-data")
        else:
            new_h.append(P.torus.h_star[g])
    h_star = P.torus.h_star if tau == sorted(tau) else None
    return _reorder(P, tau, new_h, h_star, f"{P.name}^tau" if P.name else None)


def reverse_presentation(P: CGLPresentation) -> CGLPresentation:
    """The same algebra presented on x_N, ..., x_1.

    Requires each Q_{kj} to be supported strictly between j and k
    (NotReversible otherwise) and an h*-family (MissingHStar), which becomes
    the h-family of the reversed presentation while h turns into its h*.
    """
    _require_reversible(P)
    if P.torus.h_star is None:
        raise MissingHStar("reversal needs h*-data for the reversed covering torus")
    tau = list(reversed(range(P.N)))
    name = None
    if P.name:
        name = P.name[:-4] if P.name.endswith("^rev") else P.name + "^rev"
    return _reorder(P, tau, [P.torus.h_star[g] for g in tau], [P.torus.h[g] for g in tau], name)
