"""Endomorphism auditing: relation checks, unipotence, graded factorization."""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import pbw
from .errors import (
    MultiParameterUnsupported,
    NoGradingDefined,
    NotFiltered,
    SingularDegreeZeroPart,
)
from .linalg import solve_in_span
from .pbw import PBWPolynomial, apply_endomorphism
from .presentation import CGLPresentation
from .primes import monomials_of_degree
from .reporting import ValidationReport
from .scalars import LaurentFraction


@dataclass
class EndomorphismSpec:
    """Generator images defining a candidate algebra endomorphism."""

    images: list

    @classmethod
    def identity(cls, P: CGLPresentation) -> "EndomorphismSpec":
        return cls([P.x(i) for i in range(P.N)])

    @classmethod
    def from_json_dict(cls, data, P: CGLPresentation) -> "EndomorphismSpec":
        images = [P.parse(text) for text in data["images"]]
        if len(images) != P.N:
            raise ValueError(f"expected {P.N} images, got {len(images)}")
        return cls(images)

    def to_json_dict(self, P: CGLPresentation):
        return {"images": [P.format(img) for img in self.images]}

    def __eq__(self, other):
        if not isinstance(other, EndomorphismSpec):
            return NotImplemented
        return self.images == other.images

    __hash__ = None


def compose(P: CGLPresentation, f: EndomorphismSpec, g: EndomorphismSpec) -> EndomorphismSpec:
    """(f o g)(x_i) = f(g(x_i))."""
    return EndomorphismSpec([apply_endomorphism(f.images, img, P) for img in g.images])


def verify_endomorphism(P: CGLPresentation, e: EndomorphismSpec) -> ValidationReport:
    """Check that the images satisfy every defining relation."""
    report = ValidationReport(subject=f"endomorphism on {P.name or 'presentation'}")
    bad = []
    for k in range(P.N):
        for j in range(k):
            lhs = P.mul(e.images[k], e.images[j])
            rhs = P.mul(e.images[j], e.images[k]).scale(P.lam_fraction(k, j))
            q_poly = P.Q.get((k, j))
            if q_poly is not None:
                rhs = rhs + apply_endomorphism(e.images, q_poly, P)
            if lhs != rhs:
                bad.append((k + 1, j + 1))
    report.check(
        "images satisfy x_k x_j = lambda_kj x_j x_k + Q_kj for all pairs",
        bad,
        "failing pairs",
    )
    return report


def is_unipotent(P: CGLPresentation, e: EndomorphismSpec) -> bool:
    """Whether every psi(x_i) - x_i sits strictly above the degree of x_i."""
    degs = P.generator_degrees()
    if degs is None:
        raise NoGradingDefined("unipotence needs the positive grading (pi)")
    for i, img in enumerate(e.images):
        diff = img - P.x(i)
        if diff.is_zero:
            continue
        if pbw.min_degree(diff, P) <= degs[i]:
            return False
    return True


def check_unipotent_structure(P, T, D, e: EndomorphismSpec) -> ValidationReport:
    """Audit a unipotent map against the frame/core shape.

    Expects identity on the core generators and, for each frame generator i,
    a higher-degree correction a_i that is normal with the commutation
    scalars of x_i.  D is a CoreDecomposition.
    """
    from .primes import is_saturated

    report = ValidationReport(subject=f"unipotent structure on {P.name or 'presentation'}")
    if not is_saturated(P.lam):
        report.warn(
            "commutation subgroup is not saturated; the structure constraints are advisory"
        )
    degs = P.generator_degrees()
    if degs is None:
        raise NoGradingDefined("structure audit needs the positive grading (pi)")
    bad_core = [k + 1 for k in D.C_x if e.images[k] != P.x(k)]
    report.check("identity on the core generators", bad_core, "moved generators")
    for i in D.F_x:
        a = e.images[i] - P.x(i)
        if a.is_zero:
            continue
        report.add(
            f"correction of x_{i + 1} lies strictly above degree {degs[i]}",
            pbw.min_degree(a, P) > degs[i],
        )
        bad_j = [
            j + 1
            for j in range(P.N)
            if P.mul(a, P.x(j)) != P.mul(P.x(j), a).scale(P.lam_fraction(i, j))
        ]
        report.check(
            f"correction of x_{i + 1} is normal with the scalars of x_{i + 1}",
            bad_j,
            "failing j",
        )
        chi = pbw.homogeneous_character(a, P)
        if chi != tuple(P.torus.chi[i]):
            report.warn(
                f"correction of x_{i + 1} is not homogeneous of the generator character"
            )
    return report


def degree_zero_component(P: CGLPresentation, e: EndomorphismSpec):
    """Split a filtered endomorphism as (graded part, unipotent complement).

    Returns (psi0, uni, report) with psi = psi0 o uni formally.  psi0 keeps
    the lowest graded component of each image; uni = psi0^{-1} o psi.  The
    report carries relation preservation of psi0, unipotence of the
    complement, and the certification verdict.  Raises NotFiltered when an
    image dips below its generator degree and SingularDegreeZeroPart when
    psi0 is not invertible on some graded component.
    """
    degs = P.generator_degrees()
    if degs is None:
        raise NoGradingDefined("the graded split needs the positive grading (pi)")
    for i, img in enumerate(e.images):
        if img.is_zero:
            continue
        if pbw.min_degree(img, P) < degs[i]:
            raise NotFiltered(
                f"image of x_{i + 1} has a component below degree {degs[i]}"
            )
    zero_poly = PBWPolynomial.zero(P.space, P.N)
    psi0 = EndomorphismSpec(
        [
            pbw.graded_split(img, P).get(degs[i], zero_poly)
            for i, img in enumerate(e.images)
        ]
    )
    report = ValidationReport(subject=f"graded factorization on {P.name or 'presentation'}")
    rep0 = verify_endomorphism(P, psi0)
    report.add(
        "degree-zero part preserves the relations",
        rep0.passed,
        "" if rep0.passed else "; ".join(c.detail for c in rep0.failures()),
    )
    inv_images = [None] * P.N
    for d in sorted(set(degs)):
        basis = monomials_of_degree(P, d)
        columns = [
            apply_endomorphism(psi0.images, PBWPolynomial(P.space, P.N, {m: 1}), P).terms
            for m in basis
        ]
        for i in range(P.N):
            if degs[i] != d:
                continue
            sol = solve_in_span(columns, P.x(i).terms, P.space)
            if sol is None or sol[1]:
                raise SingularDegreeZeroPart(
                    f"degree-zero part is singular on the degree {d} component"
                )
            terms = {m: c for m, c in zip(basis, sol[0]) if not c.is_zero}
            inv_images[i] = PBWPolynomial(P.space, P.N, terms)
    inv0 = EndomorphismSpec(inv_images)
    uni = compose(P, inv0, e)
    uni_ok = is_unipotent(P, uni)
    report.add("complement psi0^-1 o psi is unipotent", uni_ok)
    if rep0.passed and uni_ok:
        report.add(
            "automorphism certified: graded bijection composed with a unipotent map",
            True,
        )
    else:
        report.warn("endomorphism audit only; bijectivity not certified")
    return psi0, uni, report


def centralizer_eigenspace_dim(P: CGLPresentation, v, s: int, within=None) -> int:
    """dim of {w in the span : v w = q^s w v}.

    The span defaults to the generators.  Single-parameter presentations
    only, since the eigenvalue is a power of q.
    """
    if P.space.m != 1:
        raise MultiParameterUnsupported(
            "centralizer eigenspaces are computed against powers of q only"
        )
    if within is not None:
        basis = list(within)
    else:
        degs = P.generator_degrees()
        if degs is None:
            basis = [P.x(i) for i in range(P.N)]
        else:
            basis = [P.x(i) for i in range(P.N) if degs[i] == 1]
    q = LaurentFraction.parameter(P.space, P.space.names[0])
    factor = q ** s
    columns = [(P.mul(v, w) - P.mul(w, v).scale(factor)).terms for w in basis]
    return len(solve_in_span(columns, {}, P.space)[1])


def random_unipotent_search(
    P: CGLPresentation, samples: int = 500, seed: int = 0, max_degree: int = 4
):
    """Randomized hunt for nontrivial unipotent endomorphisms.

    Perturbs one generator by a random monomial of strictly larger degree
    with coefficient in {1, q, 1/q} and keeps the specs that pass the
    relation check.  Returns (hits, tested).
    """
    rng = random.Random(seed)
    degs = P.generator_degrees()
    if degs is None:
        raise NoGradingDefined("the search needs the positive grading (pi)")
    pool = {d: monomials_of_degree(P, d) for d in range(1, max_degree + 1)}
    q = LaurentFraction.parameter(P.space, P.space.names[0])
    coeffs = [LaurentFraction.one(P.space), q, q.inverse()]
    hits = []
    tested = 0
    for _ in range(samples):
        i = rng.randrange(P.N)
        lo = degs[i] + 1
        choices = [m for d in range(lo, max_degree + 1) for m in pool[d]]
        if not choices:
            continue
        mono = rng.choice(choices)
        coeff = coeffs[rng.randrange(len(coeffs))]
        images = [P.x(t) for t in range(P.N)]
        images[i] = images[i] + PBWPolynomial(P.space, P.N, {mono: coeff})
        e = EndomorphismSpec(images)
        tested += 1
        if verify_endomorphism(P, e).passed and is_unipotent(P, e):
            hits.append(e)
    return hits, tested
