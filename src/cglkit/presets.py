"""Built-in example presentations.

Catalog (CLI spec strings in parentheses):

* quantum affine space with a common commutation scalar
  (``quantum-affine:N:scalar``),
* quantized t x n matrices, single parameter (``oq-matrices:t,n``),
* multiparameter quantized n x n matrices over Q(lam, p_rs)
  (``multiparam-matrices:n``),
* the positive part of the quantized enveloping algebra of sl_3 presented on
  root vectors E1, E12, E2 (``uq-sl3``); its lambda/Q data, the classical
  reduction of the Serre relations, is written as constants,
* a (-1)-twisted quantum plane (``quantum-plane-minus-one``), the standard
  unsaturated example; it carries no h*-data.
"""

from __future__ import annotations

import re

from .errors import UnknownPreset
from .pbw import PBWPolynomial
from .presentation import CGLPresentation, TorusData
from .scalars import ParameterSpace, SignedMonomial


def quantum_affine(N, lam="q"):
    """x_k x_j = lam * x_j x_k for k > j, over Q(q)."""
    space = ParameterSpace(("q",))
    if isinstance(lam, SignedMonomial):
        lam_mono = lam
        lam_text = str(lam)
    else:
        from .parsing import parse_scalar

        lam_text = str(lam)
        lam_mono = parse_scalar(lam_text, space).as_monomial()
    q = SignedMonomial.parameter(space, "q")
    one = SignedMonomial.one(space)
    lower = {(k, j): lam_mono for k in range(N) for j in range(k)}
    chi = [tuple(1 if a == i else 0 for a in range(N)) for i in range(N)]
    h = [
        tuple(lam_mono if a < k else (q if a == k else one) for a in range(N))
        for k in range(N)
    ]
    lam_inv = lam_mono.inverse()
    h_star = [
        tuple(lam_inv if a > j else (q if a == j else one) for a in range(N))
        for j in range(N)
    ]
    torus = TorusData(rank=N, chi=chi, h=h, h_star=h_star, pi=(1,) * N)
    return CGLPresentation.build(
        space, N, lower, {}, torus, name=f"quantum-affine:{N}:{lam_text}"
    )


def oq_matrices(t, n):
    """Single-parameter quantized t x n matrices, generators in row-major order.

    x_{(i-1)n+j} is the matrix entry X_ij.  Entries in a common row or column
    q^(-1)-commute (earlier entry to the right of the product); NW/SE pairs
    commute up to the correction -(q - q^-1) X_im X_lj; NE/SW pairs commute.
    """
    space = ParameterSpace(("q",))
    q = SignedMonomial.parameter(space, "q")
    qinv = q.inverse()
    one = SignedMonomial.one(space)
    N = t * n
    qq = q.to_fraction() - qinv.to_fraction()
    lower = {}
    Q = {}
    for k in range(N):
        i, a = divmod(k, n)
        for jdx in range(k):
            l, b = divmod(jdx, n)
            if l == i or b == a:
                lower[(k, jdx)] = qinv
            elif b < a:
                lower[(k, jdx)] = one
                exps = [0] * N
                exps[l * n + a] += 1
                exps[i * n + b] += 1
                Q[(k, jdx)] = PBWPolynomial(space, N, {tuple(exps): -qq})
            else:
                lower[(k, jdx)] = one
    rank = t + n
    chi = []
    h = []
    h_star = []
    for k in range(N):
        i, a = divmod(k, n)
        chi.append(tuple(1 if (s == i or s == t + a) else 0 for s in range(rank)))
        h.append(tuple(qinv if (s == i or s == t + a) else one for s in range(rank)))
        h_star.append(tuple(q if (s == i or s == t + a) else one for s in range(rank)))
    torus = TorusData(rank=rank, chi=chi, h=h, h_star=h_star, pi=(1,) * t + (0,) * n)
    aliases = {f"X{i + 1}{a + 1}": i * n + a for i in range(t) for a in range(n)}
    return CGLPresentation.build(
        space, N, lower, Q, torus, name=f"oq-matrices:{t},{n}", aliases=aliases
    )


def multiparam_matrices(n):
    """Multiparameter quantized n x n matrices over Q(lam, p_rs), r < s.

    With k = X_lm later than j' = X_ij in row-major order, the commutation
    scalar of x_k x_j' is p_jm (same row), lam p_li (same column),
    lam p_li p_jm (NE/SW), and p_li p_jm with lower-order term
    (lam - 1) p_li X_im X_lj (NW/SE); p_sr denotes p_rs^(-1) and p_rr = 1.
    """
    names = ["lam"] + [f"p{r}{s}" for r in range(1, n + 1) for s in range(r + 1, n + 1)]
    space = ParameterSpace(tuple(names))
    one = SignedMonomial.one(space)
    lam = SignedMonomial.parameter(space, "lam")

    # p[r, s] = p_rs with 1-based subscripts; inverse pair below the diagonal
    p = {(r, r): one for r in range(1, n + 1)}
    for r in range(1, n + 1):
        for s in range(r + 1, n + 1):
            p[r, s] = SignedMonomial.parameter(space, f"p{r}{s}")
            p[s, r] = p[r, s].inverse()

    N = n * n
    lam_frac = lam.to_fraction()
    lower = {}
    Q = {}
    for k in range(N):
        lr, mc = divmod(k, n)
        for jdx in range(k):
            ir, jc = divmod(jdx, n)
            if lr == ir:
                lower[(k, jdx)] = p[jc + 1, mc + 1]
            elif mc == jc:
                lower[(k, jdx)] = lam * p[lr + 1, ir + 1]
            elif mc < jc:
                lower[(k, jdx)] = lam * p[lr + 1, ir + 1] * p[jc + 1, mc + 1]
            else:
                lower[(k, jdx)] = p[lr + 1, ir + 1] * p[jc + 1, mc + 1]
                exps = [0] * N
                exps[ir * n + mc] += 1
                exps[lr * n + jc] += 1
                coeff = (lam_frac - 1) * p[lr + 1, ir + 1].to_fraction()
                Q[(k, jdx)] = PBWPolynomial(space, N, {tuple(exps): coeff})
    rank = 2 * n
    chi = []
    h = []
    h_star = []
    for k in range(N):
        lr, mc = divmod(k, n)
        l1, m1 = lr + 1, mc + 1
        chi.append(tuple(1 if (s == lr or s == n + mc) else 0 for s in range(rank)))
        row = [p[l1, r] if r < l1 else one for r in range(1, n + 1)]
        row += [p[s, m1] * (lam if s >= m1 else one) for s in range(1, n + 1)]
        h.append(tuple(row))
        row = [p[l1, r] if r > l1 else one for r in range(1, n + 1)]
        row += [p[s, m1] * (lam.inverse() if m1 >= s else one) for s in range(1, n + 1)]
        h_star.append(tuple(row))
    torus = TorusData(rank=rank, chi=chi, h=h, h_star=h_star, pi=(1,) * n + (0,) * n)
    aliases = {f"X{l + 1}{m + 1}": l * n + m for l in range(n) for m in range(n)}
    return CGLPresentation.build(
        space, N, lower, Q, torus, name=f"multiparam-matrices:{n}", aliases=aliases
    )


def uq_plus_sl3():
    """Positive part of U_q(sl_3) on the root vectors E1, E12 = [E1,E2]_q, E2.

    Modulo the Serre relations, E12 E1 = q^-1 E1 E12, E2 E12 = q^-1 E12 E2
    and E2 E1 = q E1 E2 - q E12, so lambda_21 = q^-1, lambda_31 = q,
    lambda_32 = q^-1 and Q_31 = -q x2.  The test oracle
    ``test_sl3_relations_against_free_algebra`` (tests/test_presets.py)
    checks these constants against the Serre relations in the free algebra
    on E1, E2.
    """
    space = ParameterSpace(("q",))
    q = SignedMonomial.parameter(space, "q")
    one = SignedMonomial.one(space)
    qinv = q.inverse()
    lower = {(1, 0): qinv, (2, 0): q, (2, 1): qinv}
    Q = {(2, 0): PBWPolynomial(space, 3, {(0, 1, 0): -q.to_fraction()})}
    torus = TorusData(
        rank=2,
        chi=[(2, -1), (1, 1), (-1, 2)],
        h=[(q, one), (one, q), (one, qinv)],
        h_star=[(q, one), (q, q), (one, q)],
        pi=(1, 1),
    )
    aliases = {"E1": 0, "E12": 1, "E2": 2}
    return CGLPresentation.build(
        space, 3, lower, Q, torus, name="uq-sl3", aliases=aliases
    )


def quantum_plane_minus_one():
    """x_2 x_1 = -x_1 x_2 over Q(q); unsaturated, and no h*-data is provided."""
    space = ParameterSpace(("q",))
    q = SignedMonomial.parameter(space, "q")
    one = SignedMonomial.one(space)
    minus = SignedMonomial.minus_one(space)
    torus = TorusData(
        rank=2,
        chi=[(1, 0), (0, 1)],
        h=[(q, one), (minus, q)],
        h_star=None,
        pi=(1, 1),
    )
    return CGLPresentation.build(
        space, 2, {(1, 0): minus}, {}, torus, name="quantum-plane-minus-one"
    )


def _size(text):
    """A preset size argument, which must be a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise ValueError(f"size {text} must be a nonnegative integer")
    return value


def _build_quantum_affine(args):
    if not 1 <= len(args) <= 2:
        raise UnknownPreset("quantum-affine takes N and an optional scalar")
    return quantum_affine(_size(args[0]), args[1] if len(args) == 2 else "q")


def _build_oq(args):
    if len(args) != 2:
        raise UnknownPreset("oq-matrices takes t,n")
    return oq_matrices(_size(args[0]), _size(args[1]))


def _build_multiparam(args):
    if len(args) != 1:
        raise UnknownPreset("multiparam-matrices takes n")
    return multiparam_matrices(_size(args[0]))


def _no_args(factory, label):
    def build(args):
        if args:
            raise UnknownPreset(f"{label} takes no arguments")
        return factory()

    return build


CATALOG = {
    "quantum-affine": (_build_quantum_affine, "quantum-affine:N:scalar  (default scalar q)"),
    "oq-matrices": (_build_oq, "oq-matrices:t,n  quantized t x n matrices"),
    "multiparam-matrices": (
        _build_multiparam,
        "multiparam-matrices:n  multiparameter quantized n x n matrices",
    ),
    "uq-sl3": (_no_args(uq_plus_sl3, "uq-sl3"), "uq-sl3  positive part of U_q(sl_3)"),
    "quantum-plane-minus-one": (
        _no_args(quantum_plane_minus_one, "quantum-plane-minus-one"),
        "quantum-plane-minus-one  (-1)-twisted quantum plane",
    ),
}


def preset(name, args=()) -> CGLPresentation:
    entry = CATALOG.get(name)
    if entry is None:
        raise UnknownPreset(f"unknown preset {name!r}; try 'preset list'")
    try:
        return entry[0](list(args))
    except (ValueError, TypeError) as exc:
        raise UnknownPreset(f"bad arguments for preset {name}: {exc}") from exc


def parse_preset_spec(spec: str) -> CGLPresentation:
    """Build from a CLI string like 'oq-matrices:2,2' or 'quantum-affine:3:q'."""
    head, _, tail = spec.partition(":")
    args = [part for part in re.split(r"[:,]", tail) if part] if tail else []
    return preset(head, args)
