"""PBW-basis arithmetic for iterated skew polynomial presentations.

Elements are K-linear combinations of ordered monomials
x_1^{a_1} ... x_N^{a_N}, stored as dicts mapping exponent tuples to
``LaurentFraction`` coefficients.  Multiplication rewrites unordered words
with the presentation's commutation data

    x_k x_j  =  lambda_{kj} x_j x_k + Q_{kj}        (k > j)

choosing the leftmost adjacent descent each step (an alternative rightmost
strategy exists for confluence probes).  Termination is not assumed: every
normalization call runs under a fuel budget proportional to
(degree)^2 * N^2 and raises DivergenceBudgetExceeded when exhausted.

Generator indices are 0-based throughout the code; the 1-based names
x1..xN appear only in parsed/serialized text.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DivergenceBudgetExceeded,
    NoGradingDefined,
    NotHomogeneous,
    ZeroElement,
)
from .scalars import LaurentFraction, _power_product


class PBWPolynomial:
    """Sparse PBW polynomial: dict of exponent tuple -> LaurentFraction."""

    __slots__ = ("space", "N", "terms")

    def __init__(self, space, N, terms=None):
        self.space = space
        self.N = N
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != N or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono} for N={N}")
                if not isinstance(coeff, LaurentFraction):
                    coeff = LaurentFraction.from_rational(space, coeff)
                if not coeff.is_zero:
                    clean[mono] = coeff
        self.terms = clean

    # -- constructors --

    @classmethod
    def zero(cls, space, N):
        return cls(space, N)

    @classmethod
    def constant(cls, space, N, value):
        if not isinstance(value, LaurentFraction):
            value = LaurentFraction.from_rational(space, value)
        return cls(space, N, {(0,) * N: value})

    @classmethod
    def generator(cls, space, N, i):
        """x_i as a polynomial (0-based i)."""
        if not 0 <= i < N:
            raise ValueError(f"generator index {i} out of range for N={N}")
        mono = tuple(1 if j == i else 0 for j in range(N))
        return cls(space, N, {mono: LaurentFraction.one(space)})

    @classmethod
    def monomial(cls, space, N, exps, coeff=1):
        return cls(space, N, {tuple(exps): coeff})

    # -- basic structure --

    @property
    def is_zero(self):
        return not self.terms

    def support(self):
        """Set of 0-based generator indices occurring with positive exponent."""
        out = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    out.add(i)
        return out

    def as_constant(self):
        """The scalar value if this is a constant polynomial, else None."""
        if self.is_zero:
            return LaurentFraction.zero(self.space)
        if len(self.terms) == 1 and (0,) * self.N in self.terms:
            return self.terms[(0,) * self.N]
        return None

    # -- linear arithmetic (no presentation needed) --

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            _add_term(out, mono, coeff)
        return PBWPolynomial(self.space, self.N, out)

    __radd__ = __add__

    def __neg__(self):
        return PBWPolynomial(self.space, self.N, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, scalar):
        if not isinstance(scalar, LaurentFraction):
            scalar = LaurentFraction.from_rational(self.space, scalar)
        if scalar.is_zero:
            return PBWPolynomial.zero(self.space, self.N)
        return PBWPolynomial(
            self.space, self.N, {m: c * scalar for m, c in self.terms.items()}
        )

    def _coerce(self, other):
        if isinstance(other, PBWPolynomial):
            if other.N != self.N or other.space != self.space:
                raise ValueError("mixed presentations")
            return other
        if isinstance(other, (int, Fraction, LaurentFraction)):
            return PBWPolynomial.constant(self.space, self.N, other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[m] == other.terms[m] for m in self.terms)

    __hash__ = None

    def __str__(self):
        from .parsing import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"<PBWPolynomial {self}>"


def _add_term(out, mono, coeff):
    """Add coeff to the term dict entry out[mono], dropping it when the sum is 0."""
    if mono in out:
        coeff = out[mono] + coeff
    if coeff.is_zero:
        out.pop(mono, None)
    else:
        out[mono] = coeff


# -- words --


def word_of_monomial(mono):
    word = []
    for i, e in enumerate(mono):
        word.extend([i] * e)
    return word


def monomial_of_word(word, N, positions=None):
    exps = [0] * N
    if positions is None:
        for letter in word:
            exps[letter] += 1
    else:
        for letter in word:
            exps[positions[letter]] += 1
    return tuple(exps)


def _word_degree(P, word):
    degs = P.generator_degrees()
    if degs is not None:
        return sum(degs[i] for i in word)
    return len(word)


def _fuel_budget(P, word):
    d = _word_degree(P, word)
    return max(64, P.fuel_factor * (d + 1) * (d + 1) * max(1, P.N) * max(1, P.N))


def normalize_words(P, items, order_positions=None, strategy="leftmost", fuel=None):
    """Normalize scalar-weighted words into PBW form.

    ``items`` is a list of (LaurentFraction, list-of-letters) pairs; letters
    are 0-based generator indices of P.  ``order_positions`` maps each letter
    to its position in the target generator order (None = natural order); the
    returned polynomial's exponent slots are indexed by target position.
    Rewrites use P's pair data, extended to out-of-natural-order pairs via
    Qhat_{uv} = -lambda_{uv} Q_{vu} for u < v.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    pos = order_positions
    out = {}
    stack = [(c, list(w)) for c, w in items]
    if fuel is None:
        fuel = max((_fuel_budget(P, w) for _, w in stack), default=64)
    while stack:
        coeff, word = stack.pop()
        idx = _find_descent(word, pos, strategy)
        if idx is None:
            _add_term(out, monomial_of_word(word, P.N, pos), coeff)
            continue
        fuel -= 1
        if fuel < 0:
            raise DivergenceBudgetExceeded(
                f"fuel exhausted while normalizing a word of length {len(word)}"
            )
        u, v = word[idx], word[idx + 1]
        swapped = word[:idx] + [v, u] + word[idx + 2 :]
        stack.append((coeff * P.lam_fraction(u, v), swapped))
        qhat = P.qhat(u, v)
        if qhat is not None:
            head, tail = word[:idx], word[idx + 2 :]
            for mono, c in qhat.terms.items():
                stack.append((coeff * c, head + word_of_monomial(mono) + tail))
    return PBWPolynomial(P.space, P.N, out)


def _find_descent(word, pos, strategy):
    rng = range(len(word) - 1)
    if strategy == "rightmost":
        rng = reversed(rng)
    if pos is None:
        for i in rng:
            if word[i] > word[i + 1]:
                return i
    else:
        for i in rng:
            if pos[word[i]] > pos[word[i + 1]]:
                return i
    return None


# -- presentation-dependent operations --


def multiply(p, r, P, strategy="leftmost"):
    """Product p * r in PBW form.  Monomial pair products are memoized on P."""
    p = _as_poly(p, P)
    r = _as_poly(r, P)
    out = {}
    one = LaurentFraction.one(P.space)
    cache = P.pair_cache if strategy == "leftmost" else None
    for m1, c1 in p.terms.items():
        for m2, c2 in r.terms.items():
            key = (m1, m2)
            prod = cache.get(key) if cache is not None else None
            if prod is None:
                word = word_of_monomial(m1) + word_of_monomial(m2)
                prod = normalize_words(P, [(one, word)], strategy=strategy)
                if cache is not None:
                    cache[key] = prod
            scalar = c1 * c2
            for mono, c in prod.terms.items():
                _add_term(out, mono, c * scalar)
    return PBWPolynomial(P.space, P.N, out)


def power(p, k, P):
    if k < 0:
        raise ValueError("negative power of a PBW polynomial")
    result = PBWPolynomial.constant(P.space, P.N, 1)
    for _ in range(k):
        result = multiply(result, p, P)
    return result


def _as_poly(p, P):
    if isinstance(p, PBWPolynomial):
        if p.N != P.N:
            raise ValueError("polynomial does not match presentation size")
        return p
    return PBWPolynomial.constant(P.space, P.N, p)


def character_of(p, P):
    """Common torus character of all monomials of p, as a tuple in Z^r.

    Raises ZeroElement for 0 and NotHomogeneous when monomial characters
    disagree.
    """
    p = _as_poly(p, P)
    if p.is_zero:
        raise ZeroElement("the zero element has every character")
    chi = P.torus.chi
    found = None
    for mono in p.terms:
        char = _monomial_character(chi, mono, P.torus.rank)
        if found is None:
            found = char
        elif found != char:
            raise NotHomogeneous(f"characters {found} and {char} both occur")
    return found


def _monomial_character(chi, mono, rank):
    out = [0] * rank
    for i, e in enumerate(mono):
        if e:
            ci = chi[i]
            for a in range(rank):
                out[a] += e * ci[a]
    return tuple(out)


def homogeneous_character(p, P):
    """character_of, with None instead of raising."""
    try:
        return character_of(p, P)
    except (ZeroElement, NotHomogeneous):
        return None


def _scale_diagonally(p, values):
    """Image of p under the diagonal map x_i -> values[i] x_i (SignedMonomials)."""
    out = {}
    for mono, coeff in p.terms.items():
        out[mono] = coeff * _power_product(p.space, values, mono).to_fraction()
    return PBWPolynomial(p.space, p.N, out)


def monomial_degree(P, mono):
    degs = P.generator_degrees()
    if degs is None:
        raise NoGradingDefined("presentation has no positive grading (pi missing)")
    return sum(e * d for e, d in zip(mono, degs))


def graded_split(p, P):
    """Split into graded components: dict pi-degree -> PBWPolynomial."""
    p = _as_poly(p, P)
    parts = {}
    for mono, coeff in p.terms.items():
        d = monomial_degree(P, mono)
        parts.setdefault(d, {})[mono] = coeff
    return {d: PBWPolynomial(P.space, P.N, t) for d, t in sorted(parts.items())}

def min_degree(p, P):
    p = _as_poly(p, P)
    if p.is_zero:
        raise ZeroElement("zero has no minimal degree")
    return min(monomial_degree(P, m) for m in p.terms)


def supported_below(p, k):
    """True when every monomial of p lives in the subalgebra on x_0..x_{k-1}."""
    return all(not any(mono[k:]) for mono in p.terms)


def apply_endomorphism(images, p, P):
    """Substitute generator images: x_i |-> images[i], extended K-linearly.

    ``images`` is a list of N PBW polynomials.  Monomials substitute in
    PBW order: x^a |-> images[0]^{a_0} * ... * images[N-1]^{a_{N-1}}.
    """
    p = _as_poly(p, P)
    if len(images) != P.N:
        raise ValueError("need exactly one image per generator")
    out = {}
    pow_cache = {}
    for mono, coeff in p.terms.items():
        factor = PBWPolynomial.constant(P.space, P.N, coeff)
        for i, e in enumerate(mono):
            if not e:
                continue
            key = (i, e)
            if key not in pow_cache:
                prev = pow_cache.get((i, e - 1))
                if prev is not None:
                    pow_cache[key] = multiply(prev, images[i], P)
                else:
                    pow_cache[key] = power(images[i], e, P)
            factor = multiply(factor, pow_cache[key], P)
        for m, c in factor.terms.items():
            _add_term(out, m, c)
    return PBWPolynomial(P.space, P.N, out)
