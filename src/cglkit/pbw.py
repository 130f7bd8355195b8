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

The ordered monomials form a PBW basis, so a monomial pair m1 * m2 in which
no letter of m1 comes after the first letter of m2 is already the basis
monomial m1 + m2.  ``multiply`` adds such pairs directly: their concatenated
word has no descent, so neither strategy would rewrite it or spend fuel on
it, and the rightmost path stays independent on every pair that rewrites.

Generator indices are 0-based throughout the code; the 1-based names
x1..xN appear only in parsed/serialized text.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from operator import add, mul

from .errors import (
    DivergenceBudgetExceeded,
    NoGradingDefined,
    NotHomogeneous,
    ZeroElement,
)
from .scalars import LaurentFraction, _power_product


class PBWPolynomial:
    """Sparse PBW polynomial: dict of exponent tuple -> LaurentFraction.

    Instances are immutable by convention (no mutating API): a presentation
    hands out shared values, its cached pair products and Q-data, and
    ``P.x(i)``, which returns the one generator object it builds.
    """

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

    @classmethod
    def _trusted(cls, space, N, terms):
        """Wrap a zero-free dict keyed by N-tuples of nonnegative ints, unchecked."""
        self = object.__new__(cls)
        self.space = space
        self.N = N
        self.terms = terms
        return self

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
        return PBWPolynomial._trusted(self.space, self.N, out)

    __radd__ = __add__

    def __neg__(self):
        return PBWPolynomial._trusted(self.space, self.N, {m: -c for m, c in self.terms.items()})

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
        return PBWPolynomial._trusted(
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
        if e:
            word += [i] * e
    return word


def _first_letter(mono):
    """Index of the first generator occurring in mono; len(mono) for the constant."""
    return next(compress(count(), mono), len(mono))


def _last_letter(mono):
    """Index of the last generator occurring in mono; -1 for the constant."""
    return len(mono) - 1 - _first_letter(mono[::-1])


def monomial_of_word(word, N, positions=None):
    exps = [0] * N
    if positions is None:
        for letter in word:
            exps[letter] += 1
    else:
        for letter in word:
            exps[positions[letter]] += 1
    return tuple(exps)


def _fuel_budget(P, d):
    """Rewrite steps allowed for words of degree at most d (pi-degree, else length)."""
    return max(64, P.fuel_factor * (d + 1) * (d + 1) * max(1, P.N) * max(1, P.N))


def _monomial_weight(degs, mono):
    """Degree of the word of mono, as ``_fuel_budget`` measures it."""
    if degs is None:
        return sum(mono)
    return sum(map(mul, mono, degs))


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
        degs = P.generator_degrees()
        d = 0
        for _, w in stack:
            d = max(d, len(w) if degs is None else sum(map(degs.__getitem__, w)))
        fuel = _fuel_budget(P, d)
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
    return PBWPolynomial._trusted(P.space, P.N, out)


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
    """Product p * r in PBW form.

    A monomial pair whose last letter of m1 is at most the first letter of
    m2 is already ordered: it contributes x^(m1 + m2) with coefficient
    c1 * c2, the result of either strategy on a word without descent, and
    touches neither the rewriter nor the pair cache.  Every other pair is
    normalized once per presentation (leftmost strategy, memoized on P) or
    on every call (rightmost strategy, never cached), under the fuel budget
    of its word's degree.
    """
    p = _as_poly(p, P)
    r = _as_poly(r, P)
    out = {}
    cache = P.pair_cache if strategy == "leftmost" else None
    columns = [(m2, c2, _first_letter(m2)) for m2, c2 in r.terms.items()]
    for m1, c1 in p.terms.items():
        last = _last_letter(m1)
        for m2, c2, first in columns:
            if last <= first:
                _add_term(out, tuple(map(add, m1, m2)), c1 * c2)
                continue
            key = (m1, m2)
            prod = cache.get(key) if cache is not None else None
            if prod is None:
                degs = P.generator_degrees()
                fuel = _fuel_budget(P, _monomial_weight(degs, m1) + _monomial_weight(degs, m2))
                word = word_of_monomial(m1) + word_of_monomial(m2)
                prod = normalize_words(P, [(P.unit, word)], strategy=strategy, fuel=fuel)
                if cache is not None:
                    cache[key] = prod
            scalar = c1 * c2
            for mono, c in prod.terms.items():
                _add_term(out, mono, c * scalar)
    return PBWPolynomial._trusted(P.space, P.N, out)


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
