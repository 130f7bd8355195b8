"""PBW-basis arithmetic for iterated skew polynomial presentations.

Elements are K-linear combinations of ordered monomials
x_1^{a_1} ... x_N^{a_N}, stored as dicts mapping exponent tuples to
``LaurentFraction`` coefficients.  Products rewrite unordered words with the
presentation's commutation data

    x_k x_j  =  lambda_{kj} x_j x_k + Q_{kj}        (k > j)

choosing the leftmost adjacent descent each step, or the rightmost one for
confluence probes.  Termination is not assumed: rewriting runs under a fuel
budget proportional to (degree)^2 * N^2 and raises DivergenceBudgetExceeded
when it is exhausted.

The ordered monomials form a PBW basis, so a monomial pair m1 * m2 in which
no letter of m1 comes after the first letter of m2 is already the basis
monomial m1 + m2.  ``multiply`` adds such pairs directly: their concatenated
word has no descent, so neither strategy would rewrite it or spend fuel on
it, and the rightmost path stays independent on every pair that rewrites.

Leftmost products are built by one-letter insertion (the multiplication
table of Plural, Levandovskyy and Schoenemann, ISSAC 2003).  While a word X
is not ordered its leftmost descent lies inside X, so the leftmost normal
form satisfies NF(XY) = NF(NF(X) Y) for all words X and Y, with no
confluence assumed; products are identical to those of ``normalize_words``
on every presentation.  Hence

* x^m1 x^m2 appends the letters of m2 one at a time, and equal monomials
  merge before the next letter;
* x^m x_v moves x_v left past each letter u > v of m.  Each move multiplies
  in lambda_{uv} and starts a branch head Q_{uv} tail.  Q_{uv} lies on
  letters below u, and tail on letters from u on, so the branch is again a
  pair product, head times each monomial of Q_{uv};
* letters of the right factor at or after the last letter of the left one
  never move (rewriting creates no letter above those of its word), so a
  pair is the product of m1 with the letters of m2 before that last letter,
  shifted by the others.

These products are memoized in ``P.pair_cache``, keyed by the monomial pair.
Each entry records its rewrite steps: one per move of a letter, plus the
recorded steps of every entry it reads, whether the read hits or misses.  So
the steps do not depend on what the cache already held, and since equal
monomials merge, they never exceed the steps ``normalize_words`` takes on
the same word.  An entry whose steps exceed ``_fuel_budget`` of its own
degree raises and is not cached.  ``normalize_words`` remains the path of the
rightmost strategy and of ``order_positions``.

Generator indices are 0-based throughout the code; the 1-based names
x1..xN appear only in parsed/serialized text.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count
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


_FUEL_FLOOR = 64  # the least budget of any word


def _fuel_budget(P, d):
    """Rewrite steps allowed for words of degree at most d (pi-degree, else length)."""
    return max(_FUEL_FLOOR, P.fuel_factor * (d + 1) * (d + 1) * max(1, P.N) * max(1, P.N))


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
    touches neither the rewriter nor the pair cache.

    Every other pair is rewritten.  Under the leftmost strategy the letters
    of m2 at or after the last letter of m1 never move, so the pair is the
    cached product of m1 with the letters of m2 before that letter (see the
    module docstring), shifted by the rest.  Under the rightmost strategy,
    and should the insertion nest deeper than the interpreter's recursion
    limit, ``normalize_words`` rewrites the pair's word on every call, under
    the fuel budget of its degree.
    """
    p = _as_poly(p, P)
    r = _as_poly(r, P)
    out = {}
    zero = (0,) * P.N
    columns = [(m2, c2, _first_letter(m2)) for m2, c2 in r.terms.items()]
    for m1, c1 in p.terms.items():
        last = _last_letter(m1)
        for m2, c2, first in columns:
            if last <= first:
                _add_term(out, tuple(map(add, m1, m2)), c1 * c2)
                continue
            prod = None
            if strategy == "leftmost":
                low, high = _split_at(m2, last, zero)
                try:
                    prod = _entry_terms(_pair_entry(P, m1, low))
                except RecursionError:
                    pass
            if prod is None:
                degs = P.generator_degrees()
                fuel = _fuel_budget(P, _monomial_weight(degs, m1) + _monomial_weight(degs, m2))
                word = word_of_monomial(m1) + word_of_monomial(m2)
                prod = normalize_words(P, [(P.unit, word)], strategy=strategy, fuel=fuel)
                prod, high = prod.terms.items(), zero
            scalar = c1 * c2
            if high is zero:
                for mono, c in prod:
                    _add_term(out, mono, c * scalar)
            else:
                for mono, c in prod:
                    _add_term(out, tuple(map(add, mono, high)), c * scalar)
    return PBWPolynomial._trusted(P.space, P.N, out)


def _split_at(mono, k, zero):
    """(the letters of mono below k, the others), as two exponent tuples.

    With no letter from k on, they are mono itself and ``zero`` itself.
    """
    if not any(mono[k:]):
        return mono, zero
    return mono[:k] + zero[k:], zero[:k] + mono[k:]


def _shift(mono, high):
    return tuple(map(add, mono, high)) if any(high) else mono


def _pair_entry(P, m1, m2):
    """The pair_cache entry of x^m1 * x^m2, built when missing.

    Every letter of m2 comes before the last letter of m1.  An entry is the
    tuple (steps, m_1, c_1, ..., m_n, c_n) of its rewrite steps and terms.
    """
    entry = P.pair_cache.get((m1, m2))
    if entry is None:
        entry = (_insert_letter if sum(m2) == 1 else _append_word)(P, m1, m2)
    return entry


def _insert_letter(P, m1, m2):
    """Build the entry of x^m1 * x_v (m2 = e_v) by moving x_v left past each letter u > v.

    Each move multiplies in lambda_{uv} and branches into head * Q_{uv} * tail,
    which is the entry of head times the letters of each monomial of Q_{uv}
    before the last letter of head, shifted by its other letters and tail.
    """
    zero = (0,) * P.N
    v = m2.index(1)
    terms = {}
    head = list(m1)
    tail = list(zero)
    coeff = P.unit
    # no budget is below _FUEL_FLOOR, so _charge works one out only past it
    steps, limit = 0, _FUEL_FLOOR
    for u in range(_last_letter(m1), v, -1):
        for _ in range(m1[u]):
            head[u] -= 1
            steps += 1
            qhat = P.qhat(u, v)
            if qhat is not None:
                h = tuple(head)
                k = max(_last_letter(h), 0)
                for qm, qc in qhat.terms.items():
                    low, high = _split_at(qm, k, zero)
                    high = tuple(map(add, high, tail))
                    c = coeff * qc
                    if not any(low):
                        _add_term(terms, tuple(map(add, h, high)), c)
                        continue
                    entry = _pair_entry(P, h, low)
                    steps += entry[0]
                    for mono, sc in _entry_terms(entry):
                        _add_term(terms, _shift(mono, high), sc * c)
            if steps > limit:
                limit = _charge(P, m1, m2, steps)
            coeff = coeff * P.lam_fraction(u, v)
            tail[u] += 1
    _add_term(terms, tuple(map(add, m1, m2)), coeff)
    return _store(P, m1, m2, steps, terms)


def _append_word(P, m1, m2):
    """Build the entry of x^m1 * x^m2 one letter of m2 at a time, from single-letter entries."""
    terms = {m1: P.unit}
    steps, limit = 0, _FUEL_FLOOR
    for v in word_of_monomial(m2):
        # the generator's own exponent tuple, shared by every key that uses it
        e_v = next(iter(P.x(v).terms))
        nxt = {}
        for m, c in terms.items():
            if not any(m[v + 1 :]):
                _add_term(nxt, tuple(map(add, m, e_v)), c)
                continue
            entry = _pair_entry(P, m, e_v)
            steps += entry[0]
            if steps > limit:
                limit = _charge(P, m1, m2, steps)
            for mono, sc in _entry_terms(entry):
                _add_term(nxt, mono, sc * c)
        terms = nxt
    return _store(P, m1, m2, steps, terms)


def _store(P, m1, m2, steps, terms):
    # a flat tuple: each entry costs about 100 bytes less than with a term dict
    entry = P.pair_cache[(m1, m2)] = (steps, *chain.from_iterable(terms.items()))
    return entry


def _entry_terms(entry):
    """The (monomial, coefficient) pairs of a pair_cache entry."""
    return zip(entry[1::2], entry[2::2])


def _charge(P, m1, m2, steps):
    """The fuel budget of x^m1 * x^m2; raises when steps exceed it."""
    degs = P.generator_degrees()
    budget = _fuel_budget(P, _monomial_weight(degs, m1) + _monomial_weight(degs, m2))
    if steps > budget:
        raise DivergenceBudgetExceeded(
            f"fuel exhausted while multiplying words of length {sum(m1)} and {sum(m2)}"
        )
    return budget


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
