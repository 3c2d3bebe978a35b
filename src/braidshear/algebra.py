"""Exact multivariate rational-function arithmetic over the rationals.

Values are immutable. Polynomials carry integer coefficients in a sparse
exponent-vector representation; rational functions are kept in a unique
canonical form (gcd-reduced, denominator leading coefficient positive under
the graded-lexicographic monomial order), so equality is structural.

The public constructor ``RationalFunction(num, den)`` is the full-reduction
path: it divides arbitrary input by ``poly_gcd(num, den)``.  Arithmetic
never takes that path.  Its operands are reduced, and reduced operands give
a reduced result from gcds of the small operands alone (Henrici's
cross-cancellation; Knuth, TAOCP vol. 2, 4.5.1):

* ``(a/b)·(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1))`` with ``g1 = gcd(a, d)``
  and ``g2 = gcd(c, b)``; division swaps ``c`` and ``d``;
* ``a/b + c/d`` with ``g = gcd(b, d)``: ``(ad + cb)/(bd)`` if ``g = 1``,
  else ``(t/g2) / ((b/g)(d/g2))`` with ``t = a(d/g) + c(b/g)`` and
  ``g2 = gcd(t, g)``;
* negation, inversion, powers and constants need no gcd at all.

``poly_gcd`` returns the full gcd over Z, so these results are coprime
with integer content included; only the sign is then normalized.  Z[x] is
a unique factorization domain, so the result is the same canonical form
the constructor would produce.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Union

from braidshear.roots import gcd


class AlgebraError(Exception):
    """Base class for algebra failures."""


class ZeroFunctionDivision(AlgebraError, ZeroDivisionError):
    """Division by the zero rational function."""


class PoleError(AlgebraError):
    """Evaluation hit a zero of the denominator."""


class MissingVariableError(AlgebraError):
    """Evaluation point does not cover every variable."""


class PolyParseError(AlgebraError):
    """Polynomial text does not match the canonical grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_DIGIT_CHUNKS = re.compile(r"(\d+)")


@lru_cache(maxsize=4096)
def _name_key(name: str):
    """Sort key giving variable names a deterministic natural order."""
    return tuple(
        (0, int(chunk)) if chunk.isdigit() else (1, chunk)
        for chunk in _DIGIT_CHUNKS.split(name)
        if chunk
    )


_RATIONAL = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational in 'p/q' or integer form (no decimals)."""
    text = text.strip()
    if not _RATIONAL.match(text):
        raise AlgebraError(f"not a rational in p/q form: {text!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Render a Fraction in the 'p/q' wire form (or 'p' for integers)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


IntoPoly = Union["Polynomial", int]


class Polynomial:
    """Sparse multivariate polynomial with integer coefficients.

    ``vars`` is the ordered tuple of variable names actually appearing;
    ``terms`` maps exponent tuples (aligned with ``vars``) to nonzero
    integer coefficients.  The zero polynomial has no terms.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Iterable[str] = (), terms: Optional[Mapping[tuple, int]] = None):
        variables = tuple(variables)
        terms = dict(terms or {})
        # Drop zero coefficients, then project away unused variables and
        # re-sort the rest into the canonical name order.
        terms = {e: c for e, c in terms.items() if c != 0}
        if terms:
            used = [i for i in range(len(variables)) if any(e[i] for e in terms)]
            order = sorted(used, key=lambda i: _name_key(variables[i]))
            if order != list(range(len(variables))):
                remapped = {}
                for exps, coeff in terms.items():
                    key = tuple(exps[i] for i in order)
                    remapped[key] = remapped.get(key, 0) + coeff
                terms = {e: c for e, c in remapped.items() if c != 0}
            variables = tuple(variables[i] for i in order)
        else:
            variables = ()
        names = set(variables)
        if len(names) != len(variables):
            raise AlgebraError(f"duplicate variable names: {variables}")
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        if value == 0:
            return cls()
        return cls((), {(): int(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls((name,), {(1,): 1})

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> int:
        if self.is_zero:
            return 0
        if not self.is_constant:
            raise AlgebraError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def _lead_key(self) -> tuple:
        # graded-lex: compare by total degree, then exponent tuple.
        return max((sum(e), e) for e in self.terms)

    def lead_coeff(self) -> int:
        """Coefficient of the graded-lex leading term (0 for the zero poly)."""
        if self.is_zero:
            return 0
        return self.terms[self._lead_key()[1]]

    def content(self) -> int:
        """Nonnegative gcd of all coefficients."""
        return math.gcd(*self.terms.values()) if self.terms else 0

    # -- equality ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _aligned(f: "Polynomial", g: "Polynomial"):
        """Common variable tuple plus both term maps re-indexed onto it."""
        if f.vars == g.vars:
            return f.vars, f.terms, g.terms
        merged = tuple(sorted(set(f.vars) | set(g.vars), key=_name_key))
        return merged, f._reindexed(merged), g._reindexed(merged)

    def _reindexed(self, merged: tuple) -> dict:
        pos = {name: i for i, name in enumerate(merged)}
        slots = [pos[name] for name in self.vars]
        width = len(merged)
        out = {}
        for exps, coeff in self.terms.items():
            vec = [0] * width
            for s, e in zip(slots, exps):
                vec[s] = e
            out[tuple(vec)] = coeff
        return out

    def _coerce(self, other) -> Optional["Polynomial"]:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged, a, b = self._aligned(self, other)
        out = dict(a)
        for exps, coeff in b.items():
            out[exps] = out.get(exps, 0) + coeff
        return Polynomial(merged, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        merged, a, b = self._aligned(self, other)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Polynomial(merged, out)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if power < 0:
            raise AlgebraError("negative power of a polynomial")
        result = Polynomial.one()
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def _div_int(self, k: int) -> "Polynomial":
        if k in (1, -1):
            return self if k == 1 else -self
        return Polynomial(self.vars, {e: c // k for e, c in self.terms.items()})

    def exact_div(self, divisor: "Polynomial") -> Optional["Polynomial"]:
        """Exact quotient over the integers, or None if it does not divide."""
        if divisor.is_zero:
            raise AlgebraError("division by the zero polynomial")
        if self.is_zero:
            return Polynomial.zero()
        merged, a, b = self._aligned(self, divisor)
        lead_b = max((sum(e), e) for e in b)[1]
        cb = b[lead_b]
        rem = dict(a)
        quot = {}
        while rem:
            lead_r = max((sum(e), e) for e in rem)[1]
            cr = rem[lead_r]
            if cr % cb != 0 or any(x < y for x, y in zip(lead_r, lead_b)):
                return None
            qe = tuple(x - y for x, y in zip(lead_r, lead_b))
            qc = cr // cb
            quot[qe] = qc
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(qe, e2))
                nxt = rem.get(key, 0) - qc * c2
                if nxt:
                    rem[key] = nxt
                else:
                    rem.pop(key, None)
        return Polynomial(merged, quot)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Union[int, Fraction]]) -> Fraction:
        missing = [v for v in self.vars if v not in assignment]
        if missing:
            raise MissingVariableError(f"missing variables: {missing}")
        total = Fraction(0)
        values = [Fraction(assignment[v]) for v in self.vars]
        for exps, coeff in self.terms.items():
            term = Fraction(coeff)
            for val, e in zip(values, exps):
                if e:
                    term *= val ** e
            total += term
        return total

    def coeffs_in(self, name: str) -> dict:
        """View as univariate in ``name``: degree -> Polynomial in the rest."""
        if name not in self.vars:
            return {0: self}
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict = {}
        for exps, coeff in self.terms.items():
            d = exps[i]
            key = exps[:i] + exps[i + 1:]
            bucket = buckets.setdefault(d, {})
            bucket[key] = bucket.get(key, 0) + coeff
        return {d: Polynomial(rest, t) for d, t in buckets.items()}

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Polynomial({poly_to_str(self)!r})"


def _positive_lead(p: Polynomial) -> Polynomial:
    return -p if p.lead_coeff() < 0 else p


def _monomial_gcd(mono: Polynomial, other: Polynomial) -> Polynomial:
    """gcd of a one-term polynomial with any polynomial (primitive inputs)."""
    (mexp,) = mono.terms.keys()
    mvars = mono.vars
    exps = []
    for name, e in zip(mvars, mexp):
        if e == 0:
            continue
        if name not in other.vars:
            continue
        i = other.vars.index(name)
        low = min(t[i] for t in other.terms)
        exps.append((name, min(e, low)))
    terms = {tuple(e for _, e in exps): 1}
    return Polynomial(tuple(n for n, _ in exps), terms)


_GCD_SEED = 0x51A7E


def _certified_coprime(f: Polynomial, g: Polynomial, common) -> bool:
    """Sound one-sided coprimality test via evaluation homomorphisms.

    For each shared variable v, substitute random integers for every other
    variable.  If the substitution preserves both leading degrees in v and
    the resulting univariate gcd is constant, the true gcd has degree 0 in
    v.  All shared variables certified ==> primitive gcd is constant.
    Returns False whenever inconclusive.
    """
    rng = random.Random(_GCD_SEED)
    names = sorted(set(f.vars) | set(g.vars), key=_name_key)
    for v in sorted(common, key=_name_key):
        done = False
        for _ in range(4):
            point = {w: rng.randrange(1, 1 << 16) for w in names if w != v}
            a = _int_image(f, v, point)
            b = _int_image(g, v, point) if a is not None else None
            if b is None:
                continue
            if len(gcd(a, b)) != 1:  # the image gcd is not a constant
                return False
            done = True
            break
        if not done:
            return False
    return True


def _int_image(p: Polynomial, v: str, point: Mapping[str, int]) -> Optional[list]:
    """Dense integer coefficients in ``v`` of ``p`` with every other variable
    set to its integer in ``point``; None when the leading coefficient in
    ``v`` vanishes there (the image would lose degree)."""
    i = p.vars.index(v)
    # v itself is set to 1: its exponent only selects the output slot
    values = [1 if j == i else point[w] for j, w in enumerate(p.vars)]
    out = [0] * (max(e[i] for e in p.terms) + 1)
    for exps, coeff in p.terms.items():
        for val, e in zip(values, exps):
            if e:
                coeff *= val ** e
        out[exps[i]] += coeff
    return out if out[-1] else None


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Full gcd over Z (integer content included), leading coefficient > 0.

    Fast paths: monomial shortcut, trial division, and an evaluation
    coprimality certificate; the complete route is the heuristic gcd,
    which recurses on the images at an integer point of one variable.
    """
    if f.is_zero:
        return _positive_lead(g) if not g.is_zero else Polynomial.zero()
    if g.is_zero:
        return _positive_lead(f)
    cf, cg = f.content(), g.content()
    c = math.gcd(cf, cg)
    pf, pg = f._div_int(cf), g._div_int(cg)
    if pf.is_constant or pg.is_constant:
        return Polynomial.constant(c)
    if pf == pg or pf == -pg:
        return Polynomial.constant(c) * _positive_lead(pf)
    common = set(pf.vars) & set(pg.vars)
    if not common:
        return Polynomial.constant(c)
    if pf.is_monomial:
        return Polynomial.constant(c) * _monomial_gcd(pf, pg)
    if pg.is_monomial:
        return Polynomial.constant(c) * _monomial_gcd(pg, pf)
    if _certified_coprime(pf, pg, common):
        return Polynomial.constant(c)
    if len(pf.terms) <= len(pg.terms) and pg.exact_div(pf) is not None:
        return Polynomial.constant(c) * _positive_lead(pf)
    if len(pg.terms) < len(pf.terms) and pf.exact_div(pg) is not None:
        return Polynomial.constant(c) * _positive_lead(pg)

    # the variable of least degree keeps the integers of the images small
    x = min(common, key=lambda v: (max(pf.degree_in(v), pg.degree_in(v)), _name_key(v)))
    return Polynomial.constant(c) * _heuristic_gcd(pf, pg, x)


def _at(p: Polynomial, x: str, xi: int) -> Polynomial:
    """p with the integer xi put in for x."""
    i = p.vars.index(x)
    terms: dict = {}
    for exps, coeff in p.terms.items():
        key = exps[:i] + exps[i + 1:]
        terms[key] = terms.get(key, 0) + coeff * xi ** exps[i]
    return Polynomial(p.vars[:i] + p.vars[i + 1:], terms)


def _heuristic_gcd(f: Polynomial, g: Polynomial, x: str) -> Polynomial:
    """gcd of primitive f and g that share x, by GCDHEU (Char, Geddes and
    Gonnet, 1989).

    The gcd of the images at x = xi, each coefficient written in balanced
    base-xi digits (digit k goes to x^k), is the gcd once its primitive part
    divides f and g, since xi > 2 min(|f|, |g|) + 2.  The check fails only
    when the cofactors' images share a factor, which divides their
    resultant; that happens at finitely many xi, and a growing xi outgrows
    any integer factor, so the loop ends.
    """
    xi = 2 * min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values()))) + 29
    while True:
        h = poly_gcd(_at(f, x, xi), _at(g, x, xi))
        terms = {}
        for exps, coeff in h.terms.items():
            k = 0
            while coeff:
                digit = coeff % xi
                if digit > xi // 2:
                    digit -= xi
                coeff = (coeff - digit) // xi
                terms[exps + (k,)] = digit
                k += 1
        cand = Polynomial(h.vars + (x,), terms)
        cand = cand._div_int(cand.content())
        if f.exact_div(cand) is not None and g.exact_div(cand) is not None:
            return _positive_lead(cand)
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011


def _is_one(p: Polynomial) -> bool:
    return not p.vars and p.terms.get(()) == 1


def _quo(p: Polynomial, g: Polynomial) -> Polynomial:
    """p / g for a g known to divide p."""
    return p if _is_one(g) else p.exact_div(g)


def _cross_product(
    a: Polynomial, b: Polynomial, c: Polynomial, d: Polynomial
) -> "RationalFunction":
    """(a/b)·(c/d) for coprime pairs (a, b) and (c, d), by cross-cancellation."""
    g1 = poly_gcd(a, d)
    g2 = poly_gcd(c, b)
    return RationalFunction._coprime(_quo(a, g1) * _quo(c, g2), _quo(b, g2) * _quo(d, g1))


IntoRF = Union["RationalFunction", Polynomial, int, Fraction]


class RationalFunction:
    """Quotient of integer polynomials in canonical reduced form.

    Invariants: gcd(num, den) = 1 (integer content included), den != 0,
    and den's graded-lex leading coefficient is positive.  Because the
    form is unique, equality and hashing are structural.

    The constructor reduces arbitrary input with a full gcd.  Arithmetic
    relies on its operands already being reduced and builds results
    through ``_coprime`` after cross-cancellation (see the module docstring).
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Polynomial, den: Optional[Polynomial] = None):
        if den is None:
            den = Polynomial.one()
        if den.is_zero:
            raise ZeroFunctionDivision("denominator is the zero polynomial")
        if not num.is_zero:
            g = poly_gcd(num, den)
            if not _is_one(g):
                num = num.exact_div(g)
                den = den.exact_div(g)
        self._set(num, den)

    def _set(self, num: Polynomial, den: Polynomial) -> None:
        # num and den are coprime here; fix the sign (zero becomes 0/1)
        if num.is_zero:
            num, den = Polynomial.zero(), Polynomial.one()
        elif den.lead_coeff() < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap a pair already known to be coprime: no gcd, sign only."""
        obj = object.__new__(cls)
        obj._set(num, den)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def constant(cls, value: Union[int, Fraction]) -> "RationalFunction":
        frac = Fraction(value)
        return cls._coprime(
            Polynomial.constant(frac.numerator), Polynomial.constant(frac.denominator)
        )

    @classmethod
    def variable(cls, name: str) -> "RationalFunction":
        return cls._coprime(Polynomial.variable(name), Polynomial.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num == Polynomial.one() and self.den == Polynomial.one()

    def variables(self) -> frozenset:
        return frozenset(self.num.vars) | frozenset(self.den.vars)

    @staticmethod
    def _coerce(value) -> Optional["RationalFunction"]:
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, Polynomial):
            return RationalFunction._coprime(value, Polynomial.one())
        if isinstance(value, (int, Fraction)):
            return RationalFunction.constant(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        g = poly_gcd(b, d)
        if _is_one(g):
            return RationalFunction._coprime(a * d + c * b, b * d)
        b_g, d_g = b.exact_div(g), d.exact_div(g)
        t = a * d_g + c * b_g
        g2 = poly_gcd(t, g)
        return RationalFunction._coprime(_quo(t, g2), b_g * _quo(d, g2))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._coprime(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _cross_product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def inv(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroFunctionDivision("inverse of the zero function")
        return RationalFunction._coprime(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroFunctionDivision("division by the zero function")
        return _cross_product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, power: int):
        if power < 0:
            return self.inv() ** (-power)
        return RationalFunction._coprime(self.num ** power, self.den ** power)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def is_laurent(self) -> bool:
        """True iff the denominator is a single monomial (any integer
        coefficient), i.e. the value is a Laurent polynomial."""
        return self.den.is_monomial

    def evaluate(self, assignment: Mapping[str, Union[int, Fraction]]) -> Fraction:
        missing = [v for v in sorted(self.variables(), key=_name_key) if v not in assignment]
        if missing:
            raise MissingVariableError(f"missing variables: {missing}")
        bottom = self.den.evaluate(assignment)
        if bottom == 0:
            raise PoleError("denominator vanishes at the evaluation point")
        return self.num.evaluate(assignment) / bottom

    def to_json(self) -> dict:
        return {"num": poly_to_str(self.num), "den": poly_to_str(self.den)}

    @classmethod
    def from_json(cls, data: Mapping[str, str]) -> "RationalFunction":
        return cls(poly_from_str(data["num"]), poly_from_str(data["den"]))

    def __str__(self) -> str:
        if self.den == Polynomial.one():
            return poly_to_str(self.num)
        return f"({poly_to_str(self.num)})/({poly_to_str(self.den)})"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


# -- canonical text form ----------------------------------------------

# an optional leading sign, then factors joined by operators; each
# pattern skips the whitespace before its token
_SIGN = re.compile(r"\s*([-+]?)")
_FACTOR = re.compile(
    r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*(?:_\{\d+,\d+\})?)(?:\s*\^\s*(\d+))?)"
)
_OPERATOR = re.compile(r"\s*([-+*])")


def poly_to_str(p: Polynomial) -> str:
    """Render in the canonical form: terms in descending graded-lex order,
    each as ``coef*var^k*...`` with unit coefficients suppressed."""
    if p.is_zero:
        return "0"
    keys = sorted(p.terms, key=lambda e: (sum(e), e), reverse=True)
    pieces = []
    for idx, exps in enumerate(keys):
        coeff = p.terms[exps]
        factors = []
        for name, e in zip(p.vars, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if idx == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def poly_from_str(text: str) -> Polynomial:
    """Parse the canonical rendering back into a Polynomial."""
    m = _SIGN.match(text)
    op, result, term = m.group(1) or "+", Polynomial.zero(), Polynomial.zero()
    while m:
        if op != "*":
            result, term = result + term, Polynomial.constant(-1 if op == "-" else 1)
        pos = m.end()
        m = _FACTOR.match(text, pos)
        if not m:
            raise PolyParseError("expected a coefficient or variable", pos)
        number, name, exp = m.groups()
        if number:
            term = term * Polynomial.constant(int(number))
        else:
            term = term * Polynomial.variable(name) ** int(exp or 1)
        pos = m.end()
        m = _OPERATOR.match(text, pos)
        op = m and m.group(1)
    rest = text[pos:].lstrip()
    if rest:
        raise PolyParseError(f"unexpected {rest[0]!r}", len(text) - len(rest))
    return result + term
