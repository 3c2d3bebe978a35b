"""Exact multivariate polynomials over Z, their gcd, rational-function
values, and their canonical text form (written only: nothing reads it
back).

Values are immutable.  A ``RationalFunction`` is a value, not an
arithmetic type: ``RationalFunction.from_factors`` reduces a quotient of
two products to a unique canonical form (gcd-reduced, denominator leading
coefficient positive under the graded-lexicographic monomial order), so
equality is structural; the constructor is that routine on one factor
each.  The label rules in ``coordinates`` do their arithmetic on
polynomials and build a label through it only when the label is read.

Polynomials carry integer coefficients on packed monomials.  A polynomial
lives in a ring: an interned tuple of variable names in ``_name_key``
order, with a field width w.  A monomial is one int.  Variable i owns a
w-bit field, the first name most significant, whose top bit is a guard
kept clear; the total degree sits above all fields:

    key = deg << (n*w) | e_0 << ((n-1)*w) | ... | e_(n-1)

So graded-lex order is int order, a monomial product is an int add, and
m divides r iff ``(r - m) & guards == 0``: a field that would go negative
borrows from the next one and sets its own guard bit.  Total degrees stay
below 2^(w-1); a product that would reach it is computed in a ring with
wider fields.  Operands in one ring (an identity test) are combined
directly; others are first repacked into the ring of their merged names.
``vars`` and ``terms`` are a tuple view over the variables actually used,
so equality and hashing do not depend on the ring.  The layout stays in
this module: ``_pack`` is its one encoder, and callers build a monomial
with ``monomial`` and read a constant term with ``constant_coeff``.

``exact_div`` is Johnson's heap division (Monagan and Pearce, "Sparse
polynomial division using a heap", J. Symb. Comput. 2011): the products of
the quotient terms with the divisor's lower terms are merged through a
heap keyed by the packed monomial, so each remainder term is formed once,
in descending order.  It is the only division either flip rule takes:
both carry their labels in separated form, a monomial times polynomials
over the seed variables (Fomin and Zelevinsky, "Cluster algebras IV",
2007), and a flip gives the new diagonal one polynomial, a sum of two
products divided exactly by the old diagonal's (see
``coordinates.apply_ptolemy_flip`` and ``coordinates.apply_shear_flip``).

``poly_gcd`` returns the full gcd over Z: content, constant and monomial
shortcuts, then the heuristic gcd.  ``from_factors`` divides every
numerator factor and denominator factor by their gcd, pair by pair, so the
pairs end coprime, integer content included.  Z[x] is a unique
factorization domain, so the products are coprime too and, once the sign
is normalized, the form is unique.  No gcd of an expanded product is taken.
"""

from __future__ import annotations

import math
import re
import string
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from typing import Iterable, Mapping, Optional


class AlgebraError(Exception):
    """Base class for algebra failures."""


class ZeroFunctionDivision(AlgebraError, ZeroDivisionError):
    """A zero denominator."""


_DIGIT_CHUNKS = re.compile(r"(\d+)")


@lru_cache(maxsize=4096)
def _name_key(name: str):
    """Sort key giving variable names a deterministic natural order."""
    return tuple(
        (0, int(chunk)) if chunk.isdigit() else (1, chunk)
        for chunk in _DIGIT_CHUNKS.split(name)
        if chunk
    )


_RATIONAL = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?\Z", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational in 'p/q' or integer form (no decimals)."""
    text = text.strip(string.whitespace)
    if _RATIONAL.match(text):
        try:
            return Fraction(text)
        except ValueError:  # more digits than int() converts
            pass
    raise AlgebraError(f"not a rational in p/q form: {text!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction in the 'p/q' wire form (or 'p' for integers)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# default field width of a packed monomial, guard bit included: total
# degrees up to 2^15 - 1 fit before a ring is widened
_FIELD_BITS = 16

_set = object.__setattr__


class _Ring:
    """Packing layout of monomials over ``names`` (in ``_name_key`` order)
    with ``bits``-wide fields; see the module docstring."""

    __slots__ = ("names", "bits", "index", "shifts", "mask", "top", "guards", "cap")

    def __init__(self, names: tuple, bits: int):
        n = len(names)
        self.names = names
        self.bits = bits
        self.index = {name: i for i, name in enumerate(names)}
        self.shifts = tuple(bits * (n - 1 - i) for i in range(n))
        self.mask = (1 << bits) - 1
        self.top = bits * n
        self.guards = sum(1 << (s + bits - 1) for s in self.shifts)
        self.cap = 1 << (bits - 1)


@lru_cache(maxsize=4096)
def _ring(names: tuple, bits: int) -> _Ring:
    """The interned ring, so that operands in one ring are detected by an
    identity test."""
    return _Ring(names, bits)


@lru_cache(maxsize=4096)
def _layout(variables: tuple, bits: int):
    """The ring of ``variables`` and the field shift of each of them."""
    if len(set(variables)) != len(variables):
        raise AlgebraError(f"duplicate variable names: {variables}")
    ring = _ring(tuple(sorted(variables, key=_name_key)), bits)
    return ring, tuple(ring.shifts[ring.index[name]] for name in variables)


def _bits_for(degree: int) -> int:
    """Field width whose exponents hold total degrees up to ``degree``."""
    bits = _FIELD_BITS
    while degree >= 1 << (bits - 1):
        bits *= 2
    return bits


def _pack(top: int, shifts, exps) -> int:
    """The key of the monomial with exponents ``exps`` in the fields at
    ``shifts``, its total degree at ``top``: the one encoder of a key."""
    key = sum(exps) << top
    for s, e in zip(shifts, exps):
        key |= e << s
    return key


def _poly(ring: _Ring, packed: dict, p: Optional["Polynomial"] = None) -> "Polynomial":
    """A polynomial (``p``, or a new one) on a term map packed in ``ring``
    without zero coefficients."""
    p = object.__new__(Polynomial) if p is None else p
    for slot, value in zip(Polynomial.__slots__, (ring, packed, None, None)):
        _set(p, slot, value)
    return p


def _least_exponents(ring: _Ring, keys) -> list:
    """Per variable of ``ring``, its least exponent over the monomials."""
    mask = ring.mask
    out = []
    for s in ring.shifts:
        low = mask
        for key in keys:
            e = (key >> s) & mask
            if e < low:
                low = e
                if not low:
                    break
        out.append(low)
    return out


class Polynomial:
    """Sparse multivariate polynomial with integer coefficients.

    Terms are kept packed in a ring (see the module docstring).  ``vars``
    is the ordered tuple of variable names actually appearing; ``terms``
    maps exponent tuples (aligned with ``vars``) to nonzero integer
    coefficients.  The zero polynomial has no terms.
    """

    __slots__ = ("_ring", "_packed", "_lead", "_vars")

    def __init__(self, variables: Iterable[str] = (), terms: Optional[Mapping[tuple, int]] = None):
        variables = tuple(variables)
        terms = {e: c for e, c in (terms or {}).items() if c != 0}
        degree = 0
        for exps in terms:
            if len(exps) != len(variables) or any(e < 0 for e in exps):
                raise AlgebraError(f"exponents {exps} do not fit the variables {variables}")
            degree = max(degree, sum(exps))
        ring, shifts = _layout(variables, _bits_for(degree))
        _poly(ring, {_pack(ring.top, shifts, exps): c for exps, c in terms.items()}, self)

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
    def variables(cls, names: Iterable[str]) -> tuple:
        """One variable per name, all in the one ring of ``names``, so that
        arithmetic on them never repacks."""
        ring, shifts = _layout(tuple(names), _FIELD_BITS)
        return tuple(_poly(ring, {1 << ring.top | 1 << s: 1}) for s in shifts)

    # -- basic queries -------------------------------------------------

    @property
    def vars(self) -> tuple:
        found = self._vars
        if found is None:
            ring = self._ring
            used = 0
            for key in self._packed:
                used |= key
            found = tuple(
                name for name, s in zip(ring.names, ring.shifts) if used >> s & ring.mask
            )
            _set(self, "_vars", found)
        return found

    @property
    def terms(self) -> dict:
        ring = self._ring
        mask = ring.mask
        shifts = [ring.shifts[ring.index[name]] for name in self.vars]
        return {tuple(k >> s & mask for s in shifts): c for k, c in self._packed.items()}

    @property
    def is_zero(self) -> bool:
        return not self._packed

    @property
    def is_constant(self) -> bool:
        packed = self._packed
        return not packed or (len(packed) == 1 and 0 in packed)

    @property
    def is_monomial(self) -> bool:
        return len(self._packed) == 1

    def _leading(self) -> int:
        lead = self._lead
        if lead is None:
            lead = max(self._packed)
            _set(self, "_lead", lead)
        return lead

    def total_degree(self) -> int:
        if self.is_zero:
            return -1
        return self._leading() >> self._ring.top

    def degree_in(self, name: str) -> int:
        ring = self._ring
        i = ring.index.get(name)
        if i is None:
            return 0
        s, mask = ring.shifts[i], ring.mask
        return max((k >> s & mask for k in self._packed), default=0)

    def lead_coeff(self) -> int:
        """Coefficient of the graded-lex leading term (0 for the zero poly)."""
        if self.is_zero:
            return 0
        return self._packed[self._leading()]

    def constant_coeff(self) -> int:
        """Coefficient of the constant monomial, whose key is 0 in every
        ring."""
        return self._packed.get(0, 0)

    def content(self) -> int:
        """Nonnegative gcd of all coefficients."""
        return math.gcd(*self._packed.values()) if self._packed else 0

    # -- equality ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._packed == ({0: other} if other else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._packed, other._packed
        # a constant's term map is the same in every ring
        if self._ring is other._ring or self.is_constant or other.is_constant:
            return a == b
        return len(a) == len(b) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _common_ring(f: "Polynomial", g: "Polynomial") -> _Ring:
        fr, gr = f._ring, g._ring
        if fr is gr or g.is_constant:
            return fr
        if f.is_constant:
            return gr
        names = tuple(sorted(set(fr.names) | set(gr.names), key=_name_key))
        return _ring(names, max(fr.bits, gr.bits))

    def _packed_in(self, ring: _Ring) -> dict:
        """The term map repacked into ``ring``, which holds our variables."""
        own = self._ring
        if own is ring or self.is_constant:
            return self._packed
        moves = [(s, ring.shifts[ring.index[name]]) for name, s in zip(own.names, own.shifts)]
        mask, top, new_top = own.mask, own.top, ring.top
        out = {}
        for key, coeff in self._packed.items():
            new = key >> top << new_top
            for s, t in moves:
                new |= (key >> s & mask) << t
            out[new] = coeff
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
        ring = self._common_ring(self, other)
        a, b = self._packed_in(ring), other._packed_in(ring)
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for key, coeff in b.items():
            total = out.get(key, 0) + coeff
            if total:
                out[key] = total
            else:
                del out[key]
        return _poly(ring, out)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self._ring, {k: -c for k, c in self._packed.items()})

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
        ring = self._common_ring(self, other)
        degree = self.total_degree() + other.total_degree()
        if degree >= ring.cap:
            ring = _ring(ring.names, _bits_for(degree))
        a, b = self._packed_in(ring), other._packed_in(ring)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            ((kb, cb),) = b.items()
            return _poly(ring, {ka + kb: ca * cb for ka, ca in a.items()})
        out = {}
        get = out.get
        for kb, cb in b.items():
            for ka, ca in a.items():
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        return _poly(ring, {k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def _div_int(self, k: int) -> "Polynomial":
        if k in (1, -1):
            return self if k == 1 else -self
        return _poly(self._ring, {e: c // k for e, c in self._packed.items()})

    def exact_div(self, divisor: "Polynomial") -> Optional["Polynomial"]:
        """Exact quotient over the integers, or None if it does not divide.

        Johnson's heap division: the products of the quotient terms found
        so far with the divisor's lower terms are merged through a heap in
        which products of one monomial share an entry (Monagan and Pearce's
        chaining), so the remainder is never rescanned.  A monomial divisor,
        such as a seed's F = 1, divides term by term instead.
        """
        if divisor.is_zero:
            raise AlgebraError("division by the zero polynomial")
        if self.is_zero:
            return Polynomial.zero()
        ring = self._common_ring(self, divisor)
        a, b = self._packed_in(ring), divisor._packed_in(ring)
        guards = ring.guards
        if len(b) == 1:
            ((kb, cb),) = b.items()
            out = {}
            for k, c in a.items():
                if (k - kb) & guards or c % cb:
                    return None
                out[k - kb] = c // cb
            return _poly(ring, out)
        dkeys = sorted(b, reverse=True)
        dcoeffs = [b[k] for k in dkeys]
        lead, cl = dkeys[0], dcoeffs[0]
        fkeys = sorted(a, reverse=True)
        qkeys, qcoeffs = [], []
        # pending products q_s * d_j, chained by monomial: the heap holds
        # each negated monomial once and ``chains`` its (s, j) pairs
        heap, chains = [], {}
        i, nf, nd = 0, len(fkeys), len(dkeys)
        while i < nf or heap:
            coeff = 0
            if heap and (i == nf or -heap[0] >= fkeys[i]):
                m = -heappop(heap)
                chain = chains.pop(m)
                for s, j in chain:
                    coeff -= qcoeffs[s] * dcoeffs[j]
            else:
                m, chain = fkeys[i], []
            if i < nf and fkeys[i] == m:
                coeff += a[m]
                i += 1
            if coeff:
                q = m - lead
                if q & guards or coeff % cl:
                    return None
                chain.append((len(qkeys), 0))
                qkeys.append(q)
                qcoeffs.append(coeff // cl)
            # each pair moves on to the next divisor term
            for s, j in chain:
                j += 1
                if j < nd:
                    key = qkeys[s] + dkeys[j]
                    pending = chains.get(key)
                    if pending is None:
                        chains[key] = [(s, j)]
                        heappush(heap, -key)
                    else:
                        pending.append((s, j))
        return _poly(ring, dict(zip(qkeys, qcoeffs)))

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Polynomial({poly_to_str(self)!r})"


_ONE = Polynomial.one()


def monomial(names: tuple, exps) -> Polynomial:
    """y^exps over the variables ``names`` (exponents >= 0), its one key
    packed directly."""
    degree = sum(exps)
    if not degree:
        return _ONE
    ring, shifts = _layout(names, _bits_for(degree))
    return _poly(ring, {_pack(ring.top, shifts, exps): 1})


def _positive_lead(p: Polynomial) -> Polynomial:
    return -p if p.lead_coeff() < 0 else p


def _monomial_gcd(mono: Polynomial, other: Polynomial) -> Polynomial:
    """gcd of a one-term polynomial with any polynomial (primitive inputs)."""
    ring = Polynomial._common_ring(mono, other)
    keys = [*mono._packed_in(ring), *other._packed_in(ring)]
    return _poly(ring, {_pack(ring.top, ring.shifts, _least_exponents(ring, keys)): 1})


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Full gcd over Z (integer content included), leading coefficient > 0.

    Fast paths: content, constants, monomials (before the variables of
    either operand are scanned) and disjoint variables; the complete route
    is the heuristic gcd, which recurses on the images at an integer point
    of one variable.
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
    if pf.is_monomial:
        return Polynomial.constant(c) * _monomial_gcd(pf, pg)
    if pg.is_monomial:
        return Polynomial.constant(c) * _monomial_gcd(pg, pf)
    common = set(pf.vars) & set(pg.vars)
    if not common:
        return Polynomial.constant(c)

    # the variable of least degree keeps the integers of the images small
    x = min(common, key=lambda v: (max(pf.degree_in(v), pg.degree_in(v)), _name_key(v)))
    return Polynomial.constant(c) * _heuristic_gcd(pf, pg, x)


def _at(p: Polynomial, x: str, xi: int) -> Polynomial:
    """p with the integer xi put in for x."""
    ring = p._ring
    s, mask, top = ring.shifts[ring.index[x]], ring.mask, ring.top
    terms: dict = {}
    for key, coeff in p._packed.items():
        e = key >> s & mask
        key -= (e << s) + (e << top)
        terms[key] = terms.get(key, 0) + coeff * xi ** e
    return _poly(ring, {k: c for k, c in terms.items() if c})


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
    xi = 2 * min(max(map(abs, f._packed.values())), max(map(abs, g._packed.values()))) + 29
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
    return p._packed == {0: 1}


def poly_product(factors: Iterable[Polynomial]) -> Polynomial:
    """The product of ``factors`` (1 for none); factors equal to 1 are
    skipped."""
    out = None
    for f in factors:
        if not _is_one(f):
            out = f if out is None else out * f
    return Polynomial.one() if out is None else out


class RationalFunction:
    """Quotient of integer polynomials in canonical reduced form.

    Invariants: gcd(num, den) = 1 (integer content included), den != 0,
    and den's graded-lex leading coefficient is positive.  Because the
    form is unique, equality and hashing are structural.  The value has
    no arithmetic: callers compute on ``num`` and ``den`` and construct.
    """

    __slots__ = ("num", "den")

    def __new__(cls, num: Polynomial, den: Optional[Polynomial] = None):
        """The canonical form of ``num/den``."""
        return cls.from_factors((num,), () if den is None else (den,))

    @classmethod
    def from_factors(
        cls, nums: Iterable[Polynomial], dens: Iterable[Polynomial]
    ) -> "RationalFunction":
        """The canonical form of ``prod(nums)/prod(dens)``, reduced factor
        by factor.

        Factors equal to 1 are dropped; then each numerator factor and each
        denominator factor are divided by their gcd, pair by pair.  Dividing
        keeps a pair coprime, so at the end every pair is, and since Z[x] is
        a unique factorization domain so are the two products: no gcd of a
        product is taken.
        """
        nums = [f for f in nums if not _is_one(f)]
        dens = [f for f in dens if not _is_one(f)]
        if any(f.is_zero for f in dens):
            raise ZeroFunctionDivision("denominator is the zero polynomial")
        for i, a in enumerate(nums):
            for j, b in enumerate(dens):
                g = poly_gcd(a, b)
                if not _is_one(g):
                    a = nums[i] = a.exact_div(g)
                    dens[j] = b.exact_div(g)
        return cls._coprime(poly_product(nums), poly_product(dens))

    @classmethod
    def _coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap a pair already known to be coprime: no gcd, sign only (zero
        becomes 0/1)."""
        if num.is_zero:
            num, den = Polynomial.zero(), Polynomial.one()
        elif den.lead_coeff() < 0:
            num, den = -num, -den
        obj = object.__new__(cls)
        _set(obj, "num", num)
        _set(obj, "den", den)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_laurent(self) -> bool:
        """True iff the denominator is a single monomial (any integer
        coefficient), i.e. the value is a Laurent polynomial."""
        return self.den.is_monomial

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def to_json(self) -> dict:
        return {"num": poly_to_str(self.num), "den": poly_to_str(self.den)}

    def __str__(self) -> str:
        if self.den == Polynomial.one():
            return poly_to_str(self.num)
        return f"({poly_to_str(self.num)})/({poly_to_str(self.den)})"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


# -- canonical text form ----------------------------------------------


def poly_to_str(p: Polynomial) -> str:
    """Render in the canonical form: terms in descending graded-lex order,
    each as ``coef*var^k*...`` with unit coefficients suppressed."""
    if p.is_zero:
        return "0"
    ring = p._ring
    fields = list(zip(ring.names, ring.shifts))
    pieces = []
    for idx, key in enumerate(sorted(p._packed, reverse=True)):
        coeff = p._packed[key]
        factors = []
        for name, s in fields:
            e = key >> s & ring.mask
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

