"""Exact arithmetic in a tower F_p <= F_q <= F_{q^m} with q = p^e.

The top field is realised once as F_p[t]/(modulus) of degree e*m, and every
intermediate field F_{q^d} (d | m) is carved out of it as the fixed set of
x -> x^(q^d), or equivalently as {0} plus the cyclic group generated by an
appropriate power of the primitive generator.  Elements are stored as integer
codes: the base-p digits of the code are the polynomial coefficients in
ascending degree.  Multiplication runs on discrete-log tables; addition is
XOR for p = 2 and, for odd p, a lookup in the Zech logarithm table
log(1 + g^k) built beside them (a + b = a (1 + b/a)).  The tables take
O(field size) time and memory and are built by the tower's first
arithmetic, so a tower that is only described or parsed never pays for
them; this library deliberately targets desk-scale fields only.

Element text syntax (accepted everywhere, produced as the first two forms):

    0           the zero element
    g^k         the k-th power of the tower generator
    poly:[c0,c1,...]   explicit coefficient vector over F_p
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from . import elimination
from .errors import (
    BadParams,
    DependentVector,
    DivisionByZero,
    DoesNotDivide,
    NotPrime,
    NotPrimitiveModulus,
    ReducibleModulus,
    TooLarge,
    TowerMismatch,
)


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]  # [] for n < 2


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (construction-time only)
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    a = _poly_trim([x % p for x in a])
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while a and len(a) - 1 >= df:
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - coef * fi) % p
        a = _poly_trim(a)
    return a


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _poly_powmod(base: Sequence[int], exp: int, f: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(base, f, p)
    while exp:
        if exp & 1:
            result = _poly_mod(_poly_mul(result, base, p), f, p)
        base = _poly_mod(_poly_mul(base, base, p), f, p)
        exp >>= 1
    return result


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Degree-n polynomial has no factor of degree <= n/2.

    Tests gcd(f, x^(p^k) - x) for k = 1 .. n//2; any common factor exposes an
    irreducible factor of f of degree dividing k.
    """
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    if f[0] == 0:
        return False
    xpk = [0, 1]
    for _ in range(n // 2):
        xpk = _poly_powmod(xpk, p, f, p)
        probe = list(xpk) + [0] * max(0, 2 - len(xpk))
        probe[1] = (probe[1] - 1) % p
        g = _poly_gcd(f, _poly_trim(probe), p)
        if len(g) - 1 >= 1:
            return False
    return True


def _root_is_primitive(f: Sequence[int], p: int) -> bool:
    """Multiplicative order of t modulo irreducible f equals p^deg(f) - 1."""
    if f[0] == 0:  # f = t, whose root is zero
        return False
    n = len(f) - 1
    order = p**n - 1
    for ell in _prime_factors(order):
        if _poly_powmod([0, 1], order // ell, f, p) == [1]:
            return False
    return True


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------

class _Unbuilt:
    """Stands in for the tower table `name` until its first read, which
    builds every table over the stand-ins; later reads go to the plain lists.
    A stand-in kept from before the build reads the built list, and two
    threads reading first may each build the same tables.

    The stand-ins sit on each instance rather than behind a
    FieldTower.__getattr__, since CPython does not specialise attribute
    reads on a class that defines __getattr__: there a mul, an add and an
    attribute read took 2.3-3x as long, and a group-scan pass 1.04x."""

    __slots__ = ("tower", "name")

    def __init__(self, tower: "FieldTower", name: str):
        self.tower = tower
        self.name = name

    def __getitem__(self, i):
        if getattr(self.tower, self.name) is self:
            self.tower._build_tables()
        return getattr(self.tower, self.name)[i]


class FieldTower:
    """The chain F_p <= F_q = F_{p^e} <= F_{q^m}, with log tables on the
    generator t, the root of a primitive modulus, and for odd p a Zech table
    zech[k] = log(1 + t^k) (-1 at k = |F*|/2, where 1 + t^k = 0).  The
    tables are built on first read, see _Unbuilt.

    Do not instantiate directly; use :func:`make_tower`.
    """

    def __init__(self, p: int, e: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.m = m
        self.q = p**e
        self.modulus = modulus
        self.degree = e * m          # over F_p
        self.order = p**self.degree  # size of the top field
        self.mult_order = self.order - 1
        self._exp = _Unbuilt(self, "_exp")
        self._log = _Unbuilt(self, "_log")
        self._zech = _Unbuilt(self, "_zech") if p != 2 else None
        self._subfield_cache: dict[int, tuple[int, ...]] = {}
        self._fq_solver: list[tuple[int, ...]] | None = None
        # t has code p (the digit 1 at degree 1), unless the modulus t + c0
        # is linear and t is the element -c0 of F_p
        self._gen = FieldElement(self, p if self.degree > 1 else -modulus[0] % p)

    # -- construction ------------------------------------------------------

    def _build_tables(self):
        """Build exp, log and (odd p) Zech, replacing the stand-ins."""
        p, deg, n = self.p, self.degree, self.mult_order
        exp = [0] * max(n, 1)
        v = 1  # walk the powers of t: shift up one digit, reduce by the modulus
        if p == 2:
            modcode = sum(c << i for i, c in enumerate(self.modulus))
            for i in range(n):
                exp[i] = v
                v <<= 1
                if v >> deg:
                    v ^= modcode
        else:
            top_unit = p ** (deg - 1)
            low = [(p**i, c) for i, c in enumerate(self.modulus[:-1]) if c]
            for i in range(n):
                exp[i] = v
                top, v = divmod(v, top_unit)
                v *= p
                if top:  # digit d at each nonzero c_i becomes d - top * c_i
                    for unit, c in low:
                        d = v // unit % p
                        v += ((d - top * c) % p - d) * unit
        log = [-1] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log
        # adding 1 changes only the constant digit; log[0] = -1 marks 1 + t^k = 0
        self._zech = [log[c - c % p + (c + 1) % p] for c in exp] if p != 2 else None

    def _digits(self, code: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.degree):
            code, r = divmod(code, p)
            out.append(r)
        return out

    def _encode(self, digits: Sequence[int]) -> int:
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    # -- code-level arithmetic (hot path) -----------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not a or not b:
            return a or b
        log, n = self._log, self.mult_order
        z = self._zech[(log[b] - log[a]) % n]  # a + b = a * (1 + b/a)
        return 0 if z < 0 else self._exp[(log[a] + z) % n]

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)  # -1 lies in F_p, with code p - 1

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.mult_order
        return self._exp[(self._log[a] + self._log[b]) % n]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        n = self.mult_order
        return self._exp[(n - self._log[a]) % n]

    def add_scaled(self, v: Sequence[int], coeffs: Sequence[int],
                   rows: Sequence[Sequence[int]]) -> list[int]:
        """v + sum of coeffs[i] * rows[i], for rows of codes: the row operation
        behind every linear combination over a tower field."""
        exp, log, n, zech = self._exp, self._log, self.mult_order, self._zech
        for c, b in zip(coeffs, rows):
            if not c:
                continue
            lc = log[c]
            # the sum is spelled out per case: a call per entry would dominate
            if self.p == 2:
                v = [x ^ exp[(lc + log[y]) % n] if y else x for x, y in zip(v, b)]
            else:  # x + c*y = x * (1 + c*y/x), as in add
                v = [x if not y else
                     exp[(lc + log[y]) % n] if not x else
                     0 if (z := zech[(lc + log[y] - log[x]) % n]) < 0 else
                     exp[(log[x] + z) % n]
                     for x, y in zip(v, b)]
        return v

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by zero")
        if a == 0:
            return 0
        n = self.mult_order
        return self._exp[(self._log[a] - self._log[b]) % n]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise DivisionByZero("negative power of zero")
        n = self.mult_order
        return self._exp[(self._log[a] * k) % n]

    def frob(self, a: int, r: int) -> int:
        """a^(p^r); r may be any integer, reduced modulo e*m."""
        if a == 0:
            return 0
        r %= self.degree
        n = self.mult_order
        return self._exp[(self._log[a] * pow(self.p, r, n)) % n]

    def log(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("discrete log of zero")
        return self._log[a]

    # -- elements and subfields ---------------------------------------------

    @property
    def generator(self) -> "FieldElement":
        return self._gen

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def element(self, code: int) -> "FieldElement":
        if not 0 <= code < self.order:
            raise BadParams(f"element code {code} outside [0, {self.order})")
        return FieldElement(self, code)

    def from_coeffs(self, coeffs: Sequence[int]) -> "FieldElement":
        if len(coeffs) > self.degree:
            raise BadParams("coefficient vector longer than the field degree")
        digits = [c % self.p for c in coeffs] + [0] * (self.degree - len(coeffs))
        return FieldElement(self, self._encode(digits))

    def gen_power(self, k: int) -> "FieldElement":
        return FieldElement(self, self._exp[k % self.mult_order])

    def subfield_codes(self, d: int) -> tuple[int, ...]:
        """Sorted codes of F_{q^d}, the fixed set of x -> x^(q^d)."""
        if d < 1 or self.m % d != 0:
            raise DoesNotDivide(f"subfield degree {d} does not divide m={self.m}")
        cached = self._subfield_cache.get(d)
        if cached is None:
            size = self.q**d - 1
            step = self.mult_order // size
            codes = [0] + [self._exp[(i * step) % self.mult_order] for i in range(size)]
            cached = tuple(sorted(codes))
            self._subfield_cache[d] = cached
        return cached

    def in_subfield(self, code: int, d: int) -> bool:
        return self.frob(code, self.e * d) == code

    # -- F_q-coordinates w.r.t. the internal basis (t^j u_s) ----------------

    def fq_coords(self, code: int) -> tuple[int, ...]:
        """Coordinates of an element over F_q w.r.t. the basis (1, t, ..., t^(m-1)).

        With e = 1 these are just the base-p digits.  For e > 1 they are
        F_p-linear in the digits, so they combine the precomputed coordinates
        of t^0, t^1, ... with the digits as coefficients.
        """
        if self.e == 1:
            return tuple(self._digits(code))
        return tuple(self.add_scaled([0] * self.m, self._digits(code),
                                     self._fq_solver_rows()))

    def _fq_gen_code(self) -> int:
        return self._exp[self.mult_order // (self.q - 1)]

    def _fq_solver_rows(self) -> list[tuple[int, ...]]:
        """F_q-coordinates of t^0, ..., t^(e*m - 1); built on first use."""
        if self._fq_solver is None:
            m, ws = self.m, [self.pow(self._fq_gen_code(), s) for s in range(self.e)]
            # the F_p-basis t^j w^s as digit rows; F_p digits are the codes of
            # F_p inside F_q, so row k of its inverse gives t^k in that basis
            basis = [self._digits(self.mul(self.pow(self.p, j), w))  # t has code p
                     for j in range(m) for w in ws]
            units = [tuple(w if i == j else 0 for i in range(m))
                     for j in range(m) for w in ws]
            self._fq_solver = [tuple(self.add_scaled([0] * m, a, units))
                               for a in elimination.inverse(self, basis)]
        return self._fq_solver

    def fq_rank(self, rows: Sequence[Sequence[int]]) -> int:
        """Rank over F_q of a list of F_q-coordinate rows (code entries)."""
        return elimination.span(self, len(rows[0]) if rows else 0, 1, rows).rank

    # -- misc ----------------------------------------------------------------

    def spec_string(self) -> str:
        mods = ",".join(str(c) for c in self.modulus)
        return f"gf({self.p},{self.e},{self.m};modulus=[{mods}])"

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, m={self.m}, modulus={list(self.modulus)})"


@dataclass(frozen=True)
class FieldElement:
    """An element of the top field of a tower, in canonical coefficient form."""

    tower: FieldTower
    code: int

    def _require_same(self, other: "FieldElement"):
        if self.tower is not other.tower:
            raise TowerMismatch("elements from different towers")

    def __add__(self, other):
        self._require_same(other)
        return FieldElement(self.tower, self.tower.add(self.code, other.code))

    def __sub__(self, other):
        self._require_same(other)
        return FieldElement(self.tower, self.tower.sub(self.code, other.code))

    def __neg__(self):
        return FieldElement(self.tower, self.tower.neg(self.code))

    def __mul__(self, other):
        self._require_same(other)
        return FieldElement(self.tower, self.tower.mul(self.code, other.code))

    def __truediv__(self, other):
        self._require_same(other)
        return FieldElement(self.tower, self.tower.div(self.code, other.code))

    def __pow__(self, k: int):
        return FieldElement(self.tower, self.tower.pow(self.code, k))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.tower, self.tower.inv(self.code))

    def frobenius(self, r: int = 1) -> "FieldElement":
        """The p^r-power map sigma_p^r applied to this element."""
        return FieldElement(self.tower, self.tower.frob(self.code, r))

    def __bool__(self):
        return self.code != 0

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)} in {self.tower.spec_string()}>"


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndependentTuple:
    """l <= m elements of the top field, linearly independent over F_q.

    solver is the span of [F_q-coordinates | I] whose rank proved the
    independence; expansion.coords reads coefficients off it.
    """

    elements: tuple[FieldElement, ...]
    solver: elimination.Span = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        els = self.elements
        if not els:
            raise BadParams("empty tuple")
        tower = els[0].tower
        for x in els:
            if x.tower is not tower:
                raise TowerMismatch("tuple elements from different towers")
        if isinstance(self, OrderedBasis) and len(els) != tower.m:
            raise BadParams(f"basis needs m={tower.m} elements, got {len(els)}")
        rows = [tower.fq_coords(x.code) for x in els]
        object.__setattr__(self, "solver", elimination.solver(tower, rows, tower.m))
        if self.solver.rank != len(els):
            raise DependentVector("tuple entries dependent over F_q")

    @property
    def tower(self) -> FieldTower:
        return self.elements[0].tower

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def codes(self) -> tuple[int, ...]:
        return tuple(x.code for x in self.elements)

    def __str__(self):
        return "(" + ", ".join(format_element(x) for x in self.elements) + ")"


class OrderedBasis(IndependentTuple):
    """An ordered basis of F_{q^m} over F_q: the independent tuple of length m."""


def power_basis(tower: FieldTower) -> OrderedBasis:
    """(1, g, g^2, ..., g^(m-1)) for the tower generator g."""
    return OrderedBasis(tuple(tower.generator**i for i in range(tower.m)))


def normal_basis_from(x: FieldElement) -> OrderedBasis:
    """(x, x^q, ..., x^(q^(m-1))); raises DependentVector if x is not normal."""
    tower = x.tower
    els = [x]
    for _ in range(tower.m - 1):
        els.append(els[-1].frobenius(tower.e))
    return OrderedBasis(tuple(els))


def is_normal(x: FieldElement) -> bool:
    try:
        normal_basis_from(x)
        return True
    except DependentVector:
        return False


def find_normal_element(tower: FieldTower) -> FieldElement:
    """Smallest generator power whose Frobenius orbit is an ordered basis.

    Restricted to e = 1 towers; that covers every normal basis this library
    needs, and keeps the search a plain F_p rank test.
    """
    if tower.e != 1:
        raise BadParams("normal element search implemented for e = 1 only")
    for k in range(tower.mult_order):
        x = tower.gen_power(k)
        if is_normal(x):
            return x
    raise BadParams("no normal element found")  # unreachable: they always exist


# ---------------------------------------------------------------------------
# construction and text forms
# ---------------------------------------------------------------------------

def _default_modulus(p: int, degree: int) -> tuple[int, ...]:
    """Lexicographically least monic primitive polynomial of the degree.

    Candidates are ordered by their non-leading coefficient vector read as a
    base-p integer (ascending degree, least significant first).
    """
    for low in range(1, p**degree):
        coeffs = []
        c = low
        for _ in range(degree):
            c, r = divmod(c, p)
            coeffs.append(r)
        coeffs.append(1)
        if coeffs[0] == 0:
            continue
        if _is_irreducible(coeffs, p) and _root_is_primitive(coeffs, p):
            return tuple(coeffs)
    raise BadParams(f"no primitive polynomial of degree {degree} over F_{p}")


_tower_cache: dict[tuple, FieldTower] = {}

_TOWER_GUARD = 2**20  # largest top field: once built, each table holds an entry per element


def make_tower(p: int, e: int, m: int,
               modulus: Sequence[int] | None = None) -> FieldTower:
    """Build the tower F_p <= F_{p^e} <= F_{p^(e*m)}.

    With no modulus, the lexicographically least monic primitive polynomial
    of degree e*m is searched for, so construction is deterministic.  A
    supplied modulus must be irreducible (ReducibleModulus otherwise) and
    primitive (NotPrimitiveModulus otherwise); its root is the tower
    generator.

    Towers are interned: equal parameters return the identical instance, so
    elements parsed from files interoperate with programmatic ones, and a
    request seen before skips the modulus search and checks.  Top fields of
    more than 2^20 elements raise TooLarge before any table.
    """
    if e < 1 or m < 1:
        raise BadParams("e and m must be positive")
    degree = e * m
    # 2^degree alone exceeds the guard once degree reaches its bit length
    if p > 1 and (degree >= _TOWER_GUARD.bit_length() or p**degree > _TOWER_GUARD):
        raise TooLarge(f"|F| = {p}^{degree} exceeds the tower guard {_TOWER_GUARD}")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    mod = None if modulus is None else tuple(c % p for c in modulus)
    request = (p, e, m, mod)
    if request in _tower_cache:  # only requests that passed the checks below
        return _tower_cache[request]
    if mod is None:
        mod = _default_modulus(p, degree)
    else:
        if len(mod) != degree + 1:
            raise BadParams(f"modulus must have degree {degree} (length {degree + 1})")
        if mod[-1] != 1:
            raise BadParams("modulus must be monic")
        if not _is_irreducible(mod, p):
            raise ReducibleModulus(f"{list(mod)} factors over F_{p}")
        if not _root_is_primitive(mod, p):
            raise NotPrimitiveModulus(
                "modulus is irreducible but its root is not primitive")
    key = (p, e, m, mod)
    if key not in _tower_cache:
        _tower_cache[key] = FieldTower(p, e, m, mod)
    _tower_cache[request] = _tower_cache[key]
    return _tower_cache[key]


_FIELD_SPEC_RE = re.compile(
    r"^gf\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*"
    r"(?:;\s*modulus=\[(\s*\d+\s*(?:,\s*\d+\s*)*)\]\s*)?\)$", re.ASCII
)
# an integer in a text form; int() alone would also read "١" (Arabic-Indic 1) and "1_0"
_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def parse_int(text: str, what: str) -> int:
    """The integer `text` spells (an optional sign, then ASCII digits);
    BadParams naming `what` and the text otherwise."""
    if not _INT_RE.fullmatch(text):
        raise BadParams(f"{what} must be an integer, got {text.strip()!r}")
    return int(text)


def parse_field_spec(spec: str) -> FieldTower:
    """Parse `gf(p,e,m)` or `gf(p,e,m;modulus=[c0,...])`."""
    mm = _FIELD_SPEC_RE.match(spec.strip())
    if not mm:
        raise BadParams(f"bad field spec: {spec!r}")
    p, e, m = int(mm.group(1)), int(mm.group(2)), int(mm.group(3))
    modulus = None
    if mm.group(4) is not None:
        modulus = [int(tok) for tok in mm.group(4).split(",")]
    return make_tower(p, e, m, modulus)


def format_element(x: FieldElement) -> str:
    if x.code == 0:
        return "0"
    return f"g^{x.tower.log(x.code)}"


def parse_element(tower: FieldTower, text: str) -> FieldElement:
    text = text.strip()
    if text == "0":
        return tower.zero
    if text == "g":
        return tower.generator
    if text.startswith("g^") and _INT_RE.fullmatch(text[2:]):
        return tower.gen_power(int(text[2:]))
    if text.startswith("poly:[") and text.endswith("]"):
        coeffs = text[len("poly:["):-1].split(",")
        if all(_INT_RE.fullmatch(c) for c in coeffs):
            return tower.from_coeffs([int(c) for c in coeffs])
    if text.isascii() and text.isdigit() and int(text) < tower.p:
        return tower.from_coeffs([int(text)])
    raise BadParams(f"bad element literal: {text!r}")
