"""The one exact elimination kernel: echelon form, rank, solves and spans.

Rows are sequences of element codes of a tower whose entries lie in the
subfield F_{q^subdeg}.  The kernel picks one of three row forms from that
input alone.  Entries in F_2 (p = 2, e = 1, subdeg = 1) are packed into one
Python int per row, column 0 in the most significant bit, and combined with
XOR.  Entries in F_3 (p = 3, e = 1, subdeg = 1) are packed into two such
ints, the bit planes of the entries 1 and 2, and combined with a few bit
operations.  Every other field (p >= 5, e > 1, or entries in a larger
subfield) keeps lists of codes and combines them with
FieldTower.add_scaled, which runs on the log/exp tables bound to locals
(and, for odd p, the Zech logarithm table that turns each sum into a lookup).

Each representation keeps one basis per :class:`Span`, grown a row at a
time by one insertion loop that add, span, extended and relations all
share: the forward echelon basis, whose rows are each one at their pivot
and zero at the pivots of the rows before them, and which is never
back-substituted.  A row that depends on the basis leaves a residual;
when the rows record themselves in extra columns, as [rows | I] does,
those columns of the residual are a relation among the rows, so a
nullspace is one pass of relations.  Residuals modulo a span are unique,
so reduction, membership and decomposition, and the reduced echelon form
that reduced() makes for echelon form, inverse and subspaces, are
identical to the textbook Gauss-Jordan on the tower's arithmetic that
the test suite keeps as its oracle.  The free choices, the particular
solution of a decomposition over dependent rows and the basis of a
nullspace, use only the rows that are independent of the rows before
them.  Pivot columns are 1-based.

The rank of a sum of two spans (join_rank, the one elimination behind a
subspace distance, on each row form's own reduction and insertion)
copies neither span: it eliminates only the residuals of one basis
modulo the other, in a fresh span.  Where many pairs of spans of one
small space meet, counting beats eliminating: an F_2 or F_3 row read as
one integer (an F_2 row's own int, an F_3 row's ones | twos << len)
indexes the members of F_q^n, member_mask() sets the bit of each member
of a span, and the members of an intersection are the set bits of one
AND.  member_masks() alone decides where masks serve a scan of pairs:
small rows, spans of few members next to their count, and a bounded
total; join_rank serves the rest, the list form and single pairs.

Callers that build many systems from one set of rows hold those rows in the
kernel's form (:meth:`Span.pack`), make each system's rows with
:meth:`Span.combine` and eliminate them as they are.

Only :mod:`rmcodes.errors` is imported, so :mod:`rmcodes.fields` can use
this module too.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress
from operator import xor
from typing import Iterable, Iterator, Sequence

from .errors import NotInSpan, Singular

# Member masks (member_masks) serve rows of at most MASK_BITS bits, and at
# most SCAN_MASK_BITS bits of masks in one call.  A pair costs one AND and
# one popcount of 2**MASK_BITS-bit ints against one join_rank; on random
# subspaces of dimension 2 and 3 the two break even at 15 to 16 bits.
MASK_BITS = 14
SCAN_MASK_BITS = 1 << 26  # 8 MiB: 4096 masks of 2**14 bits


class Span:
    """A growing row space over one field, held as a forward echelon basis.

    Each basis row is one at its pivot, its first nonzero column, and zero
    at the pivots of the rows that joined before it; a row never changes
    once it is in.  So subtracting the basis rows in the order they joined,
    each times the entry the reduced row has at its pivot by then, clears
    every pivot: a basis row is zero at the pivots cleared before it.  A row
    less a combination of the basis is zero at every pivot for one
    combination only, so its residual is the one a reduced basis leaves,
    and reduce, contains, add_at and decompose read unique results off it;
    rows() reduces the basis on read.

    Rows have width + extra entries and pivots lie in the first width
    columns, so the extra columns can record how each basis row was formed.
    Subclasses say how a row is held: _pack and _unpack convert a row,
    _lead reads its first nonzero column before width (None if there is
    none), _reduce clears the pivots, _insert joins each row that is
    independent of the span so far and returns the residuals of the
    others, in order, and combine(coeffs, rows) is the sum of
    coeffs[i] * rows[i].  The methods below run on those in every form,
    join_rank included; only pack has a packed override (_F2Span).
    """

    _planes = 0  # bit planes of a packed row, read as one member index; 0: no masks

    def __init__(self, tower, width: int, extra: int = 0):
        self.tower = tower
        self.width = width
        self._len = width + extra
        self._basis: dict = {}  # basis rows, in the order they joined

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec; returns False (and changes nothing) if it is dependent."""
        return not self._insert((self._pack(vec),))

    def add_at(self, vec: Sequence[int]) -> tuple[int, int] | None:
        """Insert vec and return (c, x): c is the first column, 0-based, at
        which vec leaves the span, and x the entry at c shared by every span
        member that agrees with vec before c.  None, changing nothing, when
        vec is dependent."""
        v = self._reduce(self._pack(vec))
        col = self._lead(v)
        if col is None:
            return None
        # v is vec minus one such member: zero before c, nonzero at c
        x = self.tower.sub(vec[col], self._unpack(v)[col])
        self._insert((v,))
        return col, x

    def _copy(self) -> "Span":
        new = object.__new__(type(self))
        new.__dict__.update(vars(self))
        new._basis = self._basis.copy()
        return new

    def extended(self, rows: Iterable[Sequence[int]]) -> "Span | None":
        """A new span of this basis and rows, or None when a row lies in the
        span of this basis and the rows before it; this span does not change."""
        new = self._copy()
        return None if new._insert(map(new._pack, rows)) else new

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """vec minus the combination of basis rows that clears their pivots."""
        return self._unpack(self._reduce(self._pack(vec)))

    def pack(self, vec: Sequence[int], at: int = 0):
        """vec in this span's row form, placed from column at of a row of
        width + extra entries that is zero elsewhere."""
        return self._pack((0,) * at + tuple(vec) + (0,) * (self._len - at - len(vec)))

    def relations(self, rows: Iterable) -> list[tuple[int, ...]]:
        """For each row, in this span's row form, that depends on this basis
        and the rows before it, the extra columns of what is left once they
        are subtracted; for rows that record themselves in the extra
        columns, as [rows | I] does, from an empty span, a basis of the
        nullspace.  The rows join a copy, so this span does not change."""
        return [self._unpack(v)[self.width:] for v in self._copy()._insert(rows)]

    def contains(self, vec: Sequence[int]) -> bool:
        return self._lead(self._reduce(self._pack(vec))) is None

    @property
    def rank(self) -> int:
        return len(self._basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._lead(b) + 1 for b in self._basis.values()))

    def reduced(self) -> "Span":
        """The span of this basis held as reduced row echelon form; its
        basis rows, in the order they joined, have descending pivots.

        The rows join an empty span by descending pivot: each is cleared at
        the pivots after its own, and the rows before it are zero at its
        pivot, which comes before theirs.
        """
        rref = type(self)(self.tower, self.width, self._len - self.width)
        rref._insert(sorted(self._basis.values(), key=self._lead, reverse=True))
        return rref

    def rows(self) -> list[tuple[int, ...]]:
        """The basis as reduced row echelon form (pivot columns ascending)."""
        return [self._unpack(v) for v in reversed(self.reduced()._basis.values())]

    def join_rank(self, other: "Span") -> int:
        """Dimension of the sum of two spans of one space, in one row form
        (span() picks it from the tower and subdeg); neither changes.

        Only the residuals of other's basis rows modulo this basis are
        eliminated, in a fresh span: a nonzero member of this span is
        nonzero at one of its pivots, where every residual combination is
        zero, so the residuals meet this span in zero and the sum has rank
        self.rank plus the rank of the residuals.
        """
        new = type(self)(self.tower, self.width, self._len - self.width)
        new._insert(map(self._reduce, other._basis.values()))
        return self.rank + new.rank


class _F2Span(Span):
    """Rows packed into ints, column j at bit (len - 1 - j); XOR arithmetic.
    The basis is keyed by each row's bit length, and _mask holds its pivot
    bits."""

    _mask = 0
    _planes = 1
    _bits = bytes.maketrans(b"01", b"\0\1")

    def _pack(self, vec):
        v = 0
        for x in vec:
            v = v << 1 | x
        return v

    def _unpack(self, v):
        # v's binary digits below a leading one (so width 0 gives none), as 0/1
        return tuple(f"{v | 1 << self._len:b}"[1:].encode().translate(self._bits))

    def pack(self, vec, at=0):
        return self._pack(vec) << (self._len - at - len(vec))

    def member_mask(self) -> int:
        """The members of this span as the set bits of one int, the bit of
        each member v at v: the span doubled by one basis row at a time."""
        members, mask = [0], 0
        for b in self._basis.values():
            members += [v ^ b for v in members]
        for v in members:
            mask |= 1 << v
        return mask

    def _lead(self, v):
        col = self._len - v.bit_length()
        return col if col < self.width else None

    def _reduce(self, v):
        # a basis row is zero before its pivot, its leading bit, so clearing
        # the first pivot left in v never sets an earlier one
        basis, mask = self._basis, self._mask
        while x := v & mask:
            v ^= basis[x.bit_length()]
        return v

    def _insert(self, rows):
        # _reduce's walk, inline: a call per row slows the F_2 solves by a fifth
        basis, mask, extra, dependent = self._basis, self._mask, self._len - self.width, []
        for v in rows:
            while x := v & mask:
                v ^= basis[x.bit_length()]
            if v >> extra:
                basis[v.bit_length()] = v
                mask |= 1 << v.bit_length() - 1
            else:
                dependent.append(v)
        self._mask = mask
        return dependent

    def combine(self, coeffs, rows):
        return reduce(xor, compress(rows, coeffs), 0)


class _F3Span(Span):
    """Rows as two bit planes (ones, twos): column j at bit (len - 1 - j) of
    ones when its entry is 1, of twos when it is 2.  Negation swaps the
    planes, so v - c*b is a sum, a few int operations.  The basis is keyed
    by each row's bit length, and _mask holds its pivot bits."""

    _mask = 0
    _planes = 2

    def _pack(self, vec):
        ones = twos = 0
        for x in vec:
            ones, twos = ones << 1 | x & 1, twos << 1 | x >> 1
        return ones, twos

    def _unpack(self, v):
        return tuple([(v[0] >> s & 1) | (v[1] >> s & 1) << 1
                      for s in range(self._len - 1, -1, -1)])

    def member_mask(self) -> int:
        """The members of this span as the set bits of one int, the bit of
        member (ones, twos) at ones | twos << len: the span tripled by one
        basis row b at a time, each member plus b and plus 2b (b's planes
        swapped) by the plane sum below."""
        members = [(0, 0)]
        for b1, b2 in self._basis.values():
            members += [((t := v1 | c2) ^ ((c1 | c2) & ~v2), t ^ ((v1 | v2) & ~c1))
                        for c1, c2 in ((b1, b2), (b2, b1)) for v1, v2 in members]
        n, mask = self._len, 0
        for v1, v2 in members:
            mask |= 1 << (v1 | v2 << n)
        return mask

    def _lead(self, v):
        col = self._len - (v[0] | v[1]).bit_length()
        return col if col < self.width else None

    # The walks below clear the first pivot left in v, x's top bit, as
    # _F2Span's do.  The planes are disjoint, so the entry there is 1 when
    # x1 = v1 & mask holds more than half of x.  They add to v the pivot's
    # basis row b, to take 2b off, or b with its planes swapped, to take b
    # off; the sum of (v1, v2) and (b1, b2), entry by entry mod 3, is
    #     t = v1 | b2;  (t ^ ((b1 | b2) & ~v2), t ^ ((v1 | v2) & ~b1)).

    def _reduce(self, v):
        basis, mask, (v1, v2) = self._basis, self._mask, v
        while x := (x1 := v1 & mask) | v2 & mask:
            b1, b2 = basis[x.bit_length()]
            if x1 > x >> 1:
                b1, b2 = b2, b1
            t = v1 | b2
            v1, v2 = t ^ ((b1 | b2) & ~v2), t ^ ((v1 | v2) & ~b1)
        return v1, v2

    def _insert(self, rows):
        basis, mask, extra, dependent = self._basis, self._mask, self._len - self.width, []
        for v1, v2 in rows:
            while x := (x1 := v1 & mask) | v2 & mask:
                b1, b2 = basis[x.bit_length()]
                if x1 > x >> 1:
                    b1, b2 = b2, b1
                t = v1 | b2
                v1, v2 = t ^ ((b1 | b2) & ~v2), t ^ ((v1 | v2) & ~b1)
            if (v1 | v2) >> extra:
                n = (v1 | v2).bit_length()
                basis[n] = (v1, v2) if v1 > v2 else (v2, v1)  # one at the pivot
                mask |= 1 << n - 1
            else:
                dependent.append((v1, v2))
        self._mask = mask
        return dependent

    def combine(self, coeffs, rows):
        v1 = v2 = 0
        for c, (b1, b2) in zip(coeffs, rows):
            if c:
                if c == 2:
                    b1, b2 = b2, b1
                t = v1 | b2
                v1, v2 = t ^ ((b1 | b2) & ~v2), t ^ ((v1 | v2) & ~b1)
        return v1, v2


class _TowerSpan(Span):
    """Rows as lists of codes, combined by the tower's table arithmetic; the
    basis is keyed by pivot column, and its rows are tuples, so they hash."""

    _pack = list
    _unpack = tuple

    def _lead(self, v):
        for c in range(self.width):
            if v[c]:
                return c
        return None

    def _reduce(self, v):
        t = self.tower
        for col, b in self._basis.items():
            if c := v[col]:
                v = t.add_scaled(v, (c if t.p == 2 else t.neg(c),), (b,))
        return v

    def _insert(self, rows):
        t, basis, dependent = self.tower, self._basis, []
        for v in rows:
            v = self._reduce(v)
            col = self._lead(v)
            if col is None:
                dependent.append(v)
            else:
                basis[col] = tuple(t.add_scaled([0] * len(v), (t.inv(v[col]),), (v,)))
        return dependent

    def combine(self, coeffs, rows):
        return self.tower.add_scaled([0] * self._len, coeffs, rows)


def span(tower, width: int, subdeg: int = 1, rows: Iterable[Sequence[int]] = (),
         extra: int = 0) -> Span:
    """The span of rows (inserted in order) over F_{q^subdeg}, held in the
    representation that field calls for."""
    if subdeg == 1 and tower.e == 1 and tower.p <= 3:
        cls = _F2Span if tower.p == 2 else _F3Span
    else:
        cls = _TowerSpan
    s = cls(tower, width, extra)
    s._insert(map(s._pack, rows))
    return s


def member_masks(spans: Sequence[Span]) -> Iterator[int] | None:
    """The member mask of each of spans, spans of one space and one rank,
    built as it is read, for a scan of their pairs; None where masks do not
    pay, and join_rank should serve.

    Masks serve F_2 and F_3 rows of at most MASK_BITS bits, and at most
    SCAN_MASK_BITS bits of masks in all, since a mask takes 2**bits bits
    whatever its span.  A mask's build takes a Python step per member, a
    few join_ranks' time for a span of dimension 1 or 2 and hundreds for
    one of dimension 10, and is shared by the len(spans) - 1 pairs of its
    span; so masks serve only spans of at most len(spans) members.  At that
    bound a full scan of random spans of dimension 3 or more takes at most
    as long as its join_ranks, and at most about half as long at twice as
    many spans.
    """
    if not spans:
        return None
    s = spans[0]
    bits = s._planes * s._len
    if (not 0 < bits <= MASK_BITS or len(spans) << bits > SCAN_MASK_BITS
            or s.tower.p ** s.rank > len(spans)):
        return None
    return (t.member_mask() for t in spans)


def flatten(rows: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Concatenate the rows of a matrix into one row-major vector."""
    return tuple(chain.from_iterable(rows))


def _augmented(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The rows of [rows | I]: each row records itself as a combination."""
    n = len(rows)
    return [tuple(r) + (0,) * i + (1,) + (0,) * (n - 1 - i) for i, r in enumerate(rows)]


def solver(tower, rows: Sequence[Sequence[int]], width: int, subdeg: int = 1) -> Span:
    """The span of [rows | I]: each basis row ends with its combination of
    rows, so its rank is the rank of rows and decompose() reads solves off it."""
    return span(tower, width, subdeg, _augmented(rows), len(rows))


def inverse(tower, rows: Sequence[Sequence[int]],
            subdeg: int = 1) -> list[tuple[int, ...]]:
    """Rows of the inverse of a square matrix; Singular if there is none."""
    n = len(rows)
    s = solver(tower, rows, n, subdeg)
    if s.rank != n:
        raise Singular("matrix is singular")
    return [r[n:] for r in s.rows()]


def decompose(s: Span, targets: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Coefficient rows C with C times the rows of solver s equal to targets;
    NotInSpan if some target lies outside their row space."""
    width, t = s.width, s.tower
    zeros = (0,) * (s._len - width)
    out = []
    for w in targets:
        v = s.reduce(tuple(w) + zeros)
        if any(v[:width]):
            raise NotInSpan("target row outside the row space")
        # the extra columns hold -C, and -1 = 1 over F_2
        out.append(v[width:] if t.p == 2 else tuple(map(t.neg, v[width:])))
    return out
