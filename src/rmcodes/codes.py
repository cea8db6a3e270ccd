"""Rank-metric codes, matrix codes, and the Gabidulin construction.

A rank-metric code here is always F_{q^m}-linear and stored by a full-rank
generator matrix over the top field; a matrix code is F_q-linear and stored
by an independent list of l x m basis matrices.  Codeword streams are
generated on demand by ranging over the message space, never materialised.
Minimum distance is the minimum nonzero rank weight, which for linear codes
coincides with minimum pairwise distance.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .elimination import flatten, span
from .errors import BadParams, DependentVector, NonlinearCode, TooLarge, TowerMismatch
from .expansion import compress_codes, coords_codes, expand
from .fields import (
    FieldElement,
    FieldTower,
    IndependentTuple,
    OrderedBasis,
    parse_field_spec,
    parse_int,
)
from .matrices import DEFAULT_GUARD, Mat, format_matrix, parse_matrix, rank


class RankMetricCode:
    """An F_{q^m}-linear code C <= F_{q^m}^l given by a full-rank generator."""

    def __init__(self, gen: Mat, *, _span=None):
        """_span: the span of gen's rows, from a caller that inserted each
        row and found it independent; the rows are then not checked again."""
        tower = gen.tower
        if gen.subdeg != tower.m:
            raise BadParams("generator must be tagged with the top field")
        if _span is None:
            _span = span(tower, gen.ncols, tower.m)
            if not all(map(_span.add, gen.rows)):
                raise BadParams("generator matrix must have full row rank")
        if not gen.rows:
            raise BadParams("generator matrix must have full row rank")
        self._span = _span
        self.tower = tower
        self.gen = gen
        self.k = gen.nrows
        self.l = gen.ncols

    @property
    def size(self) -> int:
        return self.tower.order**self.k

    def contains_codes(self, vec: Sequence[int]) -> bool:
        """Whether vec (codes) is a codeword; False for a length other than l."""
        return len(vec) == self.l and self._span.contains(vec)

    def contains(self, vec: Sequence[FieldElement]) -> bool:
        return self.contains_codes([x.code for x in vec])

    def codeword_codes(self) -> Iterator[tuple[int, ...]]:
        for msg in itertools.product(range(self.tower.order), repeat=self.k):
            yield self.gen.vec_mul(msg)

    def __eq__(self, other):
        if not isinstance(other, RankMetricCode):
            return NotImplemented
        if (self.tower is not other.tower or self.l != other.l
                or self.k != other.k):
            return False
        return all(self.contains_codes(row) for row in other.gen.rows)

    def __hash__(self):
        raise TypeError("codes are compared by span; not hashable")

    def __repr__(self):
        return f"RankMetricCode(l={self.l}, k={self.k}, {self.tower.spec_string()})"


class GabidulinCode(RankMetricCode):
    """Generator rows are the iterated q-power images of one independent vector."""

    def __init__(self, g: IndependentTuple, k: int):
        tower = g.tower
        l = len(g)
        if not 1 <= k <= l:
            raise BadParams(f"need 1 <= k <= l, got k={k}, l={l}")
        if l >= tower.m:
            raise BadParams(f"need l < m, got l={l}, m={tower.m}")
        rows = [g.codes()]
        for _ in range(k - 1):
            rows.append(tuple(tower.frob(c, tower.e) for c in rows[-1]))
        super().__init__(Mat(tower, rows, subdeg=tower.m, check=False))
        self.g = g

    def __repr__(self):
        return (f"GabidulinCode(k={self.k}, g=({', '.join(map(str, self.g))}), "
                f"{self.tower.spec_string()})")


def gabidulin(k: int, g) -> GabidulinCode:
    """Build the Gabidulin code of dimension k on the vector g.

    g may be an IndependentTuple or a sequence of field elements; entries
    must be independent over F_q (DependentVector otherwise) and the shape
    must satisfy 1 <= k <= l < m (BadParams otherwise).
    """
    if not isinstance(g, IndependentTuple):
        els = tuple(g)
        if not els:
            raise BadParams("empty Gabidulin vector")
        m = els[0].tower.m
        if len(els) >= m:
            raise BadParams(f"need l < m, got l={len(els)}, m={m}")
        g = IndependentTuple(els)
    return GabidulinCode(g, k)


class MatrixCode:
    """An F_q-linear code of l x m matrices, stored by an independent basis."""

    def __init__(self, tower: FieldTower, l: int, m: int,
                 basis: Sequence[Mat] = ()):
        if l < 1 or m < 1:
            raise BadParams(f"need l, m >= 1, got l={l}, m={m}")
        self.tower = tower
        self.l = l
        self.m = m
        self.basis = tuple(basis)
        self._span = span(tower, l * m)
        for B in self.basis:
            if B.tower is not tower:
                raise TowerMismatch("basis matrix from a different tower")
            if B.shape() != (l, m) or B.subdeg != 1:
                raise BadParams("basis matrices must be l x m over F_q")
            if not self._span.add(flatten(B.rows)):
                raise DependentVector("matrix code basis is dependent")
        # the basis as one matrix of flattened rows: codewords are msg @ it
        self._flat = Mat(tower, [flatten(B.rows) for B in self.basis],
                         subdeg=1, check=False, ncols=l * m)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.tower.q**self.dim

    def contains(self, A: Mat) -> bool:
        if A.shape() != (self.l, self.m):
            return False
        return self._span.contains(flatten(A.rows))

    def _word(self, msg: Sequence[int]) -> Mat:
        """The codeword with coordinates msg in the basis."""
        flat, m = self._flat.vec_mul(msg), self.m
        return Mat(self.tower, [flat[i * m:(i + 1) * m] for i in range(self.l)],
                   subdeg=1, check=False, ncols=m)

    def messages(self) -> Iterator[tuple[int, ...]]:
        """Coordinate tuples (codes of F_q elements), in codewords() order."""
        return itertools.product(self.tower.subfield_codes(1), repeat=self.dim)

    def codewords(self) -> Iterator[Mat]:
        for msg in self.messages():
            yield self._word(msg)

    def __eq__(self, other):
        if not isinstance(other, MatrixCode):
            return NotImplemented
        if (self.tower is not other.tower or (self.l, self.m) != (other.l, other.m)
                or self.dim != other.dim):
            return False
        return all(self.contains(B) for B in other.basis)

    def __hash__(self):
        raise TypeError("codes are compared by span; not hashable")

    def __repr__(self):
        return (f"MatrixCode({self.l}x{self.m}, dim={self.dim}, "
                f"{self.tower.spec_string()})")


def matrix_code(basis: Sequence[Mat]) -> MatrixCode:
    basis = tuple(basis)
    if not basis:
        raise BadParams("use MatrixCode(tower, l, m) directly for the zero code")
    first = basis[0]
    return MatrixCode(first.tower, first.nrows, first.ncols, basis)


def rank_weight(x, b: OrderedBasis) -> int:
    """Rank of the basis expansion of x; independent of the basis choice."""
    return rank(expand(x, b))


def _projective_messages(alphabet: Sequence[int], k: int):
    """Nonzero messages up to leading-coefficient scaling: first nonzero is 1."""
    for lead in range(k):
        for tail in itertools.product(alphabet, repeat=k - lead - 1):
            yield (0,) * lead + (1,) + tail


def min_rank_distance(code, guard: int = DEFAULT_GUARD) -> int:
    """Minimum nonzero rank weight, by exhaustion over the message space.

    Scalar multiples share a weight, so only projective messages are
    scanned; the guard still limits the full code size.
    """
    t = code.tower
    if code.size > guard:
        raise TooLarge(f"|code| = {code.size} exceeds guard {guard}")
    if isinstance(code, RankMetricCode):
        alphabet, k = range(t.order), code.k

        def weight(msg):
            return t.fq_rank([t.fq_coords(c) for c in code.gen.vec_mul(msg)])
    elif isinstance(code, MatrixCode):
        if code.dim == 0:
            raise BadParams("minimum distance of the zero code is undefined")
        alphabet, k = t.subfield_codes(1), code.dim

        def weight(msg):
            return rank(code._word(msg))
    else:
        raise BadParams(f"unsupported code type {type(code).__name__}")
    best = None
    for msg in _projective_messages(alphabet, k):
        w = weight(msg)
        if best is None or w < best:
            best = w
            if best == 1:
                break
    return best


def expand_code(c: RankMetricCode, b: OrderedBasis) -> MatrixCode:
    """The matrix code eps_b(C): expansions of an F_q-basis of C.

    The m*k products of generator rows by basis elements form an F_q-basis
    because the generator has full rank; MatrixCode checks it.
    """
    tower = c.tower
    mats = [coords_codes([tower.mul(e, x) for x in row], b)
            for row in c.gen.rows for e in b.codes()]
    return MatrixCode(tower, c.l, tower.m, mats)


def _compressed(mc: MatrixCode, b: OrderedBasis) -> tuple:
    """(rows, span, linear): the compressed basis matrices of mc that are
    independent over F_{q^m} of the ones before them, their span over
    F_{q^m}, and whether eps_b^{-1}(mc) is closed under scalars from the
    top field.

    The span holds q^(m*rank) words, a superset of the |mc| compressed
    words; the two agree exactly when the compressed set is a top-field
    subspace.
    """
    tower = mc.tower
    # compress_codes checks each matrix, but mc may have none
    if b.tower is not tower:
        raise TowerMismatch("code and basis from different towers")
    if mc.m != tower.m:
        raise BadParams(f"matrix has {mc.m} columns, basis has {tower.m}")
    s = span(tower, mc.l, tower.m)
    rows = [v for v in (compress_codes(B, b) for B in mc.basis) if s.add(v)]
    return rows, s, tower.order**s.rank == mc.size


def compress_code(mc: MatrixCode, b: OrderedBasis) -> RankMetricCode:
    """eps_b^{-1}(mc) when that set is F_{q^m}-linear; NonlinearCode otherwise,
    and BadParams for the zero code, as for a code file with k = 0."""
    rows, s, linear = _compressed(mc, b)
    if not linear:
        raise NonlinearCode("compressed set is not linear over the top field")
    if not rows:
        raise BadParams("a rank-metric code needs k >= 1")
    return RankMetricCode(Mat(mc.tower, rows, subdeg=mc.tower.m, check=False), _span=s)


# ---------------------------------------------------------------------------
# code files
# ---------------------------------------------------------------------------

def format_code_file(code) -> str:
    tower = code.tower
    if isinstance(code, RankMetricCode):
        header = "gabidulin" if isinstance(code, GabidulinCode) else "rankmetric"
        shape = f"l={code.l},m={tower.m},k={code.k}"
        body = [format_matrix(Mat(tower, [row], subdeg=tower.m, check=False))
                for row in code.gen.rows]
    elif isinstance(code, MatrixCode):
        header = "matrix"
        shape = f"l={code.l},m={code.m},k={code.dim}"
        body = [format_matrix(B) for B in code.basis]
    else:
        raise BadParams(f"unsupported code type {type(code).__name__}")
    return "\n".join([header, tower.spec_string(), shape, *body]) + "\n"


def parse_keyed(parts: Sequence[str], keys: Sequence[str], required: Sequence[str],
                what: str) -> dict[str, str]:
    """The key=value parts of a shape line or map literal, values stripped;
    BadParams for a part that is not key=value, a key not in keys, a
    repeated key or a missing required key."""
    out: dict[str, str] = {}
    for part in parts:
        key, eq, val = (s.strip() for s in part.partition("="))
        if not eq or not key:
            raise BadParams(f"{what} part {part.strip()!r} is not key=value")
        if key not in keys:
            raise BadParams(f"unknown key {key!r} in {what}; keys are {', '.join(keys)}")
        if key in out:
            raise BadParams(f"repeated key {key!r} in {what}")
        out[key] = val
    if missing := [k for k in required if k not in out]:
        raise BadParams(f"{what} lacks {', '.join(missing)}")
    return out


def parse_shape(line: str, keys: Sequence[str]) -> dict[str, int]:
    """Parse a `key=int,...` shape line holding each of keys once."""
    shape = parse_keyed(line.split(","), keys, keys, f"shape line {line!r}")
    return {key: parse_int(val, f"{key} in shape line {line!r}") for key, val in shape.items()}


def parse_code_file(text: str):
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 3:
        raise BadParams("code file needs header, field and shape lines")
    header, field_line, shape_line = lines[0], lines[1], lines[2]
    if header not in ("rankmetric", "gabidulin", "matrix"):
        raise BadParams(f"unknown code file header {header!r}")
    tower = parse_field_spec(field_line)
    shape = parse_shape(shape_line, ("l", "m", "k"))
    l, m, k = shape["l"], shape["m"], shape["k"]
    body = lines[3:]
    if len(body) != k:
        raise BadParams(f"{len(body)} rows or matrices listed, shape line says k={k}")
    if header == "matrix":  # MatrixCode checks each matrix is l x m
        return MatrixCode(tower, l, m, [parse_matrix(tower, ln) for ln in body])
    if m != tower.m:
        raise BadParams(f"shape line says m={m}, field has m={tower.m}")
    if k < 1:
        raise BadParams("a rank-metric code needs k >= 1")
    rows = []
    for ln in body:
        R = parse_matrix(tower, ln, subdeg=tower.m)
        if R.shape() != (1, l):
            raise BadParams(f"generator row {ln!r} is not 1 x {l}")
        rows.append(R.rows[0])
    if header == "gabidulin":
        g = IndependentTuple(tuple(FieldElement(tower, c) for c in rows[0]))
        code = GabidulinCode(g, k)
        if code.gen.rows != tuple(rows):
            raise BadParams("listed rows are not the q-power iterates of row 1")
        return code
    return RankMetricCode(Mat(tower, rows, subdeg=tower.m))
