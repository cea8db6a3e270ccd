"""The vector forms of linear matrix maps, and the rank-preservation scan.

Row-major concatenation turns A -> L A M into v -> v (L^T (x) M), and the
transpose flag contributes a fixed permutation factor on the left.
vec_matrix reads the vector matrix off the map's action on unit matrices
instead, and vec_matrix_product keeps the factorisation, so the two can be
compared.  rank_preserving_vec_maps is the oracle of criterion 6: every
member of GL_{lm}(F_q) that preserves rank is the vec_matrix of one
canonical linear matrix map.
"""

import itertools

from rmcodes import BadParams, Mat, TooLarge, enumerate_gl, rank
from rmcodes.elimination import flatten


def kronecker(L: Mat, M: Mat) -> Mat:
    """Kronecker product L (x) M; (i,j) block is L[i][j] * M.

    Acting on row vectors formed by concatenating the rows of an l x m
    matrix A, the product P (x) R realises A -> P^T A R.
    """
    mul = L.tower.mul
    rows = [[mul(c, x) for c in L.rows[li] for x in M.rows[mi]]
            for li in range(L.nrows) for mi in range(M.nrows)]
    return Mat(L.tower, rows, L.subdeg, check=False)


def transpose_perm_matrix(tower, l: int) -> Mat:
    """Permutation on concatenated-row vectors realising matrix transposition."""
    n = l * l
    return Mat(tower, [[int(c == (k % l) * l + k // l) for c in range(n)]
                       for k in range(n)], check=False)


def vec_matrix_product(f) -> Mat:
    """The vector matrix of a linear MatMap from its factorisation."""
    K = kronecker(f.L.transpose(), f.M)
    return transpose_perm_matrix(f.tower, f.l) @ K if f.transpose else K


def vec_matrix(f) -> Mat:
    """The lm x lm matrix acting on concatenated-row vectors as the MatMap f
    does: its row k is the image of E_k, the k-th unit l x m matrix in
    row-major order, read off f's action.  Only defined for linear maps
    (gamma = 0).
    """
    if f.gamma:
        raise BadParams("vector form exists for linear maps only")
    l, m = f.shape
    units = (Mat(f.tower, [[int(i * m + j == k) for j in range(m)] for i in range(l)],
                 check=False) for k in range(l * m))
    return Mat(f.tower, [flatten(f.apply_mat(E).rows) for E in units], check=False)


def rank_preserving_vec_maps(tower, l: int, m: int) -> list[Mat]:
    """All G in GL_{lm}(F_q) that preserve rank on every l x m matrix.

    Brute force: enumerates the whole general linear group and filters by
    checking rank(A) = rank(A') on all q^(lm) matrices, where the row vector
    of A' is the row vector of A times G.  Desk scale only.
    """
    codes = tower.subfield_codes(1)
    if len(codes) ** (l * m) > 2**16:
        raise TooLarge("matrix space too large for the rank-preservation scan")
    ranks = {}
    for entries in itertools.product(codes, repeat=l * m):
        A = Mat(tower, [entries[i * m:(i + 1) * m] for i in range(l)],
                subdeg=1, check=False)
        ranks[entries] = rank(A)
    return [G for G in enumerate_gl(tower, l * m)
            if all(ranks[G.vec_mul(v)] == r for v, r in ranks.items())]
