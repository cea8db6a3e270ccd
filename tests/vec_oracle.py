"""Product-form oracle for the vector matrix of a linear matrix map.

Row-major concatenation turns A -> L A M into v -> v (L^T (x) M), and the
transpose flag contributes a fixed permutation factor on the left.  The
library reads the vector matrix off the map's action on unit matrices
instead; this module keeps the factorisation so the two can be compared.
"""

from rmcodes import Mat


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
