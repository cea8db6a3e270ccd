"""Reference oracle: the product forms of the structured matrices.

expansion._image_matrix builds every matrix of a semilinear map
x -> (alpha x)^(p^gamma) in a basis by one rule.  Before it, each matrix
had its own construction, kept here: M_alpha, Q and P_r from the
coordinates of alpha b_i, b_i^q and b_i^(p^r) (P_0 the identity),
rm_to_mat as M_alpha Q^j P_r for gamma = e*j + r, and KSubgroup, the
subgroup K they generate, with a table of Q powers that factor peels off
one at a time.  The library keeps no K of its own: its members are the
images rm_to_mat gives the maps [g^i, I_1] with gamma = e*j.
test_translation.py checks the library against these.  Do not optimise
them: they are the slow path by design.
"""

from __future__ import annotations

from rmcodes.equivalence import MatMap, RmMap
from rmcodes.expansion import compress_codes, coords_codes
from rmcodes.fields import OrderedBasis
from rmcodes.matrices import Mat


def mult_matrix(alpha: int, b: OrderedBasis) -> Mat:
    t = b.tower
    return coords_codes([t.mul(alpha, x.code) for x in b.elements], b)


def frobenius_matrix(b: OrderedBasis) -> Mat:
    t = b.tower
    return coords_codes([t.frob(x.code, t.e) for x in b.elements], b)


def semilinear_matrix(b: OrderedBasis, r: int) -> Mat:
    t = b.tower
    r %= t.e
    if r == 0:
        return Mat.identity(t, t.m)
    return coords_codes([t.frob(x.code, r) for x in b.elements], b).frobenius(-r)


def rm_to_mat(f: RmMap, b: OrderedBasis) -> MatMap:
    j, r = divmod(f.gamma, f.tower.e)
    M = mult_matrix(f.alpha, b)
    if j:
        Q = frobenius_matrix(b)
        for _ in range(j):
            M = M @ Q
    if r:
        M = M @ semilinear_matrix(b, r)
    return MatMap(False, f.L.transpose(), M, r)


class KSubgroup:
    """K = <M_g> . <Q>, with membership by peeling Q powers."""

    def __init__(self, b: OrderedBasis):
        t = b.tower
        self.basis, self.tower = b, t
        Q = frobenius_matrix(b)
        self.q_powers = [Mat.identity(t, t.m)]
        for _ in range(t.m - 1):
            self.q_powers.append(self.q_powers[-1] @ Q)

    def factor(self, M: Mat) -> tuple[int, int] | None:
        t, b = self.tower, self.basis
        m = t.m
        if M.shape() != (m, m) or M.tower is not t:
            return None
        for j in range(m):
            N = M @ self.q_powers[(m - j) % m]
            gamma = compress_codes(Mat(t, [N.rows[0]], subdeg=1, check=False), b)[0]
            gamma = t.div(gamma, b.elements[0].code)
            if gamma and N == mult_matrix(gamma, b):
                return t.log(gamma), j
        return None

    def enumerate(self):
        t = self.tower
        for i in range(t.mult_order):
            Mg = mult_matrix(t.gen_power(i).code, self.basis)
            for j in range(t.m):
                yield Mg @ self.q_powers[j]
