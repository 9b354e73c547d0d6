"""Structure constants, their identities, and constant invariant metrics.

Everything here is exact rational arithmetic: antisymmetry, the Jacobi
identity, the Cartan tensor and its ad-invariance, and the inverse-metric
condition are all zero-tolerance checks.
"""

from __future__ import annotations

from fractions import Fraction

from .cnum import read_rational
from .record import FrozenRecord


class DegenerateCartanError(Exception):
    """The Cartan tensor has no inverse; use a frame-built metric instead."""


class StructureConstants(FrozenRecord):
    """c[k][i][j] holds the bracket coefficient of generator k in [i, j]."""

    _fields = ("r", "c")

    @staticmethod
    def from_dense(array) -> "StructureConstants":
        r = len(array)
        c = tuple(
            tuple(tuple(Fraction(array[k][i][j]) for j in range(r)) for i in range(r))
            for k in range(r)
        )
        return StructureConstants(r, c)

    @staticmethod
    def from_sparse(r: int, entries) -> "StructureConstants":
        """entries: iterable of {"k","i","j","value"} with 1-based indices.

        The antisymmetric mirror of each entry is filled in automatically;
        conflicting duplicates raise ValueError.
        """
        dense = [[[None] * r for _ in range(r)] for _ in range(r)]

        def put(k, i, j, v):
            cur = dense[k][i][j]
            if cur is not None and cur != v:
                raise ValueError(
                    f"conflicting values for C^{k + 1}_{{{i + 1}{j + 1}}}: {cur} vs {v}"
                )
            dense[k][i][j] = v

        for ent in entries:
            k, i, j = ent["k"] - 1, ent["i"] - 1, ent["j"] - 1
            if not (0 <= k < r and 0 <= i < r and 0 <= j < r):
                raise ValueError(f"index out of range in entry {ent}")
            val = ent["value"]
            v = read_rational(val) if isinstance(val, str) else Fraction(val)
            put(k, i, j, v)
            put(k, j, i, -v)
        return StructureConstants.from_dense([[[v or 0 for v in row] for row in plane] for plane in dense])


class ValidationReport(FrozenRecord):
    _fields = ("antisymmetry_violations", "jacobi_violations")

    @property
    def ok(self) -> bool:
        return not self.antisymmetry_violations and not self.jacobi_violations

    def to_json(self) -> dict:
        return {
            "valid": self.ok,
            "antisymmetry_violations": [list(v) for v in self.antisymmetry_violations],
            "jacobi_violations": [list(v) for v in self.jacobi_violations],
        }


def validate(sc: StructureConstants) -> ValidationReport:
    """Report every violated antisymmetry pair and Jacobi quadruple."""
    r, c = sc.r, sc.c
    anti = []
    for k in range(r):
        for i in range(r):
            for j in range(i, r):
                if c[k][i][j] != -c[k][j][i]:
                    anti.append((k + 1, i + 1, j + 1))
    jac = []
    for p in range(r):
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    tot = Fraction(0)
                    for s in range(r):
                        tot += (
                            c[p][i][s] * c[s][j][k]
                            + c[p][j][s] * c[s][k][i]
                            + c[p][k][s] * c[s][i][j]
                        )
                    if tot != 0:
                        jac.append((p + 1, i + 1, j + 1, k + 1))
    return ValidationReport(tuple(anti), tuple(jac))


class CartanTensor(FrozenRecord):
    """g[i][k], symmetric."""

    _fields = ("g", "rank", "invariance_ok")

    @property
    def is_degenerate(self) -> bool:
        return self.rank < len(self.g)


def cartan_tensor(sc: StructureConstants) -> CartanTensor:
    """g_ik = (1/2) C^l_ij C^j_lk, with rank and the ad-invariance identity."""
    r, c = sc.r, sc.c
    g = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for k in range(r):
            tot = Fraction(0)
            for l in range(r):
                for j in range(r):
                    tot += c[l][i][j] * c[j][l][k]
            g[i][k] = tot / 2
    ok = True
    for i in range(r):
        for j in range(r):
            for k in range(r):
                tot = Fraction(0)
                for l in range(r):
                    tot += c[l][i][j] * g[l][k] + c[l][i][k] * g[j][l]
                if tot != 0:
                    ok = False
    return CartanTensor(tuple(tuple(row) for row in g), rank=matrix_rank(g), invariance_ok=ok)


class ConstantMetric(FrozenRecord):
    """g_inv: contravariant components g^{ik}."""

    _fields = ("g_inv", "provenance", "killing_ok")


def invert_cartan(ct: CartanTensor, sc: StructureConstants) -> ConstantMetric:
    """Exact inverse of the Cartan tensor, certified against the algebraic
    Killing condition C^i_jl g^{lk} + C^k_jl g^{il} = 0."""
    if ct.is_degenerate:
        raise DegenerateCartanError(
            f"Cartan tensor has rank {ct.rank} < {len(ct.g)}; build the metric from an invariant frame"
        )
    ginv = matrix_inverse(ct.g)
    r, c = sc.r, sc.c
    ok = True
    for i in range(r):
        for j in range(r):
            for k in range(r):
                tot = Fraction(0)
                for l in range(r):
                    tot += c[i][j][l] * ginv[l][k] + c[k][j][l] * ginv[i][l]
                if tot != 0:
                    ok = False
    return ConstantMetric(tuple(tuple(row) for row in ginv), "cartan-inverse", killing_ok=ok)


# --- exact linear algebra -------------------------------------------------


def gauss_jordan(m) -> tuple[list, list]:
    """Exact Gauss-Jordan elimination of a rational matrix: its reduced row
    echelon form, each pivot scaled to 1, and the pivot columns.  Each step
    touches only the nonzero entries of the pivot row, so a sparse system
    costs in proportion to its nonzeros."""
    a = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in m]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        row = len(pivots)
        piv = next((rr for rr in range(row, len(a)) if a[rr][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        prow = a[row]
        nonzero = [j for j in range(col, len(prow)) if prow[j]]  # left of col it is all zero
        pivval = prow[col]
        if pivval != 1:
            for j in nonzero:
                prow[j] /= pivval
        for rr, other in enumerate(a):
            f = other[col]
            if f and rr != row:
                for j in nonzero:
                    other[j] -= f * prow[j]
        pivots.append(col)
    return a, pivots


def matrix_rank(m) -> int:
    return len(gauss_jordan(m)[1])


def matrix_inverse(m):
    n = len(m)
    a, pivots = gauss_jordan([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise DegenerateCartanError("matrix is singular")
    return [row[n:] for row in a]

