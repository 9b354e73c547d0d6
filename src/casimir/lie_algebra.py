"""Structure constants, their identities, and constant invariant metrics.

Everything here is exact rational arithmetic: antisymmetry, the Jacobi
identity, the Cartan tensor and its ad-invariance, and the inverse-metric
condition are all zero-tolerance checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class DegenerateCartanError(Exception):
    """The Cartan tensor has no inverse; use a frame-built metric instead."""


def _zeros(r: int):
    return [[Fraction(0)] * r for _ in range(r)]


@dataclass(frozen=True)
class StructureConstants:
    """c[k][i][j] holds the bracket coefficient of generator k in [i, j]."""

    r: int
    c: tuple

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
            v = Fraction(ent["value"])
            put(k, i, j, v)
            put(k, j, i, -v)
        arr = [
            [[dense[k][i][j] if dense[k][i][j] is not None else Fraction(0) for j in range(r)]
             for i in range(r)]
            for k in range(r)
        ]
        return StructureConstants.from_dense(arr)


@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_violations: tuple
    jacobi_violations: tuple

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


@dataclass(frozen=True)
class CartanTensor:
    g: tuple  # g[i][k], symmetric
    rank: int
    invariance_ok: bool = True

    @property
    def is_degenerate(self) -> bool:
        return self.rank < len(self.g)


def cartan_tensor(sc: StructureConstants) -> CartanTensor:
    """g_ik = (1/2) C^l_ij C^j_lk, with rank and the ad-invariance identity."""
    r, c = sc.r, sc.c
    g = _zeros(r)
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


@dataclass(frozen=True)
class ConstantMetric:
    g_inv: tuple  # contravariant components g^{ik}
    provenance: str
    killing_ok: bool = True


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


def matrix_rank(m) -> int:
    """Rank by fraction-free Gaussian elimination."""
    a = [list(map(Fraction, row)) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    row = 0
    for col in range(cols):
        piv = None
        for rr in range(row, rows):
            if a[rr][col] != 0:
                piv = rr
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for rr in range(rows):
            if rr != row and a[rr][col] != 0:
                f = a[rr][col] / a[row][col]
                a[rr] = [x - f * y for x, y in zip(a[rr], a[row])]
        row += 1
        rank += 1
        if row == rows:
            break
    return rank


def matrix_inverse(m):
    n = len(m)
    a = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = None
        for rr in range(col, n):
            if a[rr][col] != 0:
                piv = rr
                break
        if piv is None:
            raise DegenerateCartanError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pivval = a[col][col]
        a[col] = [x / pivval for x in a[col]]
        for rr in range(n):
            if rr != col and a[rr][col] != 0:
                f = a[rr][col]
                a[rr] = [x - f * y for x, y in zip(a[rr], a[col])]
    return [row[n:] for row in a]


def ad_matrix(sc: StructureConstants, b: int):
    """(ad_b)^a_q = C^a_{bq}; the coefficient matrix of bracketing with xi_b."""
    return [[sc.c[a][b][q] for q in range(sc.r)] for a in range(sc.r)]
