"""Structure-constant identities with exact arithmetic and brute-force oracles."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from casimir import lie_algebra as la
from helpers import abelian_constants, bianchi2_constants, so3_constants


def brute_force_violations(c) -> int:
    """Independent oracle: count antisymmetry + Jacobi violations by direct loops."""
    r = len(c)
    bad = 0
    for k in range(r):
        for i in range(r):
            for j in range(r):
                if c[k][i][j] != -c[k][j][i]:
                    bad += 1
    for p in range(r):
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    s = sum(
                        c[p][i][t] * c[t][j][k]
                        + c[p][j][t] * c[t][k][i]
                        + c[p][k][t] * c[t][i][j]
                        for t in range(r)
                    )
                    if s != 0:
                        bad += 1
    return bad


class TestValidate:
    def test_so3_valid(self):
        assert la.validate(so3_constants()).ok

    def test_abelian_valid(self):
        assert la.validate(abelian_constants(3)).ok

    def test_corrupted_constants_fail_jacobi(self):
        bad = la.StructureConstants.from_sparse(
            3,
            [
                {"k": 3, "i": 1, "j": 2, "value": "1"},
                {"k": 1, "i": 2, "j": 3, "value": "1"},
                {"k": 2, "i": 3, "j": 1, "value": "1"},
                {"k": 1, "i": 1, "j": 2, "value": "1"},
            ],
        )
        rep = la.validate(bad)
        assert not rep.ok
        assert rep.jacobi_violations
        assert brute_force_violations(bad.c) == len(rep.jacobi_violations) + len(
            rep.antisymmetry_violations
        )

    def test_validate_agrees_with_oracle_on_random_tables(self):
        rng = np.random.default_rng(20240817)
        for _ in range(40):
            arr = rng.integers(-1, 2, size=(3, 3, 3))
            # force antisymmetry on half of the samples
            if rng.random() < 0.5:
                for k in range(3):
                    for i in range(3):
                        arr[k][i][i] = 0
                        for j in range(i + 1, 3):
                            arr[k][j][i] = -arr[k][i][j]
            c = [[[Fraction(int(arr[k][i][j])) for j in range(3)] for i in range(3)] for k in range(3)]
            sc = la.StructureConstants.from_dense(c)
            assert la.validate(sc).ok == (brute_force_violations(c) == 0)


class TestCartan:
    def test_so3_is_identity(self):
        ct = la.cartan_tensor(so3_constants())
        assert ct.g == tuple(
            tuple(Fraction(int(i == k)) for k in range(3)) for i in range(3)
        )
        assert ct.rank == 3 and not ct.is_degenerate
        assert ct.invariance_ok

    def test_abelian_is_zero(self):
        ct = la.cartan_tensor(abelian_constants(3))
        assert all(v == 0 for row in ct.g for v in row)
        assert ct.rank == 0

    def test_solvable_model_is_degenerate_with_known_entry(self):
        sc = bianchi2_constants()
        ct = la.cartan_tensor(sc)
        # independent double-sum oracle for the (2,2) entry
        want = Fraction(1, 2) * sum(
            sc.c[l][1][j] * sc.c[j][l][1] for l in range(3) for j in range(3)
        )
        assert want == Fraction(-1, 2)
        assert ct.g[1][1] == want
        assert ct.rank == 1 and ct.is_degenerate
        assert sum(1 for row in ct.g for v in row if v != 0) == 1

    def test_ad_invariance_over_small_coefficient_library(self):
        """Every valid algebra with entries in {-1,0,1} satisfies the
        ad-invariance identity of its Cartan tensor exactly."""
        import itertools

        pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
        count_checked = 0
        for values in itertools.product((-1, 0, 1), repeat=9):
            arr = [[[0] * 3 for _ in range(3)] for _ in range(3)]
            vit = iter(values)
            for k in range(3):
                for i, j in pairs:
                    v = next(vit)
                    arr[k][i][j] = v
                    arr[k][j][i] = -v
            if brute_force_jacobi_ok(arr):
                sc = la.StructureConstants.from_dense(arr)
                ct = la.cartan_tensor(sc)
                assert ct.invariance_ok, f"ad-invariance failed for {values}"
                count_checked += 1
        assert count_checked > 100  # the library is not trivially empty


def brute_force_jacobi_ok(c) -> bool:
    r = 3
    for p in range(r):
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if (
                        sum(
                            c[p][i][t] * c[t][j][k]
                            + c[p][j][t] * c[t][k][i]
                            + c[p][k][t] * c[t][i][j]
                            for t in range(r)
                        )
                        != 0
                    ):
                        return False
    return True


class TestInverse:
    def test_so3_inverse_is_identity(self):
        sc = so3_constants()
        cm = la.invert_cartan(la.cartan_tensor(sc), sc)
        assert cm.g_inv == tuple(tuple(Fraction(int(i == k)) for k in range(3)) for i in range(3))
        assert cm.killing_ok
        assert cm.provenance == "cartan-inverse"

    def test_scaled_identity(self):
        ct = la.CartanTensor(
            tuple(tuple(Fraction(2 * int(i == k)) for k in range(3)) for i in range(3)), rank=3,
            invariance_ok=True,
        )
        cm = la.invert_cartan(ct, abelian_constants(3))
        assert cm.g_inv[0][0] == Fraction(1, 2)

    def test_degenerate_raises(self):
        sc = bianchi2_constants()
        with pytest.raises(la.DegenerateCartanError):
            la.invert_cartan(la.cartan_tensor(sc), sc)

    def test_inverse_times_cartan_is_identity(self):
        sc = so3_constants()
        ct = la.cartan_tensor(sc)
        cm = la.invert_cartan(ct, sc)
        prod = [
            [sum(cm.g_inv[i][k] * ct.g[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert prod == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


# sparse rational matrices as int and Fraction entries, most of them zero
_ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                     st.fractions(min_value=-4, max_value=4, max_denominator=5))
_MATRICES = st.integers(1, 6).flatmap(
    lambda w: st.lists(st.lists(_ENTRIES, min_size=w, max_size=w), min_size=1, max_size=7))


class TestGaussJordan:
    @given(_MATRICES)
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy_rref(self, m):
        """The reduced rows (zero rows last) and pivot columns are sympy's,
        every entry a Fraction."""
        rows, pivots = la.gauss_jordan(m)
        want, want_pivots = sympy.Matrix(m).rref()
        assert pivots == list(want_pivots)
        assert all(type(x) is Fraction for row in rows for x in row)
        assert rows == [[Fraction(int(x.p), int(x.q)) for x in want.row(i)] for i in range(len(m))]

    def test_input_is_not_modified(self):
        m = [[Fraction(2), 4], [1, 3]]
        la.gauss_jordan(m)
        assert m == [[Fraction(2), 4], [1, 3]]


class TestJsonRoundTrip:
    def test_sparse_round_trip(self):
        sc = so3_constants()
        entries = [
            {"k": k + 1, "i": i + 1, "j": j + 1, "value": str(sc.c[k][i][j])}
            for k in range(3) for i in range(3) for j in range(i + 1, 3) if sc.c[k][i][j]
        ]
        assert len(entries) == 3
        assert la.StructureConstants.from_sparse(3, entries) == sc

    def test_conflicting_entries_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            la.StructureConstants.from_sparse(
                2,
                [
                    {"k": 1, "i": 1, "j": 2, "value": "1"},
                    {"k": 1, "i": 2, "j": 1, "value": "1"},
                ],
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            la.StructureConstants.from_sparse(2, [{"k": 3, "i": 1, "j": 2, "value": "1"}])

    def test_rational_values(self):
        sc = la.StructureConstants.from_sparse(2, [{"k": 1, "i": 1, "j": 2, "value": "-3/7"}])
        assert sc.c[0][0][1] == Fraction(-3, 7)
        assert sc.c[0][1][0] == Fraction(3, 7)
