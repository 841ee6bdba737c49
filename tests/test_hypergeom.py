"""Series engine tests against an exact rational-arithmetic oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from perispec.errors import InvalidParams, NonConvergent
from perispec.hypergeom import (PfqParams, f_form_derivatives,
                                merge_linear_combination, pfq, pfq_many,
                                pfq_minus_one, pochhammer)


def series_oracle(a, b, z, terms=200):
    """Partial sum of the series in exact rational arithmetic.

    Completely independent of the library path: explicit Fractions, fixed
    term count, rounded to float only at the end.
    """
    s = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        s += term
        num = Fraction(1)
        den = Fraction(1)
        for ai in a:
            num *= ai + k
        for bj in b:
            den *= bj + k
        term = term * num / den * z / (k + 1)
    return float(s)


# frozen oracle outputs (series_oracle re-derives them below)
ORACLE_MODERATE = 0.8180269298807388    # a=(1,2) b=(2,2,5/2) z=-1
ORACLE_CANCEL = 0.022069194905560034    # a=(1,2) b=(2,3,7/2) z=-225


class TestPochhammer:
    def test_values(self):
        assert pochhammer(3.0, 2) == 12.0
        assert pochhammer(7.3, 0) == 1.0
        assert pochhammer(0.5, 3) == 1.875

    def test_recursion(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.uniform(-5.0, 5.0)
            k = int(rng.integers(0, 21))
            assert_allclose(pochhammer(a, k + 1), a * pochhammer(a + 1.0, k),
                            rtol=1e-13, atol=1e-300)

    def test_ratio(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rng.uniform(0.1, 6.0)
            k = int(rng.integers(0, 21))
            assert_allclose(pochhammer(a + 1.0, k) / pochhammer(a, k),
                            (a + k) / a, rtol=1e-12)

    def test_negative_k(self):
        with pytest.raises(InvalidParams):
            pochhammer(1.0, -1)


class TestPfq:
    def test_z_zero_is_one(self):
        res = pfq(PfqParams((0.3, 4.5), (1.2, 2.0, 9.0)), 0.0)
        assert res.value == 1.0
        assert res.abs_error_estimate == 0.0
        assert res.terms_used == 1

    def test_geometric_series(self):
        # 1F0(1;;z) = 1/(1-z)
        res = pfq(PfqParams((1.0,), ()), 0.5)
        assert_allclose(res.value, 2.0, rtol=1e-13)

    def test_oracle_moderate(self):
        recomputed = series_oracle([1, 2], [2, 2, Fraction(5, 2)], -1)
        assert recomputed == ORACLE_MODERATE
        res = pfq(PfqParams((1.0, 2.0), (2.0, 2.0, 2.5)), -1.0)
        assert_allclose(res.value, ORACLE_MODERATE, rtol=1e-12)

    def test_oracle_cancellation_regime(self):
        # z = -(|nu| delta / 2)^2 = -225 at |nu| = 15, delta = 2: the terms
        # peak around 1e12 while the sum is ~0.022, so the double passic
        # alone cannot deliver; the escalated path must engage.
        recomputed = series_oracle([1, 2], [2, 3, Fraction(7, 2)], -225)
        assert recomputed == ORACLE_CANCEL
        res = pfq(PfqParams((1.0, 2.0), (2.0, 3.0, 3.5)), -225.0)
        assert_allclose(res.value, ORACLE_CANCEL, rtol=1e-12)
        assert res.precision_bits > 53

    def test_deep_cancellation_against_oracle(self):
        a = [1, Fraction(1, 40)]
        b = [2, Fraction(5, 2), Fraction(41, 40)]
        expected = series_oracle(a, b, -1600, terms=500)
        res = pfq(PfqParams((1.0, 0.025), (2.0, 2.5, 1.025)), -1600.0)
        assert_allclose(res.value, expected, rtol=1e-11)

    def test_error_estimate_bounds_truncation(self):
        res = pfq(PfqParams((1.0, 1.5), (2.0, 2.5, 3.0)), -8.0)
        ref = series_oracle([1, Fraction(3, 2)], [2, Fraction(5, 2), 3], -8,
                            terms=300)
        assert abs(res.value - ref) <= res.abs_error_estimate + 1e-13 * abs(ref)

    def test_diverges_for_p_eq_q_plus_one(self):
        params = PfqParams((1.0, 2.0), (3.0,))
        with pytest.raises(NonConvergent):
            pfq(params, 1.0)
        with pytest.raises(NonConvergent):
            pfq(params, -1.5)
        assert pfq(params, 0.9).terms_used > 1  # inside the disk it converges

    def test_denominator_validation(self):
        with pytest.raises(InvalidParams):
            PfqParams((1.0,), (0.0,))
        with pytest.raises(InvalidParams):
            PfqParams((1.0,), (-3.0,))
        PfqParams((1.0,), (2.5,))  # fine
        with pytest.raises(InvalidParams):
            PfqParams((1.0, 2.0, 3.0), (4.0,))  # p > q + 1

    def test_non_finite_argument_rejected(self):
        params = PfqParams((1.0,), (2.0, 2.5))
        for z in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParams):
                pfq(params, z)

    def test_value_overflowing_double_raises(self):
        # 1F1(1; 2; z) = (e^z - 1) / z exceeds the double range at z = 1000
        with pytest.raises(NonConvergent):
            pfq(PfqParams((1.0,), (2.0,)), 1000.0)

    def test_tol_range_enforced(self):
        params = PfqParams((1.0,), (2.0,))
        with pytest.raises(InvalidParams):
            pfq(params, -1.0, target_rel_tol=1e-3)
        with pytest.raises(InvalidParams):
            pfq(params, -1.0, target_rel_tol=1e-16)

    def test_common_parameters_cancel(self):
        # repeated entries drop out of (a)_k / (b)_k exactly
        full = pfq(PfqParams((1.0, 2.0, 0.7), (1.0, 2.0, 3.1)), -2.3)
        reduced = pfq(PfqParams((0.7,), (3.1,)), -2.3)
        assert full.value == reduced.value
        ref = series_oracle([1, 2, Fraction(7, 10)],
                            [1, 2, Fraction(31, 10)], Fraction(-23, 10))
        assert_allclose(full.value, ref, rtol=1e-12)

    def test_terminating_series(self):
        # numerator parameter -2 truncates after three terms
        res = pfq(PfqParams((-2.0,), (3.0,)), 5.0)
        expected = 1.0 + (-2.0 / 3.0) * 5.0 + ((-2.0 * -1.0) / (3.0 * 4.0)) * 25.0 / 2.0
        assert_allclose(res.value, expected, rtol=1e-14)
        assert res.abs_error_estimate == 0.0

    def test_determinism_across_cache_states(self):
        params = PfqParams((1.0, 1.5), (2.0, 2.5, 3.0))
        first = pfq(params, -100.0)
        again = pfq(params, -100.0)
        assert first.value == again.value
        fresh = pfq(params, -100.0)
        assert first == fresh


class TestPfqMany:
    def test_matches_scalar_pfq_exactly(self):
        # random series of the package's shapes; deep negative z escalates,
        # a nonpositive integer numerator terminates, z = 0 and repeats mix in
        rng = np.random.default_rng(31)
        paths = set()
        for trial in range(80):
            p = int(rng.integers(1, 4))
            a = tuple(rng.uniform(0.2, 4.0, size=p))
            if trial % 5 == 0:
                a = (-float(rng.integers(0, 4)),) + a[1:]
            q = p - 1 + int(rng.integers(0, 4))
            b = tuple(rng.uniform(0.3, 5.0, size=q))
            params = PfqParams(a, b)
            # p = q + 1 converges only for |z| < 1, and slowly near it
            reach = 0.99 if q == p - 1 else 300.0
            z = -rng.uniform(0.0, reach, size=12)
            z = np.concatenate([z, [0.0, -0.0, z[0], z[3]],
                                rng.uniform(-0.99, 0.99, size=3)])
            tol = float(10.0 ** rng.uniform(-15.0, -7.0))
            got = pfq_many(params, z, tol)
            assert got.dtype == np.float64 and got.shape == z.shape
            for zi, value in zip(z.tolist(), got.tolist()):
                ref = pfq(params, zi, tol)
                assert value == ref.value
                paths.add(ref.precision_bits)
        assert paths == {53, 64}

    def test_terminating_series(self):
        params = PfqParams((-2.0, 1.5), (3.0, 0.5))
        z = np.array([5.0, -7.5, 0.0, 2.0])
        got = pfq_many(params, z)
        assert got.tolist() == [pfq(params, zi).value for zi in z.tolist()]

    def test_z_zero_and_empty(self):
        params = PfqParams((0.3, 4.5), (1.2, 2.0, 9.0))
        assert pfq_many(params, np.zeros(3)).tolist() == [1.0, 1.0, 1.0]
        empty = pfq_many(params, np.zeros(0))
        assert empty.dtype == np.float64 and empty.shape == (0,)

    def test_repeated_arguments(self):
        params = PfqParams((1.0, 2.0), (2.0, 3.0, 3.5))
        z = np.array([-225.0, -3.0, -225.0, -3.0])
        got = pfq_many(params, z)
        assert got[0] == got[2] == pfq(params, -225.0).value
        assert got[1] == got[3] == pfq(params, -3.0).value

    def test_diverges_for_p_eq_q_plus_one(self):
        params = PfqParams((1.0, 2.0), (3.0,))
        with pytest.raises(NonConvergent):
            pfq_many(params, np.array([0.5, 1.0]))
        with pytest.raises(NonConvergent):
            pfq_many(params, np.array([-1.5]))
        inside = np.array([0.9, -0.9])
        assert pfq_many(params, inside).tolist() == [
            pfq(params, zi).value for zi in inside.tolist()]

    def test_validation(self):
        params = PfqParams((1.0,), (2.0, 2.5))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParams):
                pfq_many(params, np.array([-1.0, bad]))
        for tol in (1e-3, 1e-16):
            with pytest.raises(InvalidParams):
                pfq_many(params, np.array([-1.0]), target_rel_tol=tol)
        with pytest.raises(InvalidParams):
            pfq_many(params, np.ones((2, 2)))

    def test_value_overflowing_double_raises(self):
        with pytest.raises(NonConvergent):
            pfq_many(PfqParams((1.0,), (2.0,)), np.array([1.0, 1000.0]))


class TestPfqMinusOne:
    def test_zero_argument(self):
        res = pfq_minus_one(PfqParams((1.0, 2.0), (2.0, 2.0, 2.5)), 0.0)
        assert res.value == 0.0

    def test_leading_term_near_zero(self):
        # 1F1(1;2;z) - 1 = z/2 + O(z^2); direct subtraction would return 0
        z = 1e-12
        res = pfq_minus_one(PfqParams((1.0,), (2.0,)), z)
        assert_allclose(res.value, z / 2.0, rtol=1e-10)

    def test_matches_direct_subtraction_at_moderate_z(self):
        params = PfqParams((1.0, 2.0), (2.0, 2.0, 2.5))
        direct = pfq(params, -0.5).value - 1.0
        assert_allclose(pfq_minus_one(params, -0.5).value, direct, rtol=1e-12)

    def test_identity_sweep(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = int(rng.integers(0, 3))
            a = tuple(rng.uniform(0.3, 4.0, size=p))
            b = tuple(rng.uniform(0.5, 5.0, size=p + rng.integers(1, 3)))
            params = PfqParams(a, b)
            z = rng.uniform(-10.0, 0.5)
            lhs = pfq(params, z).value - 1.0
            rhs = pfq_minus_one(params, z).value
            assert abs(lhs - rhs) <= 1e-10


class TestMergeLinearCombination:
    def test_zero_c_reduces_to_pfq(self):
        params = PfqParams((1.3,), (2.2, 0.9))
        merged = merge_linear_combination(0.0, 1.0, params, -3.0)
        assert merged.value == pfq(params, -3.0).value

    def test_value_at_zero(self):
        res = merge_linear_combination(2.0, 1.0, PfqParams((1.5,), (2.5,)), 0.0)
        assert res.value == 3.0

    def test_two_sides_agree(self):
        params = PfqParams((1.5,), (2.5,))
        z = -2.0
        lhs = (1.0 * pfq(PfqParams((1.0, 1.5), (2.0, 2.5)), z).value
               + 1.0 * pfq(params, z).value)
        rhs = merge_linear_combination(1.0, 1.0, params, z).value
        assert_allclose(rhs, lhs, rtol=1e-12)

    def test_agreement_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = int(rng.integers(0, 3))
            a = tuple(rng.uniform(0.3, 4.0, size=p))
            b = tuple(rng.uniform(0.5, 5.0, size=p + rng.integers(1, 3)))
            params = PfqParams(a, b)
            z = rng.uniform(-20.0, 0.5)
            c = rng.uniform(-3.0, 3.0)
            d = rng.uniform(0.2, 3.0)
            if abs(c + d) < 0.1:
                c += 0.5
            lhs = (c * pfq(PfqParams((1.0,) + a, (2.0,) + b), z).value
                   + d * pfq(params, z).value)
            rhs = merge_linear_combination(c, d, params, z).value
            assert_allclose(rhs, lhs, rtol=1e-10, atol=1e-13)

    def test_degenerate_inserted_parameter(self):
        params = PfqParams((1.5,), (2.5,))
        with pytest.raises(InvalidParams):
            merge_linear_combination(-1.0, 1.0, params, -1.0)  # (c+d)/d = 0
        with pytest.raises(InvalidParams):
            merge_linear_combination(-3.0, 1.0, params, -1.0)  # (c+d)/d = -2
        with pytest.raises(InvalidParams):
            merge_linear_combination(1.0, 0.0, params, -1.0)   # d = 0


class TestFFormDerivatives:
    def test_values_at_zero(self):
        params = PfqParams((1.0, 2.0), (2.0, 3.0, 3.5))
        f, fp, fpp = f_form_derivatives(params, 0.0)
        assert f == 0.0
        assert fp == 1.0
        # prod(2, a) / prod(1, b) for these parameters
        expected = (2.0 * 1.0 * 2.0) / (1.0 * 2.0 * 3.0 * 3.5)
        assert_allclose(fpp, expected, rtol=1e-14)

    @staticmethod
    def _fd(params, z, h=1e-5):
        def f(x):
            return x * pfq(params, x).value
        fp = (f(z + h) - f(z - h)) / (2.0 * h)
        fpp = (f(z + h) - 2.0 * f(z) + f(z - h)) / (h * h)
        return fp, fpp

    def test_first_derivative_matches_fd(self):
        params = PfqParams((1.0, 2.0), (2.0, 3.0, 3.5))
        _, fp, _ = f_form_derivatives(params, -4.0)
        fd_p, _ = self._fd(params, -4.0)
        assert_allclose(fp, fd_p, rtol=1e-6)

    def test_second_derivative_matches_fd(self):
        params = PfqParams((1.0, 2.0), (2.0, 3.0, 3.5))
        _, _, fpp = f_form_derivatives(params, -4.0)
        _, fd_pp = self._fd(params, -4.0)
        assert_allclose(fpp, fd_pp, rtol=1e-4)

    @staticmethod
    def _fd5(params, z, h):
        def f(x):
            return x * pfq(params, x, target_rel_tol=1e-15).value
        fm2, fm1, f0, fp1, fp2 = (f(z - 2 * h), f(z - h), f(z),
                                  f(z + h), f(z + 2 * h))
        fp = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
        fpp = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
        return fp, fpp, f0

    @classmethod
    def _fd_richardson(cls, params, z, h=0.08):
        # Richardson-extrapolated fourth-order stencils; the plain O(h^2)
        # stencil cannot reach 1e-5 on second derivatives because its
        # roundoff floor scales like (series tolerance) / h^2
        p1, q1, f0 = cls._fd5(params, z, h)
        p2, q2, _ = cls._fd5(params, z, h / 2.0)
        return (16.0 * p2 - p1) / 15.0, (16.0 * q2 - q1) / 15.0, f0

    def test_derivative_sweep(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = int(rng.integers(0, 3))
            a = tuple(rng.uniform(0.3, 4.0, size=p))
            b = tuple(rng.uniform(0.8, 5.0, size=p + rng.integers(1, 3)))
            params = PfqParams(a, b)
            z = rng.uniform(-50.0, 0.0)
            _, fp, fpp = f_form_derivatives(params, z)
            fd_p, fd_pp, f0 = self._fd_richardson(params, z)
            # the absolute floor is the finite-difference noise level, which
            # scales with |f| regardless of how small the derivative is
            floor = 1e-9 * (1.0 + abs(f0))
            assert_allclose(fp, fd_p, rtol=1e-5, atol=floor)
            assert_allclose(fpp, fd_pp, rtol=1e-5, atol=floor)
