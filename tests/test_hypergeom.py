"""Series engine tests against an exact rational-arithmetic oracle."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import perispec._asymptotic as asy
import perispec.hypergeom as hg
from perispec.errors import InvalidParams, NonConvergent
from perispec.hypergeom import (BATCH_BLOCK, DD_PRECISION_BITS,
                                ESCALATED_PREC_BITS, LARGE_Z_PRECISION_BITS,
                                PfqParams,
                                f_form_derivatives, merge_linear_combination,
                                pfq, pfq_batch, pfq_many, pfq_minus_one,
                                pochhammer)


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


ALL_TIERS = {53, DD_PRECISION_BITS, LARGE_Z_PRECISION_BITS,
             ESCALATED_PREC_BITS}

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

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", [0, 3])
    def test_non_finite_a_rejected(self, a, k):
        with pytest.raises(InvalidParams, match="finite a"):
            pochhammer(a, k)

    @pytest.mark.parametrize("k", [2.5, math.inf, math.nan, 2.0])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(InvalidParams, match="integer k"):
            pochhammer(1.0, k)
        assert pochhammer(1.0, np.int64(3)) == 6.0


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
        # peak around 4e6 while the sum is ~0.022, so the double pass
        # alone cannot deliver; a higher-precision tier must engage.
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

    def test_term_cap_is_served_by_mpmath(self):
        # 2F1(1, 1; 2; z) = -log(1 - z) / z: near z = 1 neither series pass
        # converges within its term cap, so mpmath serves the value
        res = pfq(PfqParams((1.0, 1.0), (2.0,)), 0.9999)
        assert (res.precision_bits, res.value) == (
            ESCALATED_PREC_BITS, pytest.approx(-math.log1p(-0.9999) / 0.9999,
                                               rel=1e-14))

    def test_mpmath_no_convergence_is_nonconvergent(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise mpmath.libmp.NoConvergence("refused")

        monkeypatch.setattr(mpmath, "hyper", no_convergence)
        with pytest.raises(NonConvergent, match="did not converge"):
            pfq(PfqParams((1.0, 1.0), (2.0,)), 0.9999)

    def test_denominator_validation(self):
        with pytest.raises(InvalidParams):
            PfqParams((1.0,), (0.0,))
        with pytest.raises(InvalidParams):
            PfqParams((1.0,), (-3.0,))
        PfqParams((1.0,), (2.5,))  # fine
        with pytest.raises(InvalidParams):
            PfqParams((1.0, 2.0, 3.0), (4.0,))  # p > q + 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        for a, b in (((bad,), (1.5,)), ((1.0,), (bad,)),
                     ((bad, 1.0), (2.0, 1.5, 3.0))):
            with pytest.raises(InvalidParams, match="finite"):
                PfqParams(a, b)
        # the merged series' parameter (c + 2d)/d is then not finite
        with pytest.raises(InvalidParams, match="finite"):
            merge_linear_combination(bad, 1.0, PfqParams((0.5,), (1.5,)),
                                     -0.5)

    def test_non_finite_argument_rejected(self):
        params = PfqParams((1.0,), (2.0, 2.5))
        for z in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParams):
                pfq(params, z)

    def test_value_overflowing_double_raises(self):
        # 1F1(1; 2; z) = (e^z - 1) / z exceeds the double range at z = 1000
        with pytest.raises(NonConvergent):
            pfq(PfqParams((1.0,), (2.0,)), 1000.0)

    def test_underflowed_denominator_raises_as_the_batch(self):
        # prod(b + k) = 1e-400 underflows to 0: the array loop's quotient
        # is not finite, and the scalar loop's division must end the same
        params = PfqParams((1.0,), (1e-200, 1e-200))
        with pytest.raises(NonConvergent) as scalar:
            pfq(params, -1.0)
        with pytest.raises(NonConvergent) as batch:
            pfq_many(params, np.array([-1.0]))
        assert str(scalar.value) == str(batch.value)

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
        assert paths == ALL_TIERS

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


def batch_requests(rng, wide):
    """Requests of mixed (p, q) whose entries reach all four tiers.

    With ``wide``, one float-tier request alone holds more entries than one
    block of the batch pass.
    """
    deep = np.array([-4e4, -900.0, -225.0, -150.0, -30.0, 0.0, -0.0])
    requests = [
        # lambda1's merged 3F4 at n = 1, h = 1.5 cancels down to
        # 1F2(1; 2, 2.5); the next request names that set directly
        (PfqParams((1.0, 2.5, 1.5), (2.0, 1.5, 2.5, 2.5)),
         np.concatenate([deep, -rng.uniform(0.0, 300.0, 9)])),
        (PfqParams((1.0,), (2.0, 2.5)), -rng.uniform(0.0, 300.0, 7)),
        (PfqParams((1.0, 1.5), (2.0, 2.5, 0.5)), deep),
        # terminating series, on both sides of 0
        (PfqParams((-2.0, 1.5), (3.0, 0.5)), np.array([5.0, -7.5, 0.0, 2.0])),
        (PfqParams((-3.0,), (0.5, 4.0)), np.array([-600.0, 40.0])),
        # past the double-double pass on both sides of 0
        (PfqParams((-40.5,), (1.5,)), np.array([100.0, -900.0, 60.0])),
        # p = q + 1 inside its disk
        (PfqParams((1.0, 2.0), (3.0,)), rng.uniform(-0.99, 0.99, 5)),
        (PfqParams((0.7, 1.9, 2.5), (1.1, 3.3, 4.0)),
         -rng.uniform(0.0, 400.0, 6)),
        (PfqParams((), (1.5,)), np.array([-0.0, 3.0, -80.0])),
        (PfqParams((0.5,), (1.5, 2.0)), np.zeros(0)),
    ]
    if wide:
        requests.append((PfqParams((0.5,), (1.5, 2.0)),
                         rng.uniform(-30.0, 30.0, BATCH_BLOCK + 100)))
    return requests


class TestPfqBatch:
    def check_against_scalar(self, requests, tol):
        got = pfq_batch(requests, tol)
        assert len(got) == len(requests)
        tiers = set()
        for (params, z), values in zip(requests, got):
            assert values.dtype == np.float64 and values.shape == z.shape
            for zi, value in zip(z.tolist(), values.tolist()):
                ref = pfq(params, zi, tol)
                assert value == ref.value
                tiers.add(ref.precision_bits)
        assert tiers == ALL_TIERS

    def test_matches_scalar_pfq_exactly(self):
        requests = batch_requests(np.random.default_rng(71), wide=True)
        assert sum(z.size for _, z in requests) > BATCH_BLOCK
        self.check_against_scalar(requests, 1e-13)

    def test_many_small_blocks(self, monkeypatch):
        # blocks of 4 split every tier's entries across blocks
        monkeypatch.setattr(hg, "BATCH_BLOCK", 4)
        self.check_against_scalar(
            batch_requests(np.random.default_rng(72), wide=False), 1e-9)

    def test_requests_alone_match_the_batch(self):
        requests = batch_requests(np.random.default_rng(73), wide=False)
        for (params, z), values in zip(requests, pfq_batch(requests)):
            assert pfq_many(params, z).tolist() == values.tolist()

    def test_ratios_only_for_sets_the_double_double_pass_sums(self,
                                                             monkeypatch):
        # g at z = -60 goes to the double-double pass; b1 and m stay in the
        # double pass, so no ratio of theirs is built
        series = multiplier_series(3, 1.3)
        seen = []
        real = hg._DD.build

        def counted(a, b, start):
            seen.append((a, b, start))
            return real(a, b, start)
        monkeypatch.setattr(hg, "_DD", dataclasses.replace(hg._DD,
                                                           build=counted))
        requests = [(PfqParams(*series["b1"]), np.array([-0.5, -1.0])),
                    (PfqParams(*series["g"]), np.array([-1.0, -60.0])),
                    (PfqParams(*series["m"]), np.array([0.0, -2.0]))]
        got = pfq_batch(requests)
        g = hg._cancel_common(*series["g"])
        assert seen and {(a, b) for a, b, _ in seen} == {g}
        assert [start for *_, start in seen] == list(range(0, 64 * len(seen),
                                                           64))
        for (params, z), values in zip(requests, got):
            assert values.tolist() == [pfq(params, zi).value for zi in z]

    def test_pass_memory_per_entry(self):
        # the three series of each default figure panel (n = 3) over 8,334
        # samples, 300,024 entries: the pass keeps z, the set numbers, the
        # |z| order and the output (~25 bytes an entry) plus one block
        samples, requests = 8334, []
        for delta in (1e-3, 1.0, 2.0):
            for beta in (5.0 - 1e-3, 4.0, 3.0, 2.0):
                grid = np.linspace(0.0, 15.0, samples)
                z = -0.25 * grid * grid * delta * delta
                series = multiplier_series(3, beta)
                requests += [(PfqParams(*series[key]), z)
                             for key in ("merged", "g", "b1")]
        entries = sum(z.size for _, z in requests)
        assert entries >= 300_000
        pfq_batch(requests[:3])   # numpy's lazily imported code
        tracemalloc.start()
        try:
            pfq_batch(requests)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * entries + 2**20, peak / entries

    def test_empty_and_validation(self):
        assert pfq_batch([]) == []
        good = (PfqParams((1.0,), (2.0, 2.5)), np.array([-1.0]))
        with pytest.raises(InvalidParams):
            pfq_batch([good, (good[0], np.array([-1.0, math.nan]))])
        with pytest.raises(InvalidParams):
            pfq_batch([good, (good[0], np.ones((2, 2)))])
        with pytest.raises(InvalidParams):
            pfq_batch([good], target_rel_tol=1e-3)
        with pytest.raises(NonConvergent):
            pfq_batch([good, (PfqParams((1.0, 2.0), (3.0,)),
                              np.array([0.5, -1.5]))])


class TestDoubleDouble:
    def test_error_free_transforms(self):
        # each pair holds the exact sum or product, on floats and arrays
        rng = np.random.default_rng(51)
        x = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 9, 200)
        y = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 9, 200)
        for fn, exact in ((hg._two_sum, lambda u, v: u + v),
                          (hg._two_prod, lambda u, v: u * v)):
            hi, lo = fn(x, y)
            for xi, yi, h, l in zip(x.tolist(), y.tolist(), hi.tolist(),
                                    lo.tolist()):
                assert fn(xi, yi) == (h, l)
                assert Fraction(h) + Fraction(l) == exact(Fraction(xi),
                                                          Fraction(yi))
        # so are each series tier's bind, step, add and size
        z = -rng.uniform(0.0, 900.0, 200)
        for tier, data in ((hg._DOUBLE, (x, y, np.abs(y) + 1.0)),
                           (hg._DD, hg._two_sum(x, y * 1e-17))):
            width = len(tier.start)
            term = hg._two_sum(y, x * 1e-17)[:width]
            total = hg._two_sum(x, y)[:width]
            bound = tier.bind(data, z)
            got = (bound, tier.step(term, bound, z), tier.add(total, term),
                   (tier.size(term, bound, z),))
            for i, zi in enumerate(z.tolist()):
                def at(v):
                    return tuple(float(u[i]) for u in v)
                b = tier.bind(at(data), zi)
                assert (b, tier.step(at(term), b, zi),
                        tier.add(at(total), at(term)),
                        (tier.size(at(term), b, zi),)) == tuple(
                            at(v) for v in got)

    @pytest.mark.parametrize("z", [-225.0, -256.0])
    def test_matches_exact_rational_sum(self, z):
        # max|term| / |sum| is ~2e8 and ~1e9 here: too deep for the double
        # pass, within DD_RATIO, so the double-double pass serves the value
        res = pfq(PfqParams((1.0, 2.0), (2.0, 3.0, 3.5)), z)
        assert res.precision_bits == DD_PRECISION_BITS
        assert res.value == series_oracle([1, 2], [2, 3, Fraction(7, 2)],
                                          int(z))
        assert res.abs_error_estimate == math.ulp(res.value)

    def test_random_draws_within_one_ulp(self):
        rng = np.random.default_rng(61)
        served = 0
        for _ in range(300):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(p, p + 3))
            params = PfqParams(tuple(rng.uniform(0.2, 4.0, size=p)),
                               tuple(rng.uniform(0.3, 5.0, size=q)))
            z = -rng.uniform(50.0, 900.0)
            res = pfq(params, z)
            if res.precision_bits != DD_PRECISION_BITS:
                continue
            served += 1
            with mpmath.workprec(320):
                ref = float(mpmath.hyper(
                    [mpmath.mpf(x) for x in params.a],
                    [mpmath.mpf(x) for x in params.b], z))
            assert abs(res.value - ref) <= math.ulp(ref)
        assert served >= 100

    def test_correctly_rounded_where_mpmath_is_one_ulp_off(self):
        # lambda2's 2F3 of the figure panel delta = 2, beta = 3 (n = 3) at
        # |nu| = 14.36936936936937; the 64-bit mpmath value is 1 ulp high
        nu = 14.36936936936937
        z = -0.25 * nu * nu * 2.0 * 2.0
        res = pfq(PfqParams((1.0, 1.0), (2.0, 2.0, 3.5)), z)
        assert res.value == 0.06301083284069973
        assert res.precision_bits == DD_PRECISION_BITS

    def test_deep_cancellation_skips_the_double_double_pass(self, monkeypatch):
        # the double pass measures a ratio of ~2e15, far above 2 DD_RATIO,
        # for this 3F3 at z = -400, so the value goes straight to mpmath
        # (the large-|z| tier does not take a 3F3)
        sum_one, sum_many = hg._sum, hg._sum_many

        def refuse(tier, *args):
            assert tier is not hg._DD, "double-double pass ran"
            return sum_one(tier, *args)

        def only_empty(tier, table, sets, z, tol):
            assert tier is not hg._DD or not z.size, (
                "double-double pass ran")
            return sum_many(tier, table, sets, z, tol)

        monkeypatch.setattr(hg, "_sum", refuse)
        monkeypatch.setattr(hg, "_sum_many", only_empty)
        params = PfqParams((0.7, 1.9, 2.5), (1.1, 3.3, 4.0))
        res = pfq(params, -400.0)
        assert res.precision_bits == ESCALATED_PREC_BITS
        assert pfq_many(params, np.array([-400.0, -1.0])).tolist() == [
            res.value, pfq(params, -1.0).value]


    def test_tail_check_looks_at_the_next_ratio(self):
        # each pair (b + 1; b) weights term k by (b + k) / b, so the pairs
        # at b = -36 + d, -37 + d, -38 + d (d = 2^-46) make terms 36-38
        # about 1e-22 of the sum, far below _DD_TOL, so the tail check runs
        # at term 38.  Term 39 is back to 2.5e-10 of the sum.  Only the
        # ratio c_38 from term 38 to term 39 shows that; the ratio c_37 just
        # used does not, and stopping there moves the value.
        d = 2.0**-46
        pairs = [-36.0 + d, -37.0 + d, -38.0 + d]
        a = (1.0, 2.0) + tuple(b + 1.0 for b in pairs)
        b = (2.0, 3.0, 3.5) + tuple(pairs)
        params = PfqParams(a, b)
        exact = series_oracle([Fraction(x) for x in a],
                              [Fraction(x) for x in b], -225, terms=300)
        res = pfq(params, -225.0)
        assert res.precision_bits == DD_PRECISION_BITS
        assert res.value == exact
        assert res.terms_used > 40
        assert pfq_many(params, np.array([-225.0, -225.0])).tolist() == [
            exact, exact]


# (a, b, z, precision_bits, float.hex(value), terms_used): multiplier
# series, draws as in test_random_draws_within_one_ulp, and a few edge
# shapes.  The double and double-double passes are IEEE arithmetic alone,
# so their bits are pinned; large-|z| values go through libm and mpmath
# values through mpmath, so those pin only the tier.
PINNED = [
    ((1.0, 1.85), (2.0, 3.5, 2.85), -0.5, 53, "0x1.e8e6612817a30p-1", 11),
    ((1.0, 1.85), (2.0, 2.5, 2.85), -2.0, 53, "0x1.8c3f22bcfa5e5p-1", 13),
    ((1.85,), (2.5, 2.85), -60.0, 106, "0x1.1b45cabe50e8bp-11", 39),
    ((1.0, 2.5, 0.5), (2.0, 1.5, 2.5, 1.5), -40.0, 53,
     "0x1.e3300dc30a83ep-3", 28),
    ((1.25,), (3.0, 2.25), -150.0, 106, "0x1.41fa2d227eaeap-8", 50),
    ((1.0, 1.0), (2.0, 2.5, 2.0), -206.0, 106, "0x1.5dee2109f5489p-5", 54),
    ((2.0,), (2.0, 3.0), -9.0, 53, "-0x1.ba231e9b6726bp-5", 20),
    ((1.0, 2.5, 1.0), (2.0, 1.5, 2.5, 2.0), -1e4, 64, None, None),
    ((1.0, 0.5), (2.0, 2.5, 1.5), -2.5e5, 52, None, None),
    ((1.0,), (2.0, 2.0), -900.0, 52, None, None),
    ((0.000500000000000167,), (3.5, 1.0005000000000002), -2e4, 52, None,
     None),
    ((1.0, 2.5, 2.15), (2.0, 1.5, 5.0, 3.15), -120.0, 106,
     "0x1.5b505ce0dfe0bp-6", 44),
    ((1.0, 0.0004999999999999449), (2.0, 1.5, 1.0005), -1e6, 64, None, None),
    ((1.0, 1.25), (2.0, 3.0, 2.25), 12.0, 53, "0x1.b0c1768dcfdb5p+1", 18),
    ((3.1333553491306128, 2.7503437933021466),
     (3.633027731741092, 2.3386381278547965, 4.987162269530267),
     -898.3789277614078, 52, None, None),
    ((0.9307312903084262,),
     (3.521629534690983, 3.4401915118594797, 3.141858253422206),
     -537.1582728149992, 106, "0x1.065e24a2e0a40p-4", 30),
    ((1.1078346940137629,), (2.4856004517248502, 0.6656717426232948),
     -763.2254900220961, 52, None, None),
    ((0.2851348384581574, 3.7586683381017627, 3.8866515299068003),
     (4.335863531156765, 3.544942172807831, 1.039718876910809),
     -821.4049372147238, 64, None, None),
    ((2.861335350457744,), (0.4092735617677602, 0.8523179733264572),
     -640.764700784011, 52, None, None),
    ((1.1268875006459966, 0.9342320841262064),
     (1.5840334330183539, 2.955030641870474, 1.1727080382453043,
      0.6930907379005566),
     -502.4779199866809, 106, "-0x1.7b13b37dc27c4p-3", 33),
    ((0.7, 1.9, 2.5), (1.1, 3.3, 4.0), -400.0, 64, None, None),
    ((-40.5,), (1.5,), 100.0, 64, None, None),
    ((1.0,), (), 0.5, 53, "0x1.fffffffffff80p+0", 46),
    ((-2.0, 1.5), (3.0, 0.5), 5.0, 53, "0x1.6aaaaaaaaaab0p+0", 4),
    ((1.0, 2.0), (3.0,), -0.9, 53, "0x1.465901897a08ap-1", 250),
]


class TestPinnedBits:
    def test_scalar(self):
        assert {pin[3] for pin in PINNED} == ALL_TIERS
        for a, b, z, bits, value, terms in PINNED:
            res = pfq(PfqParams(a, b), z)
            assert res.precision_bits == bits, (a, b, z)
            if value is not None:
                assert (res.value.hex(), res.terms_used) == (value, terms)

    def test_batch(self):
        got = pfq_batch([(PfqParams(a, b), np.array([z]))
                         for a, b, z, *_ in PINNED])
        for (*_, value, _terms), values in zip(PINNED, got):
            if value is not None:
                assert values[0].hex() == value


def multiplier_series(n, beta):
    """The five series of the multipliers (``multipliers._series``)."""
    h = (n + 2 - beta) / 2.0
    return {"m": ((1.0, h), (2.0, n / 2.0 + 1.0, h + 1.0)),
            "g": ((h,), (n / 2.0 + 1.0, h + 1.0)),
            "b1": ((1.0, h), (2.0, n / 2.0 + 2.0, h + 1.0)),
            "b2": ((h,), (n / 2.0 + 2.0, h + 1.0)),
            "merged": ((1.0, 2.5, h), (2.0, 1.5, n / 2.0 + 2.0, h + 1.0))}


def mpmath_hyper(a, b, z, bits=200):
    with mpmath.workprec(bits):
        return float(mpmath.hyper([mpmath.mpf(x) for x in a],
                                  [mpmath.mpf(x) for x in b], mpmath.mpf(z)))


# parameter sets whose entries at z in [-2e3, 100] reach every tier: the
# multiplier series take the large-|z| tier from z ~ -900; the other
# shapes go to mpmath there (an integer gap, a 3F3) or terminate
PROPERTY_SETS = [
    *(multiplier_series(3, 2.5)[key] for key in ("merged", "g", "b1")),
    multiplier_series(1, 0.5)["m"],
    ((1.0, 1.0), (2.0, 2.5, 3.0)),
    ((0.7, 1.9, 2.5), (1.1, 3.3, 4.0)),
    ((-40.5,), (1.5,)),
    ((-3.0,), (0.5, 4.0)),
    ((), (1.5,)),
]
PROPERTY_REQUESTS = st.lists(
    st.tuples(st.integers(0, len(PROPERTY_SETS) - 1),
              st.lists(st.one_of(st.sampled_from([0.0, -0.0, -2e3, -900.0,
                                                  -225.0, -60.0, 40.0]),
                                 st.floats(-2e3, 100.0)), max_size=7)),
    max_size=6)


def batch_tiers(requests, tol):
    """pfq_batch's values, and the precision_bits of the tier of each entry.

    The tiers are read from the two passes: an entry the double pass does
    not send on is served there (53, z = 0 included); one the double-double
    pass takes and keeps is served there; any other gets the tier of what
    ``_past_the_passes`` returned for it.
    """
    passes, past = [], {}
    real_blocks, real_past = hg._in_blocks, hg._past_the_passes

    def blocks(tier, parameter_sets, sets, z, entries, tol_, out):
        sent = real_blocks(tier, parameter_sets, sets, z, entries, tol_, out)
        passes.append((entries, np.concatenate(sent)))
        return sent

    def past_the_passes(a, b, zs, tol_, terms):
        results = real_past(a, b, zs, tol_, terms)
        past.update(((a, b, z), res.precision_bits)
                    for z, res in zip(zs, results))
        return results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hg, "_in_blocks", blocks)
        mp.setattr(hg, "_past_the_passes", past_the_passes)
        values = pfq_batch(requests, tol)
    (_, sent_on), (dd, refused) = passes   # the double, then the dd pass
    tiers = np.full(sum(z.size for _, z in requests), 53)
    tiers[sent_on] = 0
    tiers[dd] = DD_PRECISION_BITS
    tiers[refused] = 0
    entries = [(hg._cancel_common(p.a, p.b), zi)
               for p, z in requests for zi in z.tolist()]
    for i in np.flatnonzero(tiers == 0).tolist():
        (a, b), zi = entries[i]
        tiers[i] = past[(a, b, zi)]
    bounds = np.cumsum([z.size for _, z in requests])[:-1]
    return values, np.split(tiers, bounds)


class TestBatchProperty:
    @settings(max_examples=60, deadline=None)
    @given(block=st.integers(1, 5), draws=PROPERTY_REQUESTS,
           tol=st.sampled_from([1e-13, 1e-9]))
    @example(block=2, tol=1e-13, draws=[
        (0, [-900.0, -150.0, 0.0, -1.0, -2e3]), (5, []), (5, [-400.0]),
        (1, [-60.0, -0.0, -225.0]), (4, [-2e3, 3.0])])
    def test_batch_equals_scalar_values_and_tiers(self, block, draws, tol):
        # blocks of a few entries split requests and span several of them
        requests = [(PfqParams(*PROPERTY_SETS[j]), np.array(zs, dtype=float))
                    for j, zs in draws]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hg, "BATCH_BLOCK", block)
            values, tiers = batch_tiers(requests, tol)
        assert len(values) == len(requests)
        for (params, z), got, bits in zip(requests, values, tiers):
            refs = [pfq(params, zi, tol) for zi in z.tolist()]
            assert got.tolist() == [ref.value for ref in refs]
            assert bits.tolist() == [ref.precision_bits for ref in refs]

    def test_the_example_reaches_every_tier(self):
        requests = [(PfqParams(*PROPERTY_SETS[j]), np.array(zs))
                    for j, zs in [(0, [-900.0, -150.0, 0.0, -1.0, -2e3]),
                                  (5, [-400.0]), (1, [-60.0, -225.0])]]
        _, tiers = batch_tiers(requests, 1e-13)
        assert set(np.concatenate(tiers).tolist()) == ALL_TIERS


class TestLargeZ:
    EPS = 2.0**-52

    def test_multiplier_series_against_mpmath(self):
        # seeded draws over verify's beta range, n <= 8 and z from about
        # the double-double pass's reach to -1e7 (spectrum.MAX_PHASE); the
        # tier is called directly, so it is checked also where the
        # double-double pass would serve first
        rng = np.random.default_rng(81)
        served = tried = 0
        for _ in range(60):
            n = int(rng.integers(1, 9))
            beta = rng.uniform(-2.0, n + 2 - 0.05)
            z = -math.exp(rng.uniform(math.log(200.0), math.log(1e7)))
            for a, b in multiplier_series(n, beta).values():
                a, b = hg._cancel_common(a, b)
                form = asy.large_z_form(a, b)
                res = asy.large_z(form, z, 1e-13)
                tried += 1
                if res is None:
                    continue
                served += 1
                assert res.precision_bits == LARGE_Z_PRECISION_BITS
                # max(|algebraic terms|, |oscillatory envelope|), weighted
                # over the split of a merged series
                scale = sum(abs(w) * asy._expansion_value(e, -z)[2]
                            for w, e in form)
                err = abs(res.value - mpmath_hyper(a, b, z))
                assert err <= res.abs_error_estimate, (n, beta, z, a, b)
                assert err <= 64.0 * (1.0 + math.sqrt(-z)) * self.EPS * scale
        assert served >= 0.95 * tried

    @pytest.mark.parametrize("tol", [1e-13, 1e-6])
    def test_estimate_alone_decides_how_close_to_zero(self, tol):
        # no |z| threshold: closer to 0 than the double-double pass's
        # reach, the truncation estimate is what turns values down, and
        # every value it accepts is within its error estimate
        rng = np.random.default_rng(83)
        served = 0
        for _ in range(60):
            n = int(rng.integers(1, 9))
            beta = rng.uniform(-2.0, n + 2 - 0.05)
            z = -math.exp(rng.uniform(0.0, math.log(400.0)))
            for a, b in multiplier_series(n, beta).values():
                a, b = hg._cancel_common(a, b)
                res = asy.large_z(asy.large_z_form(a, b), z, tol)
                if res is None:
                    continue
                served += 1
                err = abs(res.value - mpmath_hyper(a, b, z))
                assert err <= res.abs_error_estimate, (n, beta, z, a, b)
        assert served >= 30
        g = asy.large_z_form(*multiplier_series(3, 1.3)["g"])
        assert asy.large_z(g, -2.0, tol) is None

    @pytest.mark.parametrize("n, beta, name", [(2, 1.875, "g"),
                                               (2, 2.375, "b2"),
                                               (3, 4.0, "b2")])
    def test_zero_coefficient_inside_the_series(self, n, beta, name):
        # these parameters make the oscillatory c_1 exactly 0 while c_2,
        # c_3, ... are not: the series goes on past the zero term
        a, b = hg._cancel_common(*multiplier_series(n, beta)[name])
        c = asy._expansion(a, b)[1][4]
        assert c[1] == 0.0 and c[2] != 0.0
        for z in (-1000.0, -4e4):
            res = pfq(PfqParams(a, b), z)
            assert res.precision_bits == LARGE_Z_PRECISION_BITS
            exact = mpmath_hyper(a, b, z)
            assert abs(res.value - exact) <= res.abs_error_estimate
            assert_allclose(res.value, exact, rtol=1e-14)

    def test_truncation_at_the_smallest_term(self):
        # a zero term inside the series is stepped over; a series ends at
        # its last coefficient only if it terminates
        up_to = asy._up_to_smallest
        assert up_to([1.0, 0.5, 0.25], 1.0, True) == ([1.0, 0.5, 0.25], 0.0)
        assert up_to([1.0, 0.5, 0.25], 1.0, False) is None
        assert up_to([1.0, 0.0, 0.5, 0.0, 2.0, 9.0], 1.0, False) == (
            [1.0, 0.0, 0.5, 0.0], 2.0)
        assert up_to([1.0, 0.0, 1e-20, 1e-21], 1.0, False) == (
            [1.0, 0.0, 1e-20], 1e-20)
        # the flag of each series is its own: an algebraic series that
        # terminates does not end an oscillatory one that runs out
        expansion = ([(1.0, 1.0, [1.0], True)],
                     (1.0, 0.0, 1.0, 0.0, [1.0, 1.0, 1.0], False))
        assert asy._expansion_value(expansion, 1.0) is None

    @pytest.mark.parametrize("n, beta, name", [(7, 5.0, "m"),
                                               (7, 1.0, "g"),
                                               (7, 3.0, "b2")])
    def test_terminating_oscillatory_series(self, n, beta, name):
        # three zero c_k in a row make every later one 0 (the recurrence
        # has four terms): the series ends there, with no truncation error
        a, b = hg._cancel_common(*multiplier_series(n, beta)[name])
        oscillatory = asy._expansion(a, b)[1]
        assert oscillatory[5] and oscillatory[4][-1] != 0.0
        assert len(oscillatory[4]) < asy._LARGE_Z_TERMS
        for z in (-1000.0, -4e4):
            res = pfq(PfqParams(a, b), z)
            assert res.precision_bits == LARGE_Z_PRECISION_BITS
            assert_allclose(res.value, mpmath_hyper(a, b, z), rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("offset", [0.0, 1e-4, -3e-4])
    def test_near_integer_h(self, n, offset):
        # beta = n and n - 2 make h = 1 and 2.  Within LARGE_Z_MIN_GAP of
        # them the 2F3s (1, h; ...) go to mpmath, and so does the merged
        # series, whose split holds one.  At h = 2 exactly the numerator h
        # cancels the denominator 2, leaving a 1F2 (m, b1) and a 2F3 with
        # a1 - a2 = 3/2 (merged), which the tier takes; the 1F2s g and b2
        # have no a1 - a2 and are always taken
        for beta in (n + offset, n - 2.0 + offset):
            h = (n + 2 - beta) / 2.0
            for name, (a, b) in multiplier_series(n, beta).items():
                res = pfq(PfqParams(a, b), -4e4)
                to_mpmath = name in ("m", "b1", "merged") and h != 2.0
                assert res.precision_bits == (
                    ESCALATED_PREC_BITS if to_mpmath
                    else LARGE_Z_PRECISION_BITS), (name, h)
                assert_allclose(res.value, mpmath_hyper(a, b, -4e4),
                                rtol=1e-11)

    @pytest.mark.parametrize("n, beta", [(2, 0.3), (3, 4.2), (8, -1.7)])
    def test_merged_series_is_evaluated_through_its_split(self, monkeypatch,
                                                          n, beta):
        # (1, 5/2, h; 2, 3/2, n/2+2, h+1) = (F + 2 G) / 3 with F the b1 2F3
        # and G the b2 1F2; mpmath is never asked
        def refuse(*args):
            raise AssertionError("mpmath tier reached")

        monkeypatch.setattr(hg, "_escalate", refuse)
        series = multiplier_series(n, beta)
        form = asy.large_z_form(*hg._cancel_common(*series["merged"]))
        assert [w for w, _ in form] == [1.0 / 3.0, 2.0 / 3.0]
        for z in (-2000.0, -4e4, -1e7):
            got = pfq(PfqParams(*series["merged"]), z)
            f = pfq(PfqParams(*series["b1"]), z)
            g = pfq(PfqParams(*series["b2"]), z)
            assert {got.precision_bits, f.precision_bits,
                    g.precision_bits} == {LARGE_Z_PRECISION_BITS}
            assert_allclose(got.value, (f.value + 2.0 * g.value) / 3.0,
                            rtol=4.0 * self.EPS)
            assert_allclose(got.value, mpmath_hyper(*series["merged"], z),
                            rtol=1e-12 * (1.0 + math.sqrt(-z)))

    def test_only_entries_bound_for_mpmath_try_it(self, monkeypatch):
        # z = -225 is served by the double-double pass before the tier;
        # an entry at z > 0 bound for mpmath does not try it either, and
        # its plan is not built
        def refuse(*args):
            raise AssertionError("large-|z| tier tried")

        monkeypatch.setattr(asy, "large_z", refuse)
        monkeypatch.setattr(asy, "large_z_form", refuse)
        params = PfqParams(*multiplier_series(3, 1.0)["b1"])
        assert pfq(params, -225.0).precision_bits == DD_PRECISION_BITS
        pfq_many(params, np.array([-225.0, -3.0]))
        positive = PfqParams((-40.5,), (1.5,))
        assert pfq(positive, 100.0).precision_bits == ESCALATED_PREC_BITS
        pfq_many(positive, np.array([100.0, 3.0]))

    def test_plans_keep_their_values(self):
        # values of the tier from before its plans were memoized, bit for bit
        before = {
            (1, 0.3, "g", -1000.0): "-0x1.3a791b5e6728bp-11",
            (1, 0.3, "b1", -1000.0): "0x1.5ea1231d948cbp-8",
            (3, 1.3, "b2", -4e4): "0x1.40906b2b6c23bp-26",
            (3, 1.3, "merged", -4e4): "0x1.7c67b0bc65d15p-15",
            (2, 3.7, "merged", -4e4): "0x1.d7f03e3a5678bp-3",
        }
        for (n, beta, name, z), value in before.items():
            res = pfq(PfqParams(*multiplier_series(n, beta)[name]), z)
            assert res.precision_bits == LARGE_Z_PRECISION_BITS
            assert res.value == float.fromhex(value), (n, beta, name, z)
        # lambda1's merged 3F4 is built from the expansions of b1 and b2,
        # and a plan is made of tuples, so no caller can change it
        series = {name: hg._cancel_common(*ab) for name, ab in
                  multiplier_series(3, 1.3).items()}
        merged = asy.large_z_form(*series["merged"])
        assert merged[0][1] == asy.large_z_form(*series["b1"])[0][1]
        assert merged[1][1] == asy.large_z_form(*series["b2"])[0][1]
        algebraic, oscillatory = merged[0][1]
        assert isinstance(merged, tuple) and isinstance(algebraic, tuple)
        assert all(isinstance(part[2], tuple) for part in algebraic)
        assert isinstance(oscillatory[4], tuple)

    # an expansion's oscillatory part (ratio, X, cos, sin, c, terminates)
    # that the refusals below never reach
    _OSCILLATORY = (1.0, 0.0, 1.0, 0.0, (1.0,), True)

    def test_gamma_overflow_is_refused(self):
        # Gamma(200) in prod Gamma(b) overflows a double
        assert asy.large_z_form((0.5,), (200.0, 1.5)) is None

    def test_power_overflow_is_refused(self):
        # x^(-a_j) with a_j = -400 overflows at x = 1e7
        algebraic = ((-400.0, 1.0, (1.0,), True),)
        assert asy._expansion_value((algebraic, self._OSCILLATORY), 1e7) is None

    def test_algebraic_series_out_of_coefficients_is_refused(self):
        # two coefficients of a series that does not terminate, and its
        # terms have not started to shrink below _DD_TOL
        algebraic = ((0.5, 1.0, (1.0, 1.0), False),)
        assert asy._expansion_value((algebraic, self._OSCILLATORY), 1e7) is None

    def test_other_shapes_are_refused(self):
        for a, b in (((0.7, 1.9, 2.5), (1.1, 3.3, 4.0)),   # 3F3
                     ((0.5,), (1.5,)),                       # 1F1
                     ((1.0, 2.0, 0.5), (1.5, 3.0, 2.5, 4.0))):  # no pairs
            assert asy.large_z_form(a, b) is None


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
