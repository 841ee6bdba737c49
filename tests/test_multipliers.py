"""Closed-form multiplier tests: anchors, structure, and limit behavior."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

import perispec.multipliers as multipliers
import perispec.oracle as oracle
from perispec.errors import InvalidParams, NonConvergent
from perispec.multipliers import (Material, NonlocalParams, closed_bundle,
                                  eigen_decomposition,
                                  eigenvalue_parallel, eigenvalue_parallel_split,
                                  eigenvalue_transverse, eigenvalues,
                                  eigenvalues_by_material, eigenvalues_many,
                                  gradient_factor, navier_eigenvalues,
                                  navier_multiplier, orthonormal_basis,
                                  scalar_multiplier,
                                  scalar_multiplier_gradient, scaling_constant,
                                  tensor_multiplier, tensor_multiplier_bond,
                                  tensor_multiplier_state)

SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def scaling_constant_oracle(n, delta, beta):
    """Independent route: adaptive quadrature of the defining moment integral."""
    radial, _ = quad(lambda r: r ** (n + 1 - beta), 0.0, delta)
    return 1.0 / (SPHERE_AREA[n] * radial / (2.0 * n))


def random_params(rng, n=None):
    n = int(rng.integers(1, 4)) if n is None else n
    delta = rng.uniform(0.1, 4.0)
    beta = rng.uniform(-2.0, n + 2 - 0.05)
    return NonlocalParams(n, delta, beta)


def random_nu(rng, n, lo=0.05, hi=20.0):
    d = rng.standard_normal(n)
    return d / np.linalg.norm(d) * rng.uniform(lo, hi)


class TestDomainTypes:
    def test_params_validation(self):
        with pytest.raises(InvalidParams):
            NonlocalParams(0, 1.0, 0.0)
        with pytest.raises(InvalidParams):
            NonlocalParams(2, -1.0, 0.0)
        with pytest.raises(InvalidParams):
            NonlocalParams(2, 1.0, 4.0)   # beta = n + 2
        NonlocalParams(2, 1.0, 3.999)

    def test_material_validation(self):
        with pytest.raises(InvalidParams):
            Material(0.0, 1.0)
        assert Material(1.0, -1.9).navier_stable
        assert not Material(1.0, -2.1).navier_stable

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidParams):
            NonlocalParams(2, bad, 0.0)
        with pytest.raises(InvalidParams):
            NonlocalParams(2, 1.0, bad)
        with pytest.raises(InvalidParams):
            Material(bad, 0.0)
        with pytest.raises(InvalidParams):
            Material(1.0, bad)

    def test_frequency_length_checked(self):
        p = NonlocalParams(2, 1.0, 1.0)
        with pytest.raises(InvalidParams):
            scalar_multiplier(p, [1.0, 2.0, 3.0])


class TestScalingConstant:
    def test_one_dimensional_anchor(self):
        p = NonlocalParams(1, 1.0, 0.0)
        assert_allclose(scaling_constant(p), 3.0, rtol=1e-14)
        assert_allclose(scaling_constant_oracle(1, 1.0, 0.0), 3.0, rtol=1e-12)

    def test_three_dimensional_anchor(self):
        p = NonlocalParams(3, 1.0, 0.0)
        assert_allclose(scaling_constant(p), 15.0 / (2.0 * math.pi), rtol=1e-14)
        assert_allclose(scaling_constant_oracle(3, 1.0, 0.0),
                        15.0 / (2.0 * math.pi), rtol=1e-12)

    def test_matches_moment_integral(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_params(rng)
            assert_allclose(scaling_constant(p),
                            scaling_constant_oracle(p.n, p.delta, p.beta),
                            rtol=1e-9)

    def test_horizon_power_law(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = random_params(rng)
            doubled = NonlocalParams(p.n, 2.0 * p.delta, p.beta)
            assert_allclose(scaling_constant(doubled),
                            scaling_constant(p) / 2.0 ** (p.n + 2 - p.beta),
                            rtol=1e-13)

    @pytest.mark.parametrize("delta", [4.0, 0.1])
    def test_out_of_double_range(self, delta):
        # delta^(n+2-beta) overflows at delta = 4 and underflows at 0.1
        with pytest.raises(NonConvergent, match="does not fit a double"):
            scaling_constant(NonlocalParams(3, delta, -1000.0))


class TestScalarMultiplier:
    def test_zero_frequency(self):
        p = NonlocalParams(2, 1.5, 1.0)
        assert scalar_multiplier(p, [0.0, 0.0]) == 0.0

    def test_one_dimensional_closed_form(self):
        # for n = 1, beta = 0 the integral has the antiderivative
        # 6 sin(nu delta) / (nu delta^3) - 6 / delta^2
        p = NonlocalParams(1, 1.0, 0.0)
        assert_allclose(scalar_multiplier(p, [math.pi]), -6.0, rtol=1e-12)
        for nu in (0.7, 2.0, 11.0):
            expected = 6.0 * math.sin(nu) / nu - 6.0
            assert_allclose(scalar_multiplier(p, [nu]), expected, rtol=1e-11)

    def test_against_quadrature(self):
        p = NonlocalParams(2, 0.5, 3.0)
        nu = np.array([3.0, 4.0])
        q, _ = oracle.scalar_multiplier_quad(p, nu)
        assert_allclose(scalar_multiplier(p, nu), q, rtol=1e-7)

    def test_nonpositive_and_even(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            p = random_params(rng)
            nu = random_nu(rng, p.n)
            m = scalar_multiplier(p, nu)
            assert m <= 1e-12
            assert scalar_multiplier(p, -nu) == m


class TestSeriesIdentities:
    # m's 2F3 and lambda1's bond 3F4 are summed from b1 and b2:
    # m = (n b1 + 2 b2) / (n+2) and merged = (b1 + 2 b2) / 3
    def test_three_series(self):
        assert set(multipliers._series(NonlocalParams(3, 1.0, 2.0))) == {
            "g", "b1", "b2"}

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_sums_against_the_direct_series(self, n):
        worst = 0.0
        for beta in (n - 4.0, n - 1.0, n + 1.0, n + 2 - 1e-3):
            h = (n + 2 - beta) / 2.0
            p = NonlocalParams(n, 1.0, beta)
            for phase in (0.5, 8.0, 60.0, 400.0):
                nu = np.zeros(n)
                nu[0] = phase
                z = -0.25 * phase * phase
                with mpmath.workprec(200):
                    m = -phase**2 * mpmath.hyper(
                        [1, h], [2, n / 2 + 1, h + 1], z)
                    merged = mpmath.hyper(
                        [1, 2.5, h], [2, 1.5, n / 2 + 2, h + 1], z)
                # at lambda* = mu, lambda1 is its bond part -3 mu |nu|^2 merged
                for got, want in (
                        (scalar_multiplier(p, nu), m),
                        (eigenvalue_parallel(p, Material(1.0, 1.0), nu),
                         -3.0 * phase**2 * merged)):
                    worst = max(worst, float(abs((got - want) / want)))
        assert worst <= 5e-14, worst


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            p = random_params(rng)
            nu = random_nu(rng, p.n, lo=0.3, hi=10.0)
            grad = scalar_multiplier_gradient(p, nu)
            h = 1e-5
            for i in range(p.n):
                e = np.zeros(p.n)
                e[i] = h
                fd = (scalar_multiplier(p, nu + e)
                      - scalar_multiplier(p, nu - e)) / (2.0 * h)
                assert_allclose(grad[i], fd, rtol=1e-5, atol=1e-7)


class TestBondTensor:
    def test_zero_frequency(self):
        p = NonlocalParams(3, 1.0, 2.0)
        t = tensor_multiplier_bond(p, Material(1.0, 0.0), np.zeros(3))
        assert_array_equal(t.matrix, np.zeros((3, 3)))

    def test_local_limit(self):
        # delta -> 0 gives -mu |nu|^2 I - 2 mu nu (x) nu
        p = NonlocalParams(3, 1e-3, 2.0)
        t = tensor_multiplier_bond(p, Material(1.0, 5.0), [1.0, 0.0, 0.0])
        assert_allclose(t.matrix, np.diag([-3.0, -1.0, -1.0]), atol=1e-5)

    def test_trace_identity_example(self):
        p = NonlocalParams(2, 2.0, 2.5)
        mat = Material(1.7, 0.0)
        nu = np.array([1.0, 2.0])
        t = tensor_multiplier_bond(p, mat, nu)
        expected = (p.n + 2) * mat.mu * scalar_multiplier(p, nu)
        assert_allclose(np.trace(t.matrix), expected, rtol=1e-9)

    def test_trace_identity_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            p = random_params(rng)
            mat = Material(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 3.0))
            nu = random_nu(rng, p.n, lo=0.0)
            t = tensor_multiplier_bond(p, mat, nu)
            expected = (p.n + 2) * mat.mu * scalar_multiplier(p, nu)
            assert_allclose(np.trace(t.matrix), expected, rtol=1e-9,
                            atol=1e-30)

    def test_against_quadrature(self):
        p = NonlocalParams(2, 1.0, 1.0)
        mat = Material(1.0, 0.0)
        nu = np.array([1.0, 1.0])
        q, _ = oracle.tensor_bond_quad(p, mat, nu)
        assert_allclose(tensor_multiplier_bond(p, mat, nu).matrix, q,
                        rtol=1e-7, atol=1e-9)


class TestStateTensor:
    def test_vanishes_when_lame_parameters_match(self):
        p = NonlocalParams(2, 1.0, 1.0)
        t = tensor_multiplier_state(p, Material(1.3, 1.3), [2.0, 1.0])
        assert_array_equal(t.matrix, np.zeros((2, 2)))

    def test_zero_frequency(self):
        p = NonlocalParams(2, 1.0, 1.0)
        t = tensor_multiplier_state(p, Material(1.0, 2.0), np.zeros(2))
        assert_array_equal(t.matrix, np.zeros((2, 2)))

    def test_rank_one(self):
        p = NonlocalParams(3, 0.8, 2.0)
        t = tensor_multiplier_state(p, Material(1.0, 2.5), [1.0, -2.0, 0.5])
        s = np.linalg.svd(t.matrix, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_against_quadrature(self):
        p = NonlocalParams(3, 0.25, 2.0)
        mat = Material(1.0, 2.0)
        nu = np.array([0.0, 0.0, 2.0])
        q, _ = oracle.tensor_state_quad(p, mat, nu)
        assert_allclose(tensor_multiplier_state(p, mat, nu).matrix, q,
                        atol=1e-7)


class TestFullTensor:
    def test_equals_bond_when_state_vanishes(self):
        p = NonlocalParams(3, 1.2, 2.0)
        mat = Material(1.4, 1.4)
        nu = np.array([0.3, -1.0, 2.0])
        assert_array_equal(tensor_multiplier(p, mat, nu).matrix,
                           tensor_multiplier_bond(p, mat, nu).matrix)

    def test_sum_against_quadrature(self):
        p = NonlocalParams(3, 1.0, 3.0)
        mat = Material(1.0, 1.0)
        nu = np.array([1.0, 1.0, 1.0])
        qb, _ = oracle.tensor_bond_quad(p, mat, nu)
        qs, _ = oracle.tensor_state_quad(p, mat, nu)
        assert_allclose(tensor_multiplier(p, mat, nu).matrix, qb + qs,
                        rtol=1e-7, atol=1e-9)

    def test_symmetry_and_reconstruction(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            p = random_params(rng)
            mat = Material(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 3.0))
            nu = random_nu(rng, p.n, lo=0.0)
            t = tensor_multiplier(p, mat, nu)
            assert np.max(np.abs(t.matrix - t.matrix.T)) <= 1e-14
            rebuilt = (t.alpha_b1 * np.eye(p.n)
                       + (t.alpha_b2 + t.alpha_s) * np.outer(nu, nu))
            assert_allclose(t.matrix, rebuilt, rtol=1e-12, atol=1e-300)

    def test_rotation_covariance(self):
        rng = np.random.default_rng(13)
        for n in (2, 3):
            p = NonlocalParams(n, 1.5, n - 0.5)
            mat = Material(1.2, 0.4)
            for _ in range(10):
                nu = random_nu(rng, n, lo=0.5, hi=10.0)
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                left = tensor_multiplier(p, mat, q @ nu).matrix
                right = q @ tensor_multiplier(p, mat, nu).matrix @ q.T
                scale = max(1.0, np.max(np.abs(right)))
                assert np.max(np.abs(left - right)) <= 1e-10 * scale

    def test_evenness_exact(self):
        p = NonlocalParams(2, 2.0, 1.5)
        mat = Material(1.0, -0.5)
        nu = np.array([1.7, -0.3])
        assert_array_equal(tensor_multiplier(p, mat, nu).matrix,
                           tensor_multiplier(p, mat, -nu).matrix)


class TestNavier:
    def test_axis_example(self):
        M = navier_multiplier(Material(1.0, 2.0), [1.0, 0.0, 0.0])
        assert_array_equal(M, np.diag([-4.0, -1.0, -1.0]))

    def test_zero_frequency(self):
        M = navier_multiplier(Material(1.0, 2.0), np.zeros(3))
        assert_array_equal(M, np.zeros((3, 3)))

    def test_parallel_action(self):
        M = navier_multiplier(Material(1.0, 1.0), [0.0, 2.0])
        assert_allclose(M @ np.array([0.0, 2.0]), np.array([0.0, -24.0]),
                        rtol=1e-14)
        lam1, lam2 = navier_eigenvalues(Material(1.0, 1.0), 2.0)
        assert lam1 == -12.0
        assert lam2 == -4.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_non_finite_frequency_rejected(self, bad):
        # 1e200 is finite, but its |nu|^2 is not
        mat = Material(1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: navier_eigenvalues(mat, bad),
                         lambda: navier_multiplier(mat, [bad, 0.0]),
                         lambda: orthonormal_basis([bad, 1.0])):
                with pytest.raises(InvalidParams, match=r"\|nu\|\^2"):
                    call()


class TestBatchEigenvalues:
    def test_matches_scalar_forms_exactly(self):
        # unequal box with k = 0 and +/- pairs, plus off-lattice rows: the
        # batched squared norm must round like the scalar path's v @ v
        p = NonlocalParams(3, 0.7, 2.5)
        mat = Material(1.3, -0.4)
        k = np.array(list(itertools.product(range(-3, 4), repeat=3)))
        nu = 2.0 * math.pi * k / np.array([4.1, 5.7, 7.3])
        nu = np.vstack([nu, np.random.default_rng(5).uniform(-9.0, 9.0, (40, 3))])
        lam1, lam2 = eigenvalues(p, mat, nu)
        assert lam1.shape == lam2.shape == (len(nu),)
        for row, l1, l2 in zip(nu, lam1, lam2):
            assert l1 == eigenvalue_parallel(p, mat, row)
            assert l2 == eigenvalue_transverse(p, mat, row)
        box = len(k)
        assert np.array_equal(lam1[:box], lam1[:box][::-1])   # row i is -row(-i)
        assert np.array_equal(lam2[:box], lam2[:box][::-1])
        zero = box // 2
        assert lam1[zero] == 0.0 and lam2[zero] == 0.0

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 3), k_max=st.integers(1, 2), data=st.data())
    def test_rows_equal_scalar_forms_on_random_boxes(self, n, k_max, data):
        lengths = data.draw(st.lists(st.floats(1.0, 10.0), min_size=n,
                                     max_size=n), label="lengths")
        delta = data.draw(st.floats(0.1, 4.0), label="delta")
        beta = data.draw(st.floats(-2.0, n + 2 - 0.05), label="beta")
        mu = data.draw(st.floats(0.5, 3.0), label="mu")
        lambda_star = data.draw(st.floats(-2.0 * mu, 3.0), label="lambda_star")
        p, mat = NonlocalParams(n, delta, beta), Material(mu, lambda_star)
        k = np.array(list(itertools.product(range(-k_max, k_max + 1),
                                            repeat=n)))
        nu = 2.0 * math.pi * k / np.array(lengths)
        # the box as given, and its rows permuted with some repeated
        order = data.draw(st.permutations(range(len(nu))), label="order")
        repeat = data.draw(st.lists(st.integers(0, len(nu) - 1), min_size=1,
                                    max_size=8), label="repeat")
        for rows in (nu, np.vstack([nu[order], nu[repeat]])):
            lam1, lam2 = eigenvalues(p, mat, rows)
            assert lam1.tolist() == [eigenvalue_parallel(p, mat, v)
                                     for v in rows]
            assert lam2.tolist() == [eigenvalue_transverse(p, mat, v)
                                     for v in rows]

    def test_one_dimension_and_empty(self):
        p = NonlocalParams(1, 1.5, 0.5)
        mat = Material(0.8, 1.7)
        nu = np.array([[-2.5], [0.0], [2.5], [7.0]])
        lam1, lam2 = eigenvalues(p, mat, nu)
        assert lam1.tolist() == [eigenvalue_parallel(p, mat, v) for v in nu]
        assert lam2.tolist() == [eigenvalue_transverse(p, mat, v) for v in nu]
        lam1, lam2 = eigenvalues(p, mat, np.zeros((0, 1)))
        assert lam1.shape == lam2.shape == (0,)

    def test_several_materials_match_single_calls(self):
        # delta = 2 at |nu| up to 15 mixes float and escalated series
        p = NonlocalParams(3, 2.0, 4.0)
        nu = np.zeros((30, 3))
        nu[:, 0] = np.linspace(0.0, 15.0, 30)
        mats = [Material(1.2, s) for s in (-1.5, 0.25, 1.75)] + [
            Material(0.7, 0.0)]
        pairs = eigenvalues_by_material(p, mats, nu)
        assert len(pairs) == len(mats)
        for mat, (lam1, lam2) in zip(mats, pairs):
            one1, one2 = eigenvalues(p, mat, nu)
            assert np.array_equal(lam1, one1) and np.array_equal(lam2, one2)
        assert eigenvalues_by_material(p, [], nu) == []

    def test_requests_match_single_calls(self):
        # requests of mixed n, delta and beta share one series pass; the
        # first two share every series (same n and beta), and n = 1 at
        # h = 1.5 cancels the merged 3F4 down to a 1F2
        grid = np.linspace(0.0, 15.0, 30)
        requests = []
        for n, delta, beta in ((3, 2.0, 4.0), (3, 1.0, 4.0), (1, 0.5, 0.0),
                               (2, 1e-3, 4.0 - 1e-3)):
            nu = np.zeros((grid.size, n))
            nu[:, 0] = grid
            mats = [Material(1.2, s) for s in (-1.5, 0.25)]
            requests.append((NonlocalParams(n, delta, beta), mats, nu))
        got = eigenvalues_many(requests)
        assert len(got) == len(requests)
        for (p, mats, nu), pairs in zip(requests, got):
            alone = eigenvalues_by_material(p, mats, nu)
            assert len(pairs) == len(alone) == len(mats)
            for (lam1, lam2), (one1, one2) in zip(pairs, alone):
                assert np.array_equal(lam1, one1)
                assert np.array_equal(lam2, one2)
        assert eigenvalues_many([]) == []

    @pytest.mark.parametrize("evaluate, quantity", [
        (lambda p, mat: eigenvalue_parallel(p, mat, [1e200, 0.0]),
         r"\|nu\|\^2"),
        (lambda p, mat: eigenvalues(p, mat, [[1e200, 0.0]]), r"\|nu\|\^2"),
        # a huge horizon is past the reach long before z overflows
        (lambda p, mat: eigenvalues(NonlocalParams(2, 1e300, 2.0), mat,
                                    [[1.0, 0.0]]), "MAX_PHASE"),
        (lambda p, mat: scalar_multiplier_gradient(p, [1e200, 0.0]),
         r"\|nu\|"),
    ], ids=["scalar-nu", "batch-nu", "batch-z", "gradient-nu"])
    def test_overflowing_input_names_the_quantity(self, evaluate, quantity):
        # a huge frequency or horizon is a usage error, not a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParams, match=quantity):
                evaluate(NonlocalParams(2, 1.0, 2.0), Material(1.0, 0.0))

    def test_overflow_raises(self):
        # finite but huge materials overflow products of finite factors
        p = NonlocalParams(3, 1.0, 3.0)
        huge = Material(1e308, 1e308)
        nu = np.array([[0.0, 0.0, 0.0], [7.5, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent, match="overflows"):
                eigenvalues_by_material(p, [Material(1.0, 0.0), huge], nu)
            for closed_form in (tensor_multiplier_bond, tensor_multiplier,
                                eigenvalue_parallel, eigenvalue_parallel_split,
                                eigenvalue_transverse):
                with pytest.raises(NonConvergent, match="overflows"):
                    closed_form(p, huge, nu[1])
            # alpha_s is finite, its rank-one matrix is not
            with pytest.raises(NonConvergent, match="overflows"):
                tensor_multiplier_state(p, Material(1.0, 1.7e308),
                                        np.array([3.0, 1.0, 0.0]))

    def test_shape_validation(self):
        p = NonlocalParams(3, 1.0, 2.0)
        mat = Material(1.0, 0.0)
        for bad in (np.ones(3), np.ones((4, 2)), np.ones((2, 2, 3))):
            with pytest.raises(InvalidParams):
                eigenvalues(p, mat, bad)


class TestClosedGate:
    """``_closed`` is the one entrance: it checks every request's |nu|^2
    before it finds a shell or sums a series."""

    @staticmethod
    def _no_series(*args, **kwargs):
        raise AssertionError("a series was summed past the gate")

    @pytest.mark.parametrize("nn2, match", [
        # |nu| delta past MAX_PHASE at delta = 2, in the second entry
        (np.array([1.0, (multipliers.MAX_PHASE / 2.0) ** 2 * 1.01]),
         "MAX_PHASE"),
        (np.array([1.0, np.inf]), r"\|nu\|\^2"),
        (np.array([np.nan, 1.0]), r"\|nu\|\^2"),
        ((multipliers.MAX_PHASE / 2.0) ** 2 * 1.01, "MAX_PHASE"),
        (math.inf, r"\|nu\|\^2"),
    ], ids=["array-reach", "array-inf", "array-nan", "float-reach",
            "float-inf"])
    def test_request_past_the_gate_is_refused(self, nn2, match, monkeypatch):
        monkeypatch.setattr(multipliers, "pfq_batch", self._no_series)
        monkeypatch.setattr(multipliers, "pfq", self._no_series)
        p, mat = NonlocalParams(3, 2.0, 4.0), Material(1.0, 0.5)
        inside = np.array([1.0, 4.0]) if isinstance(nn2, np.ndarray) else 1.0
        # an earlier request inside the reach is not summed either
        requests = [(p, inside, [(mat, "lambda1")]),
                    (p, nn2, [(mat, "lambda1"), (mat, "lambda2")])]
        with pytest.raises(InvalidParams, match=match):
            multipliers._closed(requests)

    def test_shapes_are_checked_before_the_gate(self):
        # every request's shape is checked first, so a later request's
        # shape error is named before an earlier request's reach error
        p, mat = NonlocalParams(2, 2.0, 3.0), Material(1.0, 0.5)
        past = np.array([[multipliers.MAX_PHASE, 0.0]])
        with pytest.raises(InvalidParams, match="MAX_PHASE"):
            eigenvalues_many([(p, [mat], past)])
        with pytest.raises(InvalidParams, match=r"\(m, 2\) array"):
            eigenvalues_many([(p, [mat], past), (p, [mat], np.zeros(2))])

    def test_one_value_per_want_in_order(self):
        p = NonlocalParams(2, 1.5, 3.0)
        nu = np.array([[0.0, 0.0], [3.0, 4.0], [4.0, 3.0]])
        mats = [Material(1.0, -0.5), Material(2.0, 1.0)]
        nn2 = multipliers._frequencies(p, nu)[1]
        wants = [(mats[1], "lambda2"), (mats[0], "lambda1"),
                 (mats[1], "lambda1")]
        [values] = multipliers._closed([(p, nn2, wants)])
        assert len(values) == len(wants)
        for (mat, name), got in zip(wants, values):
            lam1, lam2 = eigenvalues(p, mat, nu)
            want = lam1 if name == "lambda1" else lam2
            assert got.tobytes() == want.tobytes()

    def test_fortran_ordered_rows_keep_the_bits(self):
        # the batched matmul rounds strided rows differently at n >= 4: on
        # Fortran-ordered rows this 7^4 box moved 484 of its 2,401 rows
        p, mat = NonlocalParams(4, 1.3, 3.5), Material(1.0, 0.4)
        k = np.array(list(itertools.product(range(-3, 4), repeat=4)))
        nu = 2.0 * math.pi * k / np.array([1.0, 1.7, 2.3, 3.1])
        fortran = np.asfortranarray(nu)
        assert not fortran.flags.c_contiguous
        lam1, lam2 = eigenvalues(p, mat, fortran)
        for c_order, f_order in zip(eigenvalues(p, mat, nu), (lam1, lam2)):
            assert c_order.tobytes() == f_order.tobytes()
        assert all(eigenvalue_parallel(p, mat, nu[i]) == lam1[i]
                   for i in [0, 1200, 2400, *range(5, 2401, 97)])


class TestEigenvalues:
    def test_parallel_local_limit(self):
        p = NonlocalParams(3, 1e-3, 2.0)
        lam1 = eigenvalue_parallel(p, Material(1.0, 1.0), [1.0, 0.0, 0.0])
        assert_allclose(lam1, -3.0, atol=1e-5)

    def test_parallel_equals_bond_form_when_state_vanishes(self):
        p = NonlocalParams(2, 1.3, 1.0)
        mat = Material(1.1, 1.1)
        nu = np.array([2.0, -1.0])
        t = tensor_multiplier_bond(p, mat, nu)
        expected = t.alpha_b1 + t.alpha_b2 * float(nu @ nu)
        assert_allclose(eigenvalue_parallel(p, mat, nu), expected, rtol=1e-12)

    def test_parallel_against_quadrature(self):
        p = NonlocalParams(3, 2.0, 3.5)
        mat = Material(1.0, 0.0)
        nu = np.array([5.0, 0.0, 0.0])
        q, _ = oracle.lambda1_quad(p, mat, nu)
        assert_allclose(eigenvalue_parallel(p, mat, nu), q, rtol=1e-6)

    def test_merged_and_split_forms_agree(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            p = random_params(rng)
            mat = Material(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 3.0))
            nu = random_nu(rng, p.n)
            merged = eigenvalue_parallel(p, mat, nu)
            split = eigenvalue_parallel_split(p, mat, nu)
            assert_allclose(merged, split, rtol=1e-10, atol=1e-30)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), phase=st.floats(0.0, 400.0),
           delta=st.floats(0.1, 4.0), data=st.data())
    def test_merged_and_split_forms_agree_at_large_phase(self, n, phase,
                                                         delta, data):
        # |nu| delta up to 400 (z down to -4e4) reaches the large-|z| tier;
        # both forms sum b1, b2 and g, so this checks the coefficient
        # formulas against lambda1's formula there
        beta = data.draw(st.floats(-2.0, n + 2 - 0.05), label="beta")
        mu = data.draw(st.floats(0.5, 3.0), label="mu")
        lambda_star = data.draw(st.floats(-2.0 * mu, 3.0),
                                label="lambda_star")
        p = NonlocalParams(n, delta, beta)
        mat = Material(mu, lambda_star)
        nu = np.zeros(n)
        nu[0] = phase / delta
        assert_allclose(eigenvalue_parallel(p, mat, nu),
                        eigenvalue_parallel_split(p, mat, nu),
                        rtol=1e-10, atol=1e-30)

    def test_transverse_local_limit(self):
        p = NonlocalParams(3, 1e-3, 2.0)
        for lam_star in (-1.0, 0.0, 2.0):
            lam2 = eigenvalue_transverse(p, Material(1.0, lam_star),
                                         [1.0, 0.0, 0.0])
            assert_allclose(lam2, -1.0, atol=1e-5)

    def test_transverse_kernel_exponent_limit(self):
        # beta -> n + 2 kills every k >= 1 term of the series
        p = NonlocalParams(2, 1.5, 4.0 - 1e-9)
        mat = Material(1.3, 0.0)
        nu = np.array([3.0, 4.0])
        assert_allclose(eigenvalue_transverse(p, mat, nu),
                        -mat.mu * 25.0, rtol=1e-8)

    def test_transverse_against_quadrature(self):
        p = NonlocalParams(2, 1.5, 1.0)
        mat = Material(2.0, 0.0)
        nu = np.array([3.0, 4.0])
        q, _ = oracle.lambda2_quad(p, mat, nu)
        assert_allclose(eigenvalue_transverse(p, mat, nu), q, rtol=1e-6)

    def test_transverse_ignores_second_lame_parameter(self):
        p = NonlocalParams(3, 2.0, 2.0)
        nu = np.array([1.0, 2.0, 2.0])
        values = {eigenvalue_transverse(p, Material(1.5, ls), nu)
                  for ls in (-1.0, 0.0, 2.0, 3.0)}
        assert len(values) == 1

    def test_zero_frequency_continuity(self):
        p = NonlocalParams(2, 1.0, 1.0)
        mat = Material(1.0, 0.5)
        assert eigenvalue_parallel(p, mat, np.zeros(2)) == 0.0
        assert eigenvalue_transverse(p, mat, np.zeros(2)) == 0.0

    def test_nonpositive_in_admissible_range(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            p = random_params(rng)
            mu = rng.uniform(0.5, 3.0)
            mat = Material(mu, rng.uniform(-2.0 * mu, 3.0))
            nu = random_nu(rng, p.n, lo=0.0)
            assert eigenvalue_parallel(p, mat, nu) <= 1e-12
            assert eigenvalue_transverse(p, mat, nu) <= 1e-12

    def test_monotone_in_second_lame_parameter(self):
        # the lambda* derivative is exactly -|nu|^2 g(|nu|)^2
        rng = np.random.default_rng(16)
        for _ in range(25):
            p = random_params(rng)
            mu = rng.uniform(0.5, 3.0)
            ls = rng.uniform(-2.0 * mu, 3.0)
            nu = random_nu(rng, p.n)
            nn2 = float(nu @ nu)
            lo = eigenvalue_parallel(p, Material(mu, ls), nu)
            hi = eigenvalue_parallel(p, Material(mu, ls + 1.0), nu)
            g = gradient_factor(p, math.sqrt(nn2))
            # subtracting the two eigenvalues leaves an ulp-level floor
            floor = 5e-16 * (abs(lo) + abs(hi))
            assert_allclose(hi - lo, -nn2 * g * g, rtol=1e-10, atol=floor)
            assert hi < lo or nn2 * g * g == 0.0


def _navier_deviations(p, mat):
    nu = np.zeros(p.n)
    nu[0] = 1.0
    M = tensor_multiplier(p, mat, nu).matrix
    MN = navier_multiplier(mat, nu)
    lam1_n, lam2_n = navier_eigenvalues(mat, 1.0)
    dev_m = np.max(np.abs(M - MN))
    dev1 = abs(eigenvalue_parallel(p, mat, nu) - lam1_n)
    dev2 = abs(eigenvalue_transverse(p, mat, nu) - lam2_n)
    return dev_m, dev1, dev2, np.max(np.abs(MN)), abs(lam1_n), abs(lam2_n)


def test_local_limit_in_horizon():
    # delta -> 0 at fixed beta: deviations shrink like delta^2
    for n in (1, 2, 3):
        for beta in (n + 1.0, 0.0, n + 2 - 1e-3):
            for lam_star in (-1.9, 1.0):
                p = NonlocalParams(n, 1e-3, beta)
                dev_m, dev1, dev2, s_m, s1, s2 = _navier_deviations(
                    p, Material(1.0, lam_star))
                assert dev_m <= 1e-4 * s_m
                assert dev1 <= 1e-4 * s1
                if n > 1:
                    assert dev2 <= 1e-4 * s2


def test_local_limit_in_kernel_exponent():
    # beta -> n + 2 at fixed delta: deviations shrink like eps = n + 2 - beta
    # (first order, with an O(1) material-dependent constant, so eps must be
    # ~1e-6 for 1e-4 relative agreement even near the stability boundary
    # where the reference eigenvalue lambda1 = -(lambda* + 2 mu) is small)
    for n in (1, 2, 3):
        for lam_star in (-1.9, 1.0):
            p = NonlocalParams(n, 2.0, n + 2 - 1e-6)
            dev_m, dev1, dev2, s_m, s1, s2 = _navier_deviations(
                p, Material(1.0, lam_star))
            assert dev_m <= 1e-4 * s_m
            assert dev1 <= 1e-4 * s1
            if n > 1:
                assert dev2 <= 1e-4 * s2


def test_kernel_exponent_convergence_is_first_order():
    # halving eps halves the Navier deviation (ratio ~ 2, allow 15% slack)
    mat = Material(1.0, 2.0)
    nu = np.array([1.0, 0.0, 0.0])
    lam1_n = -4.0
    devs = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        p = NonlocalParams(3, 2.0, 5.0 - eps)
        devs.append(abs(eigenvalue_parallel(p, mat, nu) - lam1_n))
    for a, b in zip(devs, devs[1:]):
        assert 1.7 <= a / b <= 2.3


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestClosedBundle:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_entries_equal_single_quantity_functions(self, n):
        rng = np.random.default_rng(40 + n)
        axis = np.zeros(n)
        axis[-1] = -2.5
        # |nu| delta = 20 and 60 take the double-double and large-|z| tiers
        deep = rng.standard_normal(n)
        nus = [np.zeros(n), axis, random_nu(rng, n),
               20.0 * deep / np.linalg.norm(deep),
               60.0 * deep / np.linalg.norm(deep)]
        p = NonlocalParams(n, 1.0, n - 0.5)
        for mat in (Material(1.3, 1.3), Material(0.8, -1.2)):
            for nu in nus:
                got = closed_bundle(p, mat, nu)
                want = {
                    "scalar": scalar_multiplier(p, nu),
                    "bond": tensor_multiplier_bond(p, mat, nu).matrix,
                    "state": tensor_multiplier_state(p, mat, nu).matrix,
                    "lambda1": eigenvalue_parallel(p, mat, nu),
                    "lambda2": eigenvalue_transverse(p, mat, nu)}
                assert got.keys() == want.keys()
                for name in want:
                    assert _same_bits(got[name], want[name]), (name, nu)

    def test_state_is_positive_zero_when_lame_parameters_match(self):
        p = NonlocalParams(3, 1.0, 2.0)
        state = closed_bundle(p, Material(1.3, 1.3), [-2.0, 0.0, 1.0])["state"]
        assert not np.signbit(state).any() and not state.any()

    @pytest.mark.parametrize("function, nu, calls", [
        (closed_bundle, [1.0, -2.0, 0.5], 3),
        (closed_bundle, [0.0, 0.0, 0.0], 0),
        (eigenvalue_parallel, [1.0, -2.0, 0.5], 3),
        (eigenvalue_transverse, [1.0, -2.0, 0.5], 1),
        (eigen_decomposition, [1.0, -2.0, 0.5], 3),
    ])
    def test_each_series_summed_once(self, monkeypatch, function, nu, calls):
        seen, pfq = [], multipliers.pfq

        def counting_pfq(series, z, tol):
            seen.append(series)
            return pfq(series, z, tol)

        monkeypatch.setattr(multipliers, "pfq", counting_pfq)
        function(NonlocalParams(3, 1.5, 2.0), Material(1.0, 0.5), nu)
        assert len(seen) == calls == len(set(seen))

    def test_no_series_no_engine_call(self, monkeypatch):
        # at lambda* = mu the state part needs no series at all
        def no_engine(*args, **kwargs):
            raise AssertionError("the series engine was called")

        monkeypatch.setattr(multipliers, "pfq", no_engine)
        monkeypatch.setattr(multipliers, "pfq_batch", no_engine)
        state = tensor_multiplier_state(NonlocalParams(3, 1.5, 2.0),
                                        Material(1.0, 1.0), [1.0, -2.0, 0.5])
        assert state.alpha_s == 0.0 and not state.matrix.any()


class TestEigenDecomposition:
    def test_axis_basis(self):
        basis = orthonormal_basis(np.array([0.0, 0.0, 2.0]))
        assert_array_equal(basis, np.array([[0.0, 0.0, 1.0],
                                            [1.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0]]))

    def test_one_dimensional(self):
        p = NonlocalParams(1, 1.0, 0.0)
        d = eigen_decomposition(p, Material(1.0, 0.0), [-3.0])
        assert d.basis.shape == (1, 1)
        assert d.basis[0, 0] == -1.0

    def test_zero_frequency_standard_basis(self):
        p = NonlocalParams(3, 1.0, 2.0)
        d = eigen_decomposition(p, Material(1.0, 0.0), np.zeros(3))
        assert d.lambda1 == 0.0 and d.lambda2 == 0.0
        assert_array_equal(d.basis, np.eye(3))

    def test_residuals_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_params(rng)
            mat = Material(rng.uniform(0.5, 3.0), rng.uniform(-2.0, 3.0))
            nu = random_nu(rng, p.n)
            d = eigen_decomposition(p, mat, nu)
            B = d.basis
            assert np.max(np.abs(B @ B.T - np.eye(p.n))) <= 1e-12
            M = tensor_multiplier(p, mat, nu).matrix
            for j in range(p.n):
                lam = d.lambda1 if j == 0 else d.lambda2
                res = np.linalg.norm(M @ B[j] - lam * B[j])
                assert res <= 1e-9 * (1.0 + abs(lam))
