"""Quadrature oracle tests: trivial anchors, parity, and self-consistency."""

import ast
import importlib
import math
import pkgutil
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import roots_jacobi

import perispec._gauss
from perispec.cli import run_verification
from perispec.errors import (AccuracyNotReached, InvalidParams, NonConvergent,
                             ZeroFrequency)
from perispec.multipliers import (Material, NonlocalParams, closed_bundle,
                                  eigenvalue_parallel, eigenvalue_transverse,
                                  scaling_constant)
import perispec.oracle
from perispec.oracle import (DEFAULT_SPEC, QuadratureSpec, apply_to_plane_wave,
                             lambda1_quad, lambda2_quad, moment_identity_check,
                             quadrature_bundle, quadrature_bundles,
                             scalar_multiplier_quad, tensor_bond_quad,
                             tensor_state_quad)


def _imports(module):
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = ".".join(filter(None, ["perispec" if node.level else "",
                                          node.module]))
            imported |= {name} | {f"{name}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    return imported


def test_oracle_imports_nothing_from_series_path():
    # the cross-check is only worth something while the two paths share no code
    imported = _imports(perispec.oracle)
    assert "perispec.errors" in imported
    assert not [m for m in imported
                if m.startswith(("perispec.hypergeom", "perispec.multipliers"))]


def test_rule_builder_imports_only_numpy_and_errors():
    # the oracle's Gauss rules come from here, so it is held to the same
    assert {m.split(".")[0] for m in _imports(perispec._gauss)} == {
        "math", "numpy", "perispec"}
    assert {m for m in _imports(perispec._gauss)
            if m.startswith("perispec")} <= {"perispec.errors",
                                             "perispec.errors.NonConvergent"}


def test_no_module_uses_numpy_random():
    # verify draws its tuples with the standard library: importing
    # numpy.random would add ~6 MB to its peak resident memory
    for info in pkgutil.iter_modules(perispec.__path__):
        module = importlib.import_module(f"perispec.{info.name}")
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        named = _imports(module) | {ast.unparse(node)
                                    for node in ast.walk(tree)
                                    if isinstance(node, ast.Attribute)}
        assert not [m for m in named
                    if m.split(".")[:2] in (["np", "random"],
                                            ["numpy", "random"])], module


def _jacobi_reference(npts, a, b, x0):
    """Gauss-Jacobi nodes polished from ``x0`` in 40-digit mpmath, and their
    weights from the Christoffel formula

        w_i = 2^(a+b+1) G(N+a+1) G(N+b+1) / (G(N+a+b+1) N! (1-x_i^2) P_N'(x_i)^2),

    with P_N in the standard normalization, by its own recurrence."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        const = (2 ** (a + b + 1) * mpmath.gamma(npts + a + 1)
                 * mpmath.gamma(npts + b + 1)
                 / (mpmath.gamma(npts + a + b + 1) * mpmath.factorial(npts)))

        def p_and_dp(x):
            p0, p1 = mpmath.mpf(1), ((a + b + 2) * x + a - b) / 2
            for k in range(2, npts + 1):
                s = 2 * k + a + b
                p0, p1 = p1, ((s - 1) * (s * (s - 2) * x + a * a - b * b) * p1
                              - 2 * (k + a - 1) * (k + b - 1) * s * p0
                              ) / (2 * k * (k + a + b) * (s - 2))
            s = 2 * npts + a + b
            dp = (npts * ((a - b) - s * x) * p1
                  + 2 * (npts + a) * (npts + b) * p0) / (s * (1 - x * x))
            return p1, dp

        nodes, weights = [], []
        for x in x0:
            # two Newton steps from a double take x far past 1e-30; the
            # derivative of the second step is then exact to that order
            x = mpmath.mpf(float(x))
            for _ in range(2):
                p, dp = p_and_dp(x)
                x -= p / dp
            nodes.append(x)
            weights.append(const / ((1 - x * x) * dp * dp))
        return nodes, weights


class TestGaussRule:
    # b = 8 is _ASYMPTOTIC_SEED_MAX and 8.5 takes the eigenvalue seed; 192
    # is the largest default inner rule at oracle.MAX_PHASE, 2088 the one at
    # multipliers.MAX_PHASE.  At b = -0.999 the weights of every seed lose
    # digits with N (1.4e-9 at N = 192, where scipy's lose 6.4e-8), so that
    # exponent is judged at N = 32
    @pytest.mark.parametrize("npts, a, b", [
        (256, 0.0, -0.95), (544, 0.0, 0.0), (96, 0.0, 50.0),
        (100, -0.5, -0.5), (300, 2.5, 2.5), (32, 0.0, -0.999),
        (192, 0.0, 0.5), (192, 0.0, 6.0), (192, 0.0, 8.0), (192, 0.0, 8.5),
        (2088, 0.0, 0.5)])
    def test_against_mpmath(self, npts, a, b):
        # judged on the nodes at both ends and a spread through the middle;
        # nodes lie in [-1, 1], so their errors are absolute
        x, w = perispec.oracle._gauss_rules([(npts, a, b)])[0]
        idx = sorted({*range(6), *range(npts - 6, npts),
                      *range(0, npts, npts // 16)})
        ref_x, ref_w = _jacobi_reference(npts, a, b, x[idx])
        ref_x = np.array([float(v) for v in ref_x])
        ref_w = np.array([float(v) for v in ref_w])

        def errors(nodes, weights):
            return (np.max(np.abs(nodes[idx] - ref_x)),
                    np.max(np.abs(weights[idx] / ref_w - 1.0)))

        got, scipy = errors(x, w), errors(*roots_jacobi(npts, a, b))
        for err, scipy_err in zip(got, scipy):
            assert err <= 1e-10
            # no farther than scipy's, up to the rounding plateau
            assert err <= max(scipy_err, 1e-13), (got, scipy)

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.5, -0.5), (2.5, 2.5),
                                      (0.0, -0.95), (0.0, 3.7), (0.0, 50.0),
                                      (1.5, -0.5), (0.0, -0.999), (0.0, 0.5),
                                      (0.0, 6.0), (0.0, 8.0), (0.0, 8.5)])
    @pytest.mark.parametrize("npts", [1, 2, 3, 5, 8])
    def test_exact_on_polynomials(self, npts, a, b):
        # int (1-x)^a (1+x)^b x^j dx through x = 2u - 1 and Beta integrals
        x, w = perispec.oracle._gauss_rules([(npts, a, b)])[0]
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        with mpmath.workdps(30):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            mass = float(2 ** (a + b + 1) * mpmath.beta(b + 1, a + 1))
            for j in range(2 * npts):
                exact = 2 ** (a + b + 1) * mpmath.fsum(
                    mpmath.binomial(j, i) * 2**i * (-1) ** (j - i)
                    * mpmath.beta(b + i + 1, a + 1) for i in range(j + 1))
                assert abs(float(w @ x**j) - float(exact)) <= 1e-14 * mass, j

    def test_rules_are_read_only(self):
        x, w = perispec.oracle._gauss_rules([(16, 0.0, 1.5)])[0]
        assert not x.flags.writeable and not w.flags.writeable

    def test_batch_equals_rules_built_alone(self):
        # every node and weight keeps its bits whatever it is built with:
        # rules of one (a, b) share the recurrence, the others gather theirs
        keys = [(npts, a, b) for npts in (1, 2, 3, 16, 17, 544)
                for a, b in ((0.0, 0.0), (-0.5, -0.5), (2.5, 2.5), (6.0, 6.0),
                             (0.0, -0.95), (0.0, 50.0), (1.5, -0.5))]
        alone = {key: perispec.oracle._gauss_rules([key])[0] for key in keys}
        asked = keys[::-1] + keys[:5]          # unsorted, with duplicates
        got = perispec.oracle._gauss_rules(asked)
        assert len(got) == len(asked)
        for key, (x, w) in zip(asked, got):
            assert_array_equal(x, alone[key][0])
            assert_array_equal(w, alone[key][1])
            assert not x.flags.writeable and not w.flags.writeable
        # a duplicate key is served the same rule
        for i in range(5):
            assert got[len(keys) + i] is got[len(keys) - 1 - i]

    def test_nonconvergence_names_the_rule(self):
        # a = -1 + 1e-9 at N = 2: the seed leaves Newton short of its test
        # after every pass; the rules beside it still converge
        with pytest.raises(NonConvergent,
                           match=r"N = 2, \(a, b\) = \(-0.999999999, 3.0\)"):
            perispec.oracle._gauss_rules([(16, 0.0, 0.0), (2, -0.999999999, 3.0),
                                          (40, 0.0, 1.5)])

    def test_seed_bound(self):
        # verify's default box has b = n + 1 - beta <= 6; the asymptotic
        # seed stops converging near b = 11
        assert 6.0 <= perispec._gauss._ASYMPTOTIC_SEED_MAX <= 8.0

    @pytest.mark.parametrize("b", [15.0, 20.0, 50.0])
    def test_wrong_roots_raise(self, b, monkeypatch):
        # past the bound the asymptotic seed converges to a wrong rule (two
        # nodes on one root) without failing Newton's test
        monkeypatch.setattr(perispec._gauss, "_ASYMPTOTIC_SEED_MAX", math.inf)
        with pytest.raises(NonConvergent,
                           match=rf"N = 16, \(a, b\) = \(0.0, {b}\) converged "
                                 r"to a wrong rule"):
            perispec.oracle._gauss_rules([(16, 0.0, b)])

    def test_memory_is_linear_in_n(self):
        # no N x N matrix: the (2088, 0, 0.5) rule peaked at 69.8 MB with
        # the dense eigenvalue seed
        tracemalloc.start()
        try:
            perispec._gauss.gauss_rules([(2088, 0.0, 0.5)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak

    @pytest.mark.parametrize("delta, nu", [(1.5, [2.0, -1.0, 0.5]),
                                           (0.7, [10.0, 3.0, -4.0])])
    def test_bundle_at_large_radial_exponent(self, delta, nu):
        # beta = -50: the inner radial rule is Gauss-Jacobi with b = 54
        p, mat, nu = NonlocalParams(3, delta, -50.0), Material(1.2, -0.7), \
            np.array(nu)
        closed_values = closed_bundle(p, mat, nu)
        for name, (quad, _) in quadrature_bundle(p, mat, nu).items():
            closed = np.asarray(closed_values[name])
            assert np.max(np.abs(closed - quad)) <= 1e-12 * np.max(
                np.abs(quad)), name


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            QuadratureSpec(radial_points=8)
        with pytest.raises(InvalidParams):
            QuadratureSpec(angular_points=4)
        with pytest.raises(InvalidParams):
            QuadratureSpec(refinement_levels=0)

    def test_dimension_limit(self):
        assert perispec.oracle.MAX_DIM == 8
        with pytest.raises(InvalidParams):
            scalar_multiplier_quad(NonlocalParams(9, 1.0, 0.0), [1] + [0] * 8)


class TestScalarQuad:
    def test_zero_frequency_exact(self):
        p = NonlocalParams(2, 1.0, 1.0)
        value, err = scalar_multiplier_quad(p, np.zeros(2))
        assert value == 0.0 and err == 0.0

    def test_one_dimensional_anchor(self):
        p = NonlocalParams(1, 1.0, 0.0)
        value, err = scalar_multiplier_quad(p, [math.pi])
        assert abs(value + 6.0) <= 1e-10
        assert err <= 1e-10

    def test_matches_closed_form(self):
        from perispec.multipliers import scalar_multiplier
        p = NonlocalParams(3, 1.0, 2.0)
        nu = np.array([2.0, 0.0, 0.0])
        value, _ = scalar_multiplier_quad(p, nu)
        assert_allclose(value, scalar_multiplier(p, nu), rtol=1e-7)

    def test_accuracy_not_reached(self):
        # an unreachable tolerance must surface as an error, not silence
        p = NonlocalParams(2, 2.0, 1.0)
        spec = QuadratureSpec(radial_points=16, angular_points=16,
                              refinement_levels=1)
        with pytest.raises(AccuracyNotReached):
            scalar_multiplier_quad(p, [11.0, 7.0], spec=spec, tol=0.0)
        with pytest.raises(AccuracyNotReached):
            quadrature_bundle(p, Material(1.0, 0.5), [11.0, 7.0], spec=spec,
                              tol=0.0)


class TestBondQuad:
    def test_zero_frequency(self):
        p = NonlocalParams(2, 1.0, 1.0)
        M, err = tensor_bond_quad(p, Material(1.0, 0.0), np.zeros(2))
        assert_array_equal(M, np.zeros((2, 2)))

    def test_axis_frequency_is_diagonal(self):
        # off-diagonal entries vanish by parity in the transverse coordinate
        p = NonlocalParams(2, 1.0, 1.0)
        M, _ = tensor_bond_quad(p, Material(1.0, 0.0), [2.0, 0.0])
        assert abs(M[0, 1]) <= 1e-10
        assert abs(M[1, 0]) <= 1e-10

    def test_matches_closed_form(self):
        from perispec.multipliers import tensor_multiplier_bond
        p = NonlocalParams(2, 1.0, 1.0)
        mat = Material(1.0, 0.0)
        nu = np.array([1.0, 1.0])
        M, _ = tensor_bond_quad(p, mat, nu)
        assert_allclose(M, tensor_multiplier_bond(p, mat, nu).matrix,
                        rtol=1e-7, atol=1e-10)


class TestStateQuad:
    def test_matching_lame_parameters(self):
        p = NonlocalParams(2, 1.0, 1.0)
        M, err = tensor_state_quad(p, Material(1.5, 1.5), [1.0, 2.0])
        assert_array_equal(M, np.zeros((2, 2)))
        assert err == 0.0
        # exact +0.0 entries, so no -0.0 reaches the verify report
        M, err = quadrature_bundle(p, Material(1.5, 1.5), [1.0, 2.0])["state"]
        assert not np.signbit(M).any() and not M.any()
        assert err == 0.0

    def test_rank_at_most_one(self):
        p = NonlocalParams(3, 1.0, 1.5)
        M, _ = tensor_state_quad(p, Material(1.0, 3.0), [1.0, -1.0, 0.5])
        # every 2x2 minor of an outer product vanishes
        for i in range(2):
            for j in range(i + 1, 3):
                for k in range(2):
                    for l in range(k + 1, 3):
                        minor = M[i, k] * M[j, l] - M[i, l] * M[j, k]
                        assert abs(minor) <= 1e-10

    def test_matches_closed_form(self):
        from perispec.multipliers import tensor_multiplier_state
        p = NonlocalParams(3, 0.5, 2.0)
        mat = Material(1.0, 3.0)
        nu = np.array([0.0, 3.0, 0.0])
        M, _ = tensor_state_quad(p, mat, nu)
        assert_allclose(M, tensor_multiplier_state(p, mat, nu).matrix,
                        rtol=1e-7, atol=1e-10)


class TestEigenvalueQuads:
    def test_zero_frequency_raises(self):
        p = NonlocalParams(2, 1.0, 1.0)
        with pytest.raises(ZeroFrequency):
            lambda1_quad(p, Material(1.0, 0.0), np.zeros(2))
        with pytest.raises(ZeroFrequency):
            lambda2_quad(p, Material(1.0, 0.0), np.zeros(2))

    def test_lambda1_consistent_with_bond_quadratic_form(self):
        # with lambda* = mu only the bond term remains and lambda1 equals
        # nu . M_b nu / |nu|^2
        p = NonlocalParams(2, 1.5, 0.5)
        mat = Material(1.2, 1.2)
        nu = np.array([1.0, 2.0])
        lam1, _ = lambda1_quad(p, mat, nu)
        Mb, _ = tensor_bond_quad(p, mat, nu)
        expected = float(nu @ Mb @ nu) / float(nu @ nu)
        assert_allclose(lam1, expected, rtol=1e-9)

    def test_lambda1_consistent_with_full_quadratic_form(self):
        # general material: lambda1 equals nu . (M_b + M_s) nu / |nu|^2
        p = NonlocalParams(3, 1.2, 2.5)
        mat = Material(1.1, -0.7)
        nu = np.array([1.0, -2.0, 0.5])
        lam1, _ = lambda1_quad(p, mat, nu)
        Mb, _ = tensor_bond_quad(p, mat, nu)
        Ms, _ = tensor_state_quad(p, mat, nu)
        expected = float(nu @ (Mb + Ms) @ nu) / float(nu @ nu)
        assert_allclose(lam1, expected, rtol=1e-9)

    def test_small_phase_limits(self):
        p = NonlocalParams(3, 1e-3, 2.0)
        mat = Material(1.0, 1.0)
        nu = np.array([1.0, 0.0, 0.0])
        lam1, _ = lambda1_quad(p, mat, nu)
        lam2, _ = lambda2_quad(p, mat, nu)
        assert_allclose(lam1, -3.0, atol=1e-4)
        assert_allclose(lam2, -1.0, atol=1e-4)

    def test_lambda2_ignores_second_lame_parameter(self):
        p = NonlocalParams(2, 1.5, 1.0)
        nu = np.array([3.0, 4.0])
        values = {lambda2_quad(p, Material(2.0, ls), nu)[0]
                  for ls in (-1.0, 0.0, 2.0)}
        assert len(values) == 1

    def test_match_closed_forms(self):
        p = NonlocalParams(3, 2.0, 3.5)
        mat = Material(1.0, 0.0)
        nu = np.array([5.0, 0.0, 0.0])
        lam1, _ = lambda1_quad(p, mat, nu)
        assert_allclose(lam1, eigenvalue_parallel(p, mat, nu), rtol=1e-6)
        p2 = NonlocalParams(2, 1.5, 1.0)
        mat2 = Material(2.0, 0.0)
        nu2 = np.array([3.0, 4.0])
        lam2, _ = lambda2_quad(p2, mat2, nu2)
        assert_allclose(lam2, eigenvalue_transverse(p2, mat2, nu2), rtol=1e-6)

    def test_closed_forms_reach_large_phase(self):
        # |nu| delta = 400, z = -4e4: far past the double-precision pass,
        # checked under the verify rule max(1e-6 relative, 1e-8 absolute)
        p = NonlocalParams(1, 2.0, 0.5)
        mat = Material(1.3, 0.4)
        nu = np.array([200.0])
        for closed, quad in ((eigenvalue_parallel, lambda1_quad),
                             (eigenvalue_transverse, lambda2_quad)):
            expected, _ = quad(p, mat, nu)
            got = closed(p, mat, nu)
            assert abs(got - expected) <= max(1e-6 * abs(expected), 1e-8)


class TestMomentIdentity:
    def test_one_dimensional_analytic(self):
        # n=1, beta=0: int_{-1}^{1} w^2/w^2 dw = 2 and the scaling constant
        # at exponent beta+2 is exactly 1
        p = NonlocalParams(1, 1.0, 0.0)
        assert_allclose(scaling_constant(NonlocalParams(1, 1.0, 2.0)), 1.0,
                        rtol=1e-14)
        assert moment_identity_check(p) <= 1e-12

    def test_three_dimensional(self):
        assert moment_identity_check(NonlocalParams(3, 2.0, 1.0)) <= 1e-8

    def test_two_dimensional_off_diagonal(self):
        assert moment_identity_check(NonlocalParams(2, 3.0, 0.5)) <= 1e-10

    @pytest.mark.parametrize("n", range(4, 9))
    def test_higher_dimensions(self, n):
        assert moment_identity_check(NonlocalParams(n, 1.7, n - 1.5)) <= 1e-12

    def test_requires_integrable_exponent(self):
        with pytest.raises(InvalidParams):
            moment_identity_check(NonlocalParams(2, 1.0, 2.5))


class TestHigherDimensions:
    @pytest.mark.parametrize("n", range(4, 9))
    def test_dual_path_matches_closed_forms(self, n):
        # seeded draws from verify's sampling box, judged by verify's rule
        report = run_verification(seed=n, count=3, tol=1e-6, overrides={"n": n})
        for entry in report["entries"]:
            assert entry["n"] == n
            assert set(entry["checks"]) == {"scalar", "bond", "state",
                                            "lambda1", "lambda2"}
        assert report["all_pass"]


class TestSelfConsistency:
    def test_doubling_within_reported_error(self):
        # the reported estimate bounds the change under further doubling up
        # to the summation rounding plateau (the grids converge spectrally,
        # so refinement differences sit at that plateau; hence the small
        # slack factor and relative floor)
        p = NonlocalParams(3, 4.0, 4.95)
        nu = np.array([20.0, 0.0, 0.0])
        base = QuadratureSpec(refinement_levels=1)
        fine = QuadratureSpec(radial_points=128, angular_points=128,
                              refinement_levels=1)
        v1, err1 = scalar_multiplier_quad(p, nu, spec=base)
        v2, _ = scalar_multiplier_quad(p, nu, spec=fine)
        assert abs(v2 - v1) <= max(3.0 * err1, 1e-9 * abs(v1))

    def test_error_estimates_are_reported(self):
        p = NonlocalParams(3, 1.0, 2.0)
        mat = Material(1.0, 0.5)
        nu = np.array([1.0, 2.0, 2.0])
        for value, err in (scalar_multiplier_quad(p, nu),
                           lambda1_quad(p, mat, nu),
                           lambda2_quad(p, mat, nu)):
            assert np.isfinite(err) and err >= 0.0


class TestPlaneWaveApplication:
    def test_matches_eigenvalue_action(self):
        p = NonlocalParams(3, 0.5, 3.0)
        mat = Material(1.0, 0.5)
        nu = np.array([1.0, 2.0, 0.0])
        rng = np.random.default_rng(3)
        from perispec.multipliers import orthonormal_basis
        basis = orthonormal_basis(nu)
        lam1 = eigenvalue_parallel(p, mat, nu)
        lam2 = eigenvalue_transverse(p, mat, nu)
        for amplitude, lam in ((nu, lam1), (basis[1], lam2), (basis[2], lam2)):
            for _ in range(3):
                x = rng.uniform(0.0, 2.0 * math.pi, size=3)
                applied, _ = apply_to_plane_wave(p, mat, nu, amplitude, x)
                expected = lam * np.exp(1j * float(nu @ x)) * amplitude
                assert np.max(np.abs(applied - expected)) <= 1e-8 * (1 + abs(lam))

    def test_zero_frequency(self):
        p = NonlocalParams(2, 1.0, 1.0)
        out, err = apply_to_plane_wave(p, Material(1.0, 0.0), np.zeros(2),
                                       np.array([1.0, 0.0]), np.zeros(2))
        assert_array_equal(out, np.zeros(2, dtype=complex))

    def test_amplitude_of_another_length_rejected(self):
        p = NonlocalParams(2, 1.0, 1.0)
        with pytest.raises(InvalidParams, match="must have length n"):
            apply_to_plane_wave(p, Material(1.0, 0.0), [1.0, 0.0],
                                [1.0, 0.0, 0.0], np.zeros(2))


class TestNonFiniteInput:
    _P, _MAT = NonlocalParams(2, 1.0, 1.0), Material(1.0, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        lambda p, m, v: quadrature_bundle(p, m, v),
        lambda p, m, v: scalar_multiplier_quad(p, v),
        lambda p, m, v: tensor_bond_quad(p, m, v),
        lambda p, m, v: tensor_state_quad(p, m, v),
        lambda p, m, v: lambda1_quad(p, m, v),
        lambda p, m, v: lambda2_quad(p, m, v),
        lambda p, m, v: apply_to_plane_wave(p, m, v, [1.0, 0.0], [0.0, 0.0]),
        lambda p, m, v: apply_to_plane_wave(p, m, [1.0, 0.0], v, [0.0, 0.0]),
        lambda p, m, v: apply_to_plane_wave(p, m, [1.0, 0.0], [0.0, 1.0], v),
    ], ids=["bundle", "scalar", "bond", "state", "lambda1", "lambda2",
            "plane_wave_nu", "plane_wave_amplitude", "plane_wave_x"])
    def test_rejected(self, call, bad):
        with pytest.raises(InvalidParams):
            call(self._P, self._MAT, [bad, 1.0])

    def test_frequency_of_another_length_rejected(self):
        with pytest.raises(InvalidParams,
                           match="has length 3, expected n = 2"):
            lambda1_quad(self._P, self._MAT, [1.0, 0.0, 0.0])


class TestReach:
    # |nu| delta just above MAX_PHASE = 400; the grid would be sized from it
    _P, _MAT = NonlocalParams(3, 2.0, 1.0), Material(1.0, 0.5)
    _NU = [200.001, 0.0, 0.0]

    def test_cap_is_stated(self):
        assert perispec.oracle.MAX_PHASE == 400.0

    @pytest.mark.parametrize("call", [
        lambda p, m, v: quadrature_bundle(p, m, v),
        lambda p, m, v: scalar_multiplier_quad(p, v),
        lambda p, m, v: tensor_bond_quad(p, m, v),
        lambda p, m, v: tensor_state_quad(p, m, v),
        lambda p, m, v: lambda1_quad(p, m, v),
        lambda p, m, v: lambda2_quad(p, m, v),
        lambda p, m, v: apply_to_plane_wave(p, m, v, [1.0, 0.0, 0.0],
                                            [0.0, 0.0, 0.0]),
    ], ids=["bundle", "scalar", "bond", "state", "lambda1", "lambda2",
            "plane_wave"])
    def test_rejected_before_any_grid(self, call, monkeypatch):
        def no_rule(*args):
            raise AssertionError("a rule was built past the reach")
        monkeypatch.setattr(perispec.oracle, "_radial_rule", no_rule)
        monkeypatch.setattr(perispec.oracle, "_angular_rule", no_rule)
        with pytest.raises(InvalidParams, match="MAX_PHASE"):
            call(self._P, self._MAT, self._NU)

    # c^2 underflows at (2, -1000), c overflows at (0.1, -1000), the inner
    # radial rule's mass overflows at (1, -10000)
    @pytest.mark.parametrize("delta, beta", [(2.0, -1000.0), (0.1, -1000.0),
                                             (1.0, -10000.0)])
    @pytest.mark.parametrize("call", [
        lambda p, m: quadrature_bundle(p, m, [1.0, -0.5, 0.25]),
        lambda p, m: moment_identity_check(p),
        lambda p, m: apply_to_plane_wave(p, m, [1.0, 0.0, 0.0],
                                         [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ], ids=["bundle", "moment", "plane_wave"])
    def test_kernel_scale_rejected_before_any_grid(self, call, delta, beta,
                                                   monkeypatch):
        def no_rule(*args):
            raise AssertionError("a rule was built past the reach")
        monkeypatch.setattr(perispec.oracle, "_radial_rule", no_rule)
        with pytest.raises(InvalidParams, match="outside the oracle's reach"):
            call(NonlocalParams(3, delta, beta), self._MAT)

    def test_beta_near_integrability_limit(self):
        # beta = n+2-1e-3: the inner radial rule has b = -1 + 1e-3, in
        # reach at every phase up to MAX_PHASE; one call builds all rules
        requests = [(NonlocalParams(n, 2.0, n + 2 - 1e-3),
                     Material(1.0, lambda_star), nu)
                    for n in (1, 2, 3) for phase in (1.0, 80.0, 400.0)
                    for lambda_star in (-1.9, 0.5, 2.0)
                    for nu in [np.eye(n)[-1] * phase / 2.0]]
        for (p, mat, nu), quads in zip(requests,
                                       quadrature_bundles(requests)):
            closed_values = closed_bundle(p, mat, nu)
            for name in ("lambda1", "lambda2"):
                quad = quads[name][0]
                assert abs(closed_values[name] - quad) <= 1e-9 * abs(quad), (
                    p.n, nu, mat.lambda_star, name)

    def test_beta_past_reach_names_the_rule(self):
        # beta = n+2-1e-7: the inner radial rule does not converge, and the
        # error names it; nothing rejects the tuple before that
        with pytest.raises(NonConvergent, match=r"Gauss-Jacobi nodes for "
                           r"N = 68, \(a, b\) = \(0.0, -0.99999990"):
            quadrature_bundle(NonlocalParams(1, 2.0, 3 - 1e-7),
                              Material(1.0, 0.5), [0.5])


class TestBundles:
    @staticmethod
    def _requests():
        rng = np.random.default_rng(18)
        requests = []
        for n in range(1, 9):
            nu = rng.standard_normal(n)
            nu *= rng.uniform(1.0, 12.0) / np.linalg.norm(nu)
            p = NonlocalParams(n, rng.uniform(0.5, 3.0),
                               rng.uniform(-1.0, n + 1.9))
            requests += [(p, Material(1.3, -0.4), nu),
                         (p, Material(1.1, 1.1), nu),       # lambda* = mu
                         (p, Material(1.3, -0.4), np.zeros(n))]
        return requests

    @pytest.mark.parametrize("tol", [None, 1.0])
    def test_equal_to_one_request_at_a_time(self, tol, monkeypatch):
        # with a tolerance, levels past the first two build their own rules
        spec = QuadratureSpec(radial_points=20, angular_points=20)
        requests = self._requests()
        monkeypatch.setattr(perispec.oracle, "BUNDLE_CHUNK", 5)
        got = list(quadrature_bundles(requests, spec, tol))
        assert len(got) == len(requests)
        for request, bundle in zip(requests, got):
            want = quadrature_bundle(*request, spec, tol)
            assert bundle.keys() == want.keys()
            for name, (value, err) in want.items():
                assert_array_equal(bundle[name][0], value)
                assert bundle[name][1] == err

    @pytest.mark.parametrize("bad", [
        (NonlocalParams(3, 2.0, 1.0), [200.001, 0.0, 0.0]),   # past reach
        (NonlocalParams(3, 0.1, -1000.0), [1.0, 0.0, 0.0]),   # c overflows
    ])
    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_every_request_checked_before_any_rule(self, bad, at,
                                                   monkeypatch):
        def no_rule(*args):
            raise AssertionError("a rule was built before a bad request")
        for module, name in ((perispec.oracle, "_gauss_rules"),
                             (perispec._gauss, "_newton")):
            monkeypatch.setattr(module, name, no_rule)
        requests = [(NonlocalParams(3, 1.0, 1.0), Material(1.0, 0.5),
                     [1.0, 2.0, 0.5])] * 6
        requests.insert(at, (bad[0], Material(1.0, 0.5), bad[1]))
        with pytest.raises(InvalidParams):
            quadrature_bundles(requests)

    def test_threads_equal_serial_bitwise(self):
        # no call shares a rule or any other state with another, so calls
        # from several threads need no lock and keep every bit
        requests = self._requests()[::4]    # six, n = 1 to 7, two at nu = 0
        p_moment = NonlocalParams(3, 1.5, 2.0)

        def bundles():
            return list(quadrature_bundles(requests))

        want = bundles()
        want_moment = moment_identity_check(p_moment)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)      # interleave the threads finely
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = [pool.submit(bundles) for _ in range(4)]
                moments = [pool.submit(moment_identity_check, p_moment)
                           for _ in range(2)]
                got = [run.result(timeout=60) for run in runs]
                got_moments = [m.result(timeout=60) for m in moments]
        finally:
            sys.setswitchinterval(interval)
        for run in got:
            assert len(run) == len(want)
            for bundle, serial in zip(run, want):
                assert bundle.keys() == serial.keys()
                for name, (value, err) in serial.items():
                    assert_array_equal(bundle[name][0], value)
                    assert bundle[name][1] == err
        assert got_moments == [want_moment] * 2

    def test_sweep_builds_its_rules_in_one_call(self, monkeypatch):
        # the 40 tuples of a default sweep fit one chunk: one _gauss_rules
        # call builds every rule, and no level builds one of its own
        calls = {"_gauss_rules": 0, "_newton": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)
        counted(perispec.oracle, "_gauss_rules")
        counted(perispec._gauss, "_newton")
        assert run_verification(5, 40, 1e-6)["all_pass"]
        assert calls == {"_gauss_rules": 1, "_newton": 1}

    def test_sweep_needs_no_eigensolver(self, monkeypatch):
        # every rule of the default box is seeded by the asymptotic formula
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("a rule took the eigenvalue seed")
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert run_verification(5, 40, 1e-6)["all_pass"]


def _full_grid_reduced(params, nu_norm, spec, level, rules):
    """Reference kernel: the unfolded symmetric angular rule, with every
    integrand formed on the full grid and contracted on its own.  It builds
    its own rules and leaves ``rules`` alone."""
    n = params.n
    osc = nu_norm * params.delta
    nr = max(spec.radial_points, int(math.ceil(0.8 * osc)) + 16) << level
    na = max(spec.angular_points, int(math.ceil(1.5 * osc)) + 16) << level
    gamma_exp = n + 1.0 - params.beta
    r, wr = perispec.oracle._radial_rule(
        params.delta, gamma_exp,
        *perispec.oracle._gauss_rules([(nr, 0.0, gamma_exp), (nr, 0.0, 0.0)]))
    if n == 1:
        t, wa = np.array([1.0, -1.0]), np.array([1.0, 1.0])
    else:
        h = (n - 1) / 2.0
        t, wa = perispec.oracle._gauss_rules([(na, h - 1.0, h - 1.0)])[0]
        wa = wa * (2.0 * math.pi**h / math.gamma(h))
    R, T = r[:, None], t[None, :]
    x = nu_norm * R * T
    sin_half = np.sin(0.5 * x)
    cosm1_r2 = -2.0 * sin_half * sin_half / (R * R)   # (cos(x) - 1) / r^2
    sxx = np.empty_like(x)
    small = np.abs(x) < 1e-2
    xs2 = x[small] ** 2
    sxx[small] = -1.0 / 6.0 + xs2 / 120.0 - xs2 * xs2 / 5040.0
    xl = x[~small]
    sxx[~small] = (np.sin(xl) - xl) / xl**3
    t2 = T * T
    return {
        "m": wr @ cosm1_r2 @ wa,
        "A": wr @ (t2 * cosm1_r2) @ wa,
        "B": wr @ ((1.0 - t2) / max(n - 1, 1) * cosm1_r2) @ wa,
        "s1": nu_norm * (wr @ (t2 * np.sinc(x / np.pi)) @ wa),
        "lam2": nu_norm**2 * (wr @ (t2 * t2 * sxx) @ wa),
    }


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) <= max(1e-12 * np.max(np.abs(want)),
                                             1e-15)


class TestFoldedKernel:
    @staticmethod
    def _case(n):
        rng = np.random.default_rng(100 + n)
        p = NonlocalParams(n, rng.uniform(0.5, 3.0),
                           rng.uniform(-1.0, n + 1.9))
        nu = rng.standard_normal(n)
        return p, Material(1.3, -0.4), nu * (rng.uniform(1.0, 15.0)
                                             / np.linalg.norm(nu))

    def test_angular_rule_folds_by_index(self):
        t, wa = perispec.oracle._angular_rule(1)
        assert t.tolist() == [1.0] and wa.tolist() == [2.0]
        for n in range(2, 9):
            h = (n - 1) / 2.0
            for npts in (16, 17):
                rule, = perispec.oracle._gauss_rules([(npts, h - 1.0, h - 1.0)])
                t, wa = perispec.oracle._angular_rule(n, rule)
                assert t.size == (npts + 1) // 2
                assert (t >= -1e-15).all()
                # total weight is |S^(n-1)|
                assert_allclose(wa.sum(), 2.0 * math.pi ** (n / 2.0)
                                / math.gamma(n / 2.0), rtol=1e-13)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("points", [16, 17])
    def test_reduced_integrals_match_full_grid(self, n, points):
        p, _, nu = self._case(n)
        nn = float(np.linalg.norm(nu))
        spec = QuadratureSpec(radial_points=points, angular_points=points)
        for level in (0, 1):
            got = perispec.oracle._reduced_integrals(p, nn, spec, level, {})
            want = _full_grid_reduced(p, nn, spec, level, {})
            for key in want:
                assert _close(got[key], want[key]), (key, level)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("tol", [None, 1.0])
    def test_bundle_matches_full_grid(self, n, tol, monkeypatch):
        # odd base counts: with tol set, level 0 runs on an odd grid
        p, mat, nu = self._case(n)
        spec = QuadratureSpec(radial_points=33, angular_points=33)
        got = quadrature_bundle(p, mat, nu, spec, tol)
        monkeypatch.setattr(perispec.oracle, "_reduced_integrals",
                            _full_grid_reduced)
        want = quadrature_bundle(p, mat, nu, spec, tol)
        assert set(got) == set(want)
        for name in want:
            assert _close(got[name][0], want[name][0]), name

    def test_refine_levels(self):
        # successive levels differ by 1: tol = 1 stops after level 1, and
        # tol = 0.5 runs every level and then raises
        spec = QuadratureSpec(refinement_levels=2)
        for tol, levels in ((None, [1, 2]), (1.0, [0, 1]), (0.5, [0, 1, 2])):
            seen = []

            def compute(level):
                seen.append(level)
                return {"v": float(level)}
            try:
                value, err = perispec.oracle._refine(spec, tol, compute)["v"]
                assert (value, err) == (float(levels[-1]), 1.0)
            except AccuracyNotReached:
                assert tol == 0.5
            assert seen == levels, tol

    def test_exact_zeros_survive(self):
        mat = Material(1.5, 1.5)
        for n in range(1, 9):
            p = NonlocalParams(n, 1.0, 1.0)
            for name, (value, err) in quadrature_bundle(
                    p, mat, np.zeros(n)).items():
                value = np.asarray(value)
                assert not value.any() and not np.signbit(value).any(), name
                assert err == 0.0
            state, err = quadrature_bundle(p, mat, np.ones(n))["state"]
            assert not state.any() and not np.signbit(state).any()
            assert err == 0.0


def _one_shot_reduced(params, nu_norm, spec, level):
    """Reference kernel: ``_reduced_integrals`` with the whole grid as one
    block, each integrand formed over it and contracted in one product."""
    n = params.n
    gamma_exp = n + 1.0 - params.beta
    inner, outer, *sphere = perispec.oracle._gauss_rules(
        perispec.oracle._level_keys(n, gamma_exp, nu_norm * params.delta,
                                    spec, level))
    r, wr = perispec.oracle._radial_rule(params.delta, gamma_exp, inner, outer)
    t, wa = perispec.oracle._angular_rule(n, *sphere)
    t2 = t * t
    x = np.multiply.outer(nu_norm * r, t)
    sin_half = np.sin(0.5 * x)
    sin_half *= sin_half
    sin_x = np.sin(x)
    cube = x * x
    cube *= x
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc_x = sin_x / x
        sxx = np.subtract(sin_x, x, out=sin_x)
        sxx /= cube
    small = x < 1e-2
    xs = x[small]
    xs2 = xs * xs
    xs4 = xs2 * xs2
    sinc_x[small] = 1.0 - xs2 / 6.0 + xs4 / 120.0
    sxx[small] = -1.0 / 6.0 + xs2 / 120.0 - xs4 / 5040.0
    W = np.stack([wa, t2 * wa, (1.0 - t2) / max(n - 1, 1) * wa], axis=1)
    m, A, B = (-2.0 * wr / (r * r)) @ (sin_half @ W)
    return {
        "m": m, "A": A, "B": B,
        "s1": nu_norm * (wr @ (sinc_x @ (t2 * wa))),
        "lam2": nu_norm**2 * (wr @ (sxx @ (t2 * t2 * wa))),
    }


class TestBlockedKernel:
    # |nu| delta = 3 at level 0: 17 inner radial rows plus radial_points
    # outer ones, so 47 and 80 give 64 and 97 rows; the first rows hold
    # the x < 1e-2 entries that take the Taylor series
    _P = NonlocalParams(3, 1.5, 1.0)

    @pytest.mark.parametrize("radial_points, block_rows", [
        (47, 128),   # fewer rows than one block
        (47, 64),    # exactly one block
        (47, 16),    # four whole blocks
        (80, 16),    # the last block takes the one row left over
        (88, 32),    # the last block takes the nine rows left over
    ])
    def test_blocks_match_one_shot_bitwise(self, radial_points, block_rows,
                                           monkeypatch):
        spec = QuadratureSpec(radial_points=radial_points, angular_points=40)
        monkeypatch.setattr(perispec.oracle, "_block_rows",
                            lambda na: block_rows)
        got = perispec.oracle._reduced_integrals(self._P, 2.0, spec, 0, {})
        want = _one_shot_reduced(self._P, 2.0, spec, 0)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], key

    @pytest.mark.parametrize("n, angular_points", [
        (3, 41),     # odd N: t[0] = 0 exactly, so every block takes Taylor
        (2, 33),
        (1, 16),     # one angular node, t = 1
    ])
    def test_odd_angular_and_one_dimension_bitwise(self, n, angular_points,
                                                    monkeypatch):
        p = NonlocalParams(n, 1.5, 1.0)
        spec = QuadratureSpec(radial_points=80, angular_points=angular_points)
        monkeypatch.setattr(perispec.oracle, "_block_rows", lambda na: 16)
        got = perispec.oracle._reduced_integrals(p, 2.0, spec, 0, {})
        want = _one_shot_reduced(p, 2.0, spec, 0)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], key

    def test_default_blocks_match_one_shot_bitwise(self):
        # verify's largest phase, |nu| delta = 80, on the two default levels:
        # 206 rows of 136 angular nodes in blocks of 48 rows, and 412 rows
        # of 272 in blocks of 16
        p = NonlocalParams(3, 4.0, 2.5)
        for level in (1, 2):
            got = perispec.oracle._reduced_integrals(p, 20.0, DEFAULT_SPEC,
                                                     level, {})
            want = _one_shot_reduced(p, 20.0, DEFAULT_SPEC, level)
            for key in want:
                assert got[key] == want[key], (key, level)

    def test_block_rows(self):
        block_rows = perispec.oracle._block_rows
        for na in (1, 16, 100, 272, 512, 513, 1232, 10**6):
            rows = block_rows(na)
            assert rows >= 16 and rows % 16 == 0
            assert rows * na <= max(perispec.oracle.BLOCK_POINTS, 16 * na)

    def test_bundle_memory_at_reach(self):
        # |nu| delta = MAX_PHASE: the finest grid is 1,540 x 1,232 points,
        # 15 MB per float array if formed whole; tracemalloc sees numpy's
        # buffers, and the blocks keep the whole call a few MB
        p = NonlocalParams(3, 4.0, 2.0)
        tracemalloc.start()
        try:
            quadrature_bundle(p, Material(1.0, 0.5), [100.0, 0.0, 0.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak
