"""Quadrature oracle tests: trivial anchors, parity, and self-consistency."""

import ast
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from perispec.cli import run_verification
from perispec.errors import AccuracyNotReached, InvalidParams, ZeroFrequency
from perispec.multipliers import (Material, NonlocalParams,
                                  eigenvalue_parallel, eigenvalue_transverse,
                                  scaling_constant)
import perispec.oracle
from perispec.oracle import (QuadratureSpec, apply_to_plane_wave, lambda1_quad,
                             lambda2_quad, moment_identity_check,
                             quadrature_bundle, scalar_multiplier_quad,
                             tensor_bond_quad, tensor_state_quad)


def test_oracle_imports_nothing_from_series_path():
    # the cross-check is only worth something while the two paths share no code
    with open(perispec.oracle.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["perispec" if node.level else "",
                                            node.module]))
            imported |= {module} | {f"{module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert "perispec.errors" in imported
    assert not [m for m in imported
                if m.startswith(("perispec.hypergeom", "perispec.multipliers"))]


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            QuadratureSpec(radial_points=8)
        with pytest.raises(InvalidParams):
            QuadratureSpec(angular_points=4)
        with pytest.raises(InvalidParams):
            QuadratureSpec(singularity_split=0.0)
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


def _full_grid_reduced(params, nu_norm, spec, level):
    """Reference kernel: the unfolded symmetric angular rule, with every
    integrand formed on the full grid and contracted on its own."""
    n = params.n
    osc = nu_norm * params.delta
    nr = max(spec.radial_points, int(math.ceil(0.8 * osc)) + 16) << level
    na = max(spec.angular_points, int(math.ceil(1.5 * osc)) + 16) << level
    r, wr = perispec.oracle._radial_rule(params.delta, n + 1.0 - params.beta,
                                          nr, spec.singularity_split)
    if n == 1:
        t, wa = np.array([1.0, -1.0]), np.array([1.0, 1.0])
    else:
        h = (n - 1) / 2.0
        t, wa = perispec.oracle._gauss_rule(na, h - 1.0, h - 1.0)
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
        t, wa = perispec.oracle._angular_rule(1, 64)
        assert t.tolist() == [1.0] and wa.tolist() == [2.0]
        for n in range(2, 9):
            for npts in (16, 17):
                t, wa = perispec.oracle._angular_rule(n, npts)
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
            got = perispec.oracle._reduced_integrals(p, nn, spec, level)
            want = _full_grid_reduced(p, nn, spec, level)
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
