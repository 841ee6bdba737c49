"""Torus spectrum tests: lattice frequencies, eigenfields, apply/solve."""

import itertools
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from perispec.errors import (DegenerateEigenvalue, InvalidParams, SingularMode,
                             ZeroMode)
from perispec.multipliers import (Material, NonlocalParams,
                                  eigenvalue_parallel, eigenvalue_transverse,
                                  gradient_factor, tensor_multiplier)
from perispec.spectrum import (FourierField, TorusSpec, apply_operator,
                               eigenfield, frequency_vector, solve_periodic,
                               spectrum_table)

TWO_PI = 2.0 * math.pi


class TestFrequencyVector:
    def test_cube(self):
        torus = TorusSpec((TWO_PI, TWO_PI, TWO_PI))
        assert_array_equal(frequency_vector((1, 0, 0), torus),
                           np.array([1.0, 0.0, 0.0]))

    def test_zero_mode(self):
        torus = TorusSpec((1.0, 2.0))
        assert_array_equal(frequency_vector((0, 0), torus), np.zeros(2))

    def test_anisotropic_box(self):
        torus = TorusSpec((1.0, 2.0))
        assert_allclose(frequency_vector((1, 1), torus),
                        np.array([TWO_PI, math.pi]), rtol=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            TorusSpec((1.0, -2.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParams):
                TorusSpec((1.0, bad))
        with pytest.raises(InvalidParams):
            frequency_vector((1, 2, 3), TorusSpec((1.0, 2.0)))


class TestSpectrumTable:
    def test_zero_mode_record(self):
        p = NonlocalParams(2, 0.5, 1.0)
        table = spectrum_table(p, Material(1.0, 1.0), TorusSpec((TWO_PI,) * 2), 1)
        zero = [r for r in table if r.k == (0, 0)]
        assert len(zero) == 1
        assert zero[0].lambda1 == 0.0 and zero[0].lambda2 == 0.0

    def test_size_and_ordering(self):
        p = NonlocalParams(2, 0.5, 1.0)
        table = spectrum_table(p, Material(1.0, 1.0), TorusSpec((TWO_PI,) * 2), 2)
        assert len(table) == 25
        assert [r.k for r in table] == sorted(r.k for r in table)
        assert all(r.multiplicity2 == 1 for r in table)

    def test_opposite_modes_identical(self):
        p = NonlocalParams(3, 0.5, 2.0)
        table = spectrum_table(p, Material(1.2, 0.3), TorusSpec((TWO_PI,) * 3), 1)
        by_k = {r.k: r for r in table}
        for k, rec in by_k.items():
            neg = tuple(-ki for ki in k)
            assert by_k[neg].lambda1 == rec.lambda1
            assert by_k[neg].lambda2 == rec.lambda2

    def test_records_equal_scalar_forms(self):
        p = NonlocalParams(3, 0.9, 2.2)
        mat = Material(1.1, 0.6)
        torus = TorusSpec((4.3, 6.1, 7.9))
        for rec in spectrum_table(p, mat, torus, 3):
            assert_array_equal(rec.nu_k, frequency_vector(rec.k, torus))
            assert rec.lambda1 == eigenvalue_parallel(p, mat, rec.nu_k)
            assert rec.lambda2 == eigenvalue_transverse(p, mat, rec.nu_k)

    def test_k_max_validation(self):
        p = NonlocalParams(2, 0.5, 1.0)
        torus = TorusSpec((TWO_PI,) * 2)
        for bad in (-1, 1.5, 2.0, "2", None):
            with pytest.raises(InvalidParams):
                spectrum_table(p, Material(1.0, 1.0), torus, bad)
        assert len(spectrum_table(p, Material(1.0, 1.0), torus, np.int64(1))) == 9

    def test_near_local_limit(self):
        p = NonlocalParams(3, 1e-3, 2.0)
        table = spectrum_table(p, Material(1.0, 1.0), TorusSpec((TWO_PI,) * 3), 1)
        rec = next(r for r in table if r.k == (1, 0, 0))
        assert abs(rec.lambda1 + 3.0) <= 1e-4
        assert abs(rec.lambda2 + 1.0) <= 1e-4

    def test_eigenrelation_residuals(self):
        for n in (2, 3):
            p = NonlocalParams(n, 0.8, float(n))
            mat = Material(1.3, 0.4)
            torus = TorusSpec(tuple([TWO_PI] * n))
            from perispec.multipliers import orthonormal_basis
            for rec in spectrum_table(p, mat, torus, 4):
                M = tensor_multiplier(p, mat, rec.nu_k).matrix
                basis = orthonormal_basis(rec.nu_k)
                for j in range(n):
                    lam = rec.lambda1 if j == 0 else rec.lambda2
                    res = np.linalg.norm(M @ basis[j] - lam * basis[j])
                    assert res <= 1e-9 * (1.0 + abs(lam))


class TestEigenfield:
    def test_parallel_at_origin(self):
        torus = TorusSpec((TWO_PI,) * 3)
        out = eigenfield((1, 0, 0), torus, np.zeros(3))
        assert_allclose(out, np.array([1.0, 0.0, 0.0], dtype=complex),
                        rtol=1e-15)

    def test_periodicity(self):
        torus = TorusSpec((1.0, 2.0))
        x = np.array([0.3, 0.7])
        for which, j in (("parallel", 2), ("transverse", 2)):
            a = eigenfield((2, -1), torus, x, which=which, j=j)
            for i in range(2):
                shift = np.zeros(2)
                shift[i] = torus.lengths[i]
                b = eigenfield((2, -1), torus, x + shift, which=which, j=j)
                assert np.max(np.abs(a - b)) <= 1e-12

    def test_transverse_orthogonal_to_frequency(self):
        torus = TorusSpec((TWO_PI, 3.0, 1.0))
        nu = frequency_vector((1, 2, -1), torus)
        for j in (2, 3):
            out = eigenfield((1, 2, -1), torus, np.array([0.1, 0.2, 0.3]), "transverse", j)
            assert abs(np.vdot(nu.astype(complex), out)) <= 1e-12

    def test_zero_mode_conventions(self):
        torus = TorusSpec((1.0, 1.0))
        out = eigenfield((0, 0), torus, np.array([0.4, 0.5]))
        assert_array_equal(out, np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ZeroMode):
            eigenfield((0, 0), torus, np.zeros(2), which="transverse")

    def test_invalid_transverse_index(self):
        torus = TorusSpec((1.0, 1.0))
        with pytest.raises(InvalidParams):
            eigenfield((1, 0), torus, np.zeros(2), which="transverse", j=3)


class TestFourierField:
    def test_conjugate_symmetry_construction(self):
        rng = np.random.default_rng(0)
        half = {(1, 0): rng.standard_normal(2) + 1j * rng.standard_normal(2),
                (0, 1): rng.standard_normal(2) + 1j * rng.standard_normal(2),
                (0, 0): rng.standard_normal(2) + 1j * rng.standard_normal(2)}
        field = FourierField.from_half_spectrum(2, half)
        assert field.conjugate_asymmetry() == 0.0
        assert np.all(field.coeffs[(0, 0)].imag == 0.0)

    def test_half_spectrum_matches_full_construction(self):
        # reference: the conjugate-completed dict validated by the constructor
        rng = np.random.default_rng(4)
        half = {k: rng.standard_normal(3) + 1j * rng.standard_normal(3)
                for k in itertools.product(range(-2, 3), repeat=3)
                if k >= tuple(-ki for ki in k)}
        full = {}
        for k, c in half.items():
            neg = tuple(-ki for ki in k)
            full[k] = c.real.astype(complex) if k == neg else c
            if k != neg:
                full[neg] = np.conj(c)
        want = FourierField(3, full)
        got = FourierField.from_half_spectrum(3, half)
        assert list(got.coeffs) == list(want.coeffs)
        for k, c in want.coeffs.items():
            assert got.coeffs[k].tolist() == c.tolist()
        assert FourierField.from_half_spectrum(3, {}).coeffs == {}

    def test_dimension_validation(self):
        for bad in ({(1,): np.array([1.0 + 0j, 0.0])},
                    {(1, 0): np.ones(3)}):
            with pytest.raises(InvalidParams, match="do not match dim = 2"):
                FourierField(2, bad)
            with pytest.raises(InvalidParams, match="do not match dim = 2"):
                FourierField.from_half_spectrum(2, bad)

    def test_non_finite_coefficients_rejected(self):
        for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                    complex(math.nan, 0.0)):
            coeffs = {(1, 0): np.array([1.0, 2.0]), (0, 1): np.array([0.5, bad])}
            with pytest.raises(InvalidParams, match=r"\(0, 1\)"):
                FourierField(2, coeffs)
            with pytest.raises(InvalidParams, match=r"\(0, 1\)"):
                FourierField.from_half_spectrum(2, coeffs)

    def test_non_integer_modes_rejected(self):
        for key in ((1.7, 0), (1.0, 0), ("1", 0)):
            with pytest.raises(InvalidParams):
                FourierField(2, {key: np.ones(2)})
            with pytest.raises(InvalidParams, match="integer entries"):
                FourierField.from_half_spectrum(2, {key: np.ones(2)})
        with pytest.raises(InvalidParams):
            eigenfield((1.5, 0), TorusSpec((1.0, 1.0)), np.zeros(2))
        field = FourierField(2, {(np.int64(2), np.int32(-1)): np.ones(2)})
        assert list(field.coeffs) == [(2, -1)]
        assert all(type(ki) is int for ki in next(iter(field.coeffs)))


class TestApplyOperator:
    def setup_method(self):
        self.params = NonlocalParams(2, 0.5, 1.5)
        self.material = Material(1.0, 0.8)
        self.torus = TorusSpec((TWO_PI, 1.5))

    def test_eigenmode_action(self):
        nu_k = frequency_vector((2, 1), self.torus)
        field = FourierField(2, {(2, 1): nu_k.astype(complex)})
        out = apply_operator(field, self.params, self.material, self.torus)
        lam1 = eigenvalue_parallel(self.params, self.material, nu_k)
        assert_allclose(out.coeffs[(2, 1)], lam1 * nu_k, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_multiplier(self, n):
        # reference: the full matrix M(nu_k) applied mode by mode
        params = NonlocalParams(n, 0.9, n - 0.5)
        torus = TorusSpec((TWO_PI, 1.5, 2.3)[:n])
        rng = np.random.default_rng(4)
        field = FourierField(n, {
            k: rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for k in itertools.product(range(-2, 3), repeat=n)})
        out = apply_operator(field, params, self.material, torus)
        assert list(out.coeffs) == list(field.coeffs)
        for k, c in field.coeffs.items():
            M = tensor_multiplier(params, self.material,
                                  frequency_vector(k, torus)).matrix
            assert np.max(np.abs(out.coeffs[k] - M @ c)) <= 1e-13 * (
                1.0 + np.max(np.abs(M)) * np.max(np.abs(c)))

    def test_zero_field(self):
        field = FourierField(2, {(1, 0): np.zeros(2, dtype=complex)})
        out = apply_operator(field, self.params, self.material, self.torus)
        assert_array_equal(out.coeffs[(1, 0)], np.zeros(2, dtype=complex))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        keys = [(1, 0), (0, 1), (2, -1)]
        f = FourierField(2, {k: rng.standard_normal(2) + 1j * rng.standard_normal(2)
                             for k in keys})
        g = FourierField(2, {k: rng.standard_normal(2) + 1j * rng.standard_normal(2)
                             for k in keys})
        a, b = 0.7 - 0.2j, -1.3 + 0.5j
        combo = FourierField(2, {k: a * f.coeffs[k] + b * g.coeffs[k] for k in keys})
        lhs = apply_operator(combo, self.params, self.material, self.torus)
        ff = apply_operator(f, self.params, self.material, self.torus)
        gg = apply_operator(g, self.params, self.material, self.torus)
        for k in keys:
            assert np.max(np.abs(lhs.coeffs[k]
                                 - (a * ff.coeffs[k] + b * gg.coeffs[k]))) <= 1e-12 * (
                1.0 + np.max(np.abs(lhs.coeffs[k])))

    def test_overflow_rejected(self):
        # |lambda| ~ 1e2 at mode (3, 3): 1e307 * lambda overflows a double
        field = FourierField(2, {(1, 0): np.array([1.0, 0.0], dtype=complex),
                                 (3, 3): np.array([1e307, 0.0], dtype=complex)})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidParams, match=r"\(3, 3\)"):
                apply_operator(field, self.params, self.material, self.torus)

    def test_preserves_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        half = {(1, 0): rng.standard_normal(2) + 1j * rng.standard_normal(2),
                (1, 1): rng.standard_normal(2) + 1j * rng.standard_normal(2)}
        field = FourierField.from_half_spectrum(2, half)
        out = apply_operator(field, self.params, self.material, self.torus)
        assert out.conjugate_asymmetry() <= 1e-13


class TestSolvePeriodic:
    def setup_method(self):
        self.params = NonlocalParams(2, 0.5, 1.5)
        self.material = Material(1.0, 0.8)
        self.torus = TorusSpec((TWO_PI, 1.5))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip(self, n):
        params = NonlocalParams(n, 0.5, 1.5)
        torus = TorusSpec((TWO_PI, 1.5, 2.3)[:n])
        rng = np.random.default_rng(3)
        coeffs = {k: rng.standard_normal(n) + 1j * rng.standard_normal(n)
                  for k in itertools.product(range(-3, 4), repeat=n) if any(k)}
        rhs = FourierField(n, coeffs)
        u = solve_periodic(rhs, params, self.material, torus)
        back = apply_operator(u, params, self.material, torus)
        for k, c in rhs.coeffs.items():
            assert np.max(np.abs(back.coeffs[k] - c)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_solve(self, n):
        # reference: a dense solve against M(nu_k) mode by mode
        params = NonlocalParams(n, 0.9, n - 0.5)
        torus = TorusSpec((TWO_PI, 1.5, 2.3)[:n])
        rng = np.random.default_rng(5)
        rhs = FourierField(n, {
            k: rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for k in itertools.product(range(-2, 3), repeat=n) if any(k)})
        u = solve_periodic(rhs, params, self.material, torus)
        for k, c in rhs.coeffs.items():
            M = tensor_multiplier(params, self.material,
                                  frequency_vector(k, torus)).matrix
            want = np.linalg.solve(M, c)
            assert np.max(np.abs(u.coeffs[k] - want)) <= 1e-12 * (
                1.0 + np.max(np.abs(want)))

    def test_overflow_rejected(self):
        # |lambda| ~ 1e-3 with mu = 1e-3: 1e307 / lambda overflows a double
        rhs = FourierField(2, {(1, 0): np.array([1e307, 1e307], dtype=complex)})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidParams, match=r"\(1, 0\)"):
                solve_periodic(rhs, self.params, Material(1e-3, 0.0),
                               self.torus)

    def test_eigenmode_solution(self):
        nu_k = frequency_vector((1, 2), self.torus)
        lam1 = eigenvalue_parallel(self.params, self.material, nu_k)
        rhs = FourierField(2, {(1, 2): lam1 * nu_k.astype(complex)})
        u = solve_periodic(rhs, self.params, self.material, self.torus)
        assert_allclose(u.coeffs[(1, 2)], nu_k.astype(complex), rtol=1e-12)

    def test_zero_mean_enforced(self):
        rhs = FourierField(2, {(0, 0): np.array([1.0, 0.0], dtype=complex)})
        with pytest.raises(SingularMode):
            solve_periodic(rhs, self.params, self.material, self.torus)
        ok = FourierField(2, {(0, 0): np.zeros(2, dtype=complex),
                              (1, 0): np.array([1.0, 2.0], dtype=complex)})
        u = solve_periodic(ok, self.params, self.material, self.torus)
        assert_array_equal(u.coeffs[(0, 0)], np.zeros(2, dtype=complex))

    @pytest.mark.parametrize("n", [2, 3])
    def test_degenerate_eigenvalue_detected(self, n):
        # choose lambda* so the parallel eigenvalue vanishes at one mode
        params = NonlocalParams(n, 1.0, 1.0)
        torus = TorusSpec((TWO_PI, 1.5, 2.3)[:n])
        k = (1,) + (0,) * (n - 1)
        nu_k = frequency_vector(k, torus)
        mu = 1.0
        nn2 = float(nu_k @ nu_k)
        lam1_at = eigenvalue_parallel(params, Material(mu, mu), nu_k)
        g = gradient_factor(params, math.sqrt(nn2))
        lam_star = mu + lam1_at / (nn2 * g * g)
        material = Material(mu, lam_star)
        assert abs(eigenvalue_parallel(params, material, nu_k)) < 1e-14
        # a regular mode first: the error names the degenerate one
        rhs = FourierField(n, {(2,) + (0,) * (n - 1): np.ones(n),
                               k: np.eye(n)[0].astype(complex)})
        with pytest.raises(DegenerateEigenvalue, match=re.escape(str(k))):
            solve_periodic(rhs, params, material, torus)


def test_navier_comparison_of_table():
    p = NonlocalParams(2, 1e-3, 2.0)
    mat = Material(1.4, 0.6)
    torus = TorusSpec((TWO_PI, TWO_PI))
    for rec in spectrum_table(p, mat, torus, 2):
        nn2 = float(rec.nu_k @ rec.nu_k)
        if nn2 == 0.0:
            continue
        lam1_n = -(mat.lambda_star + 2.0 * mat.mu) * nn2
        lam2_n = -mat.mu * nn2
        assert abs(rec.lambda1 - lam1_n) <= 1e-4 * abs(lam1_n)
        assert abs(rec.lambda2 - lam2_n) <= 1e-4 * abs(lam2_n)
