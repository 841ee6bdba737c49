"""Torus spectrum tests: lattice frequencies, eigenfields, apply/solve."""

import gc
import itertools
import math
import re
import tracemalloc
import warnings
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import perispec.spectrum
from perispec.errors import (DegenerateEigenvalue, InvalidParams, SingularMode,
                             ZeroMode)
from perispec.multipliers import (Material, NonlocalParams,
                                  eigenvalue_parallel, eigenvalue_transverse,
                                  eigenvalues, gradient_factor,
                                  tensor_multiplier)
from perispec.spectrum import (FourierField, SpectrumRecord, SpectrumTable,
                               TorusSpec, apply_operator, eigenfield,
                               frequency_vector, solve_periodic,
                               spectrum_table)

TWO_PI = 2.0 * math.pi


def _traced_peak(call):
    """Peak bytes ``tracemalloc`` sees while ``call()`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rank_one_reference(unit, c, along, across):
    """The documented rank-one form on whole arrays, in its operation order."""
    proj = np.sum(unit * c, axis=1, keepdims=True)
    return across[:, None] * c + (along - across)[:, None] * unit * proj


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

    def test_torus_needs_an_edge(self):
        with pytest.raises(InvalidParams, match="at least one edge length"):
            TorusSpec(())

    def test_torus_of_another_dimension_rejected(self):
        p = NonlocalParams(2, 0.5, 1.0)
        with pytest.raises(InvalidParams,
                           match="torus dimension 3 does not match n = 2"):
            spectrum_table(p, Material(1.0, 1.0), TorusSpec((TWO_PI,) * 3), 1)

    @pytest.mark.parametrize("lengths", [(TWO_PI,) * 3, (4.1, 5.7, 7.3)])
    def test_series_summed_once_per_shell(self, lengths, monkeypatch):
        # every mode of a |nu|^2 shell shares one entry of each series
        real, entries = perispec.multipliers.pfq_batch, []

        def counting(calls, tol):
            entries.extend(len(z) for _, z in calls)
            return real(calls, tol)

        monkeypatch.setattr(perispec.multipliers, "pfq_batch", counting)
        table = spectrum_table(NonlocalParams(3, 0.9, 2.2),
                               Material(1.1, 0.6), TorusSpec(lengths), 4)
        shells = {float(v @ v) for v in table.nu}
        assert entries == [len(shells)] * 3     # merged, g and b1

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

    def test_overflowing_lattice_frequency(self):
        p = NonlocalParams(2, 1.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParams, match="lattice frequency"):
                spectrum_table(p, Material(1.0, 0.0),
                               TorusSpec((1e-320, 1.0)), 1)

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


class TestSpectrumTableView:
    PARAMS = NonlocalParams(3, 0.5, 3.0)
    MATERIAL = Material(1.0, 0.7)
    TORUS = TorusSpec((4.3, 6.1, 7.9))

    @staticmethod
    def reference(params, material, torus, k_max):
        """The table's records built from one ``eigenvalues`` call."""
        box = list(itertools.product(range(-k_max, k_max + 1),
                                     repeat=params.n))
        nu = np.array([frequency_vector(k, torus) for k in box])
        lam1, lam2 = eigenvalues(params, material, nu)
        return [SpectrumRecord(k, nu_k, l1, l2, params.n - 1)
                for k, nu_k, l1, l2 in zip(box, nu, lam1.tolist(),
                                           lam2.tolist())]

    def test_sequence_contract(self):
        table = spectrum_table(self.PARAMS, self.MATERIAL, self.TORUS, 2)
        want = self.reference(self.PARAMS, self.MATERIAL, self.TORUS, 2)
        assert isinstance(table, Sequence) and len(table) == 125
        assert list(table) == want
        assert [table[i] for i in range(len(table))] == want
        assert [r.k for r in table] == [r.k for r in want]     # box order
        assert table[-1] == want[-1] and table[-125] == want[0]
        assert table[np.int64(7)] == want[7]
        for bad in (125, -126, 10**20):
            with pytest.raises(IndexError, match="outside a table of 125"):
                table[bad]
        with pytest.raises(TypeError):
            table[1.0]
        for part in (slice(3, 17, 4), slice(None, None, -7), slice(9, 2),
                     slice(-5, None)):
            view = table[part]
            assert isinstance(view, SpectrumTable)
            assert list(view) == want[part] and len(view) == len(want[part])
        rec = table[3]
        assert type(rec.k[0]) is int and type(rec.lambda1) is float
        assert rec.multiplicity2 == 2
        with pytest.raises(ValueError):
            rec.nu_k[0] = 0.0
        for column in (table.modes, table.nu, table.lambda1, table.lambda2,
                       next(iter(table)).nu_k, table[::2].nu):
            assert not column.flags.writeable
        assert table[0] != want[1] and table[0] != "not a record"

    @settings(deadline=None, max_examples=25)
    @given(n=st.integers(1, 3), k_max=st.integers(0, 3),
           delta=st.floats(0.1, 2.0), mu=st.floats(0.5, 2.0),
           lambda_star=st.floats(-1.0, 2.0), data=st.data())
    def test_records_equal_eigenvalue_rows(self, n, k_max, delta, mu,
                                           lambda_star, data):
        beta = data.draw(st.floats(-1.0, n + 1.5))
        lengths = data.draw(st.lists(st.floats(0.5, 9.0), min_size=n,
                                     max_size=n))
        params, material = NonlocalParams(n, delta, beta), Material(mu, lambda_star)
        torus = TorusSpec(tuple(lengths))
        table = spectrum_table(params, material, torus, k_max)
        want = self.reference(params, material, torus, k_max)
        assert list(table) == want
        assert table[len(want) // 2] == want[len(want) // 2]
        for got, rec in zip(table, want):
            assert got.nu_k.tobytes() == rec.nu_k.tobytes()

    def test_live_memory_is_the_arrays(self):
        # the four arrays of 21^3 modes take ~0.6 MB; a record list ~3.3 MB
        spectrum_table(self.PARAMS, self.MATERIAL, self.TORUS, 1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = spectrum_table(self.PARAMS, self.MATERIAL, self.TORUS, 10)
            gc.collect()
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table) == 21**3
        assert live < 1.5e6

    def test_iteration_peak_is_one_block(self):
        # records are built from one block of rows at a time: whole-column
        # lists of the 21^3 box's 9261 records peaked at ~1.6 MB
        table = spectrum_table(self.PARAMS, self.MATERIAL, self.TORUS, 10)
        count = 0

        def walk():
            nonlocal count
            for rec in table:
                count += 1

        assert _traced_peak(walk) <= 0.3e6
        assert count == 21**3


class TestSizeReach:
    def test_cap_is_stated(self):
        assert perispec.spectrum.MAX_MODES == 250_000
        # spectrum --n 3 --k-max 30 and the benchmark's 21^3 box fit
        assert 61**3 <= perispec.spectrum.MAX_MODES

    # (2 k_max + 1)^n just above MAX_MODES: 250,001, 251,001 and 250,047
    @pytest.mark.parametrize("n, k_max", [(1, 125_000), (2, 250), (3, 31),
                                          (3, 10**12)])
    def test_rejected_before_any_mode(self, n, k_max, monkeypatch):
        def no_box(*args, **kwargs):
            raise AssertionError("modes were built past the reach")

        monkeypatch.setattr(perispec.spectrum, "_mode_box", no_box)
        p = NonlocalParams(n, 0.5, 1.0)
        with pytest.raises(InvalidParams, match="MAX_MODES = 250000") as exc:
            spectrum_table(p, Material(1.0, 1.0), TorusSpec((TWO_PI,) * n),
                           k_max)
        assert f"{(2 * k_max + 1) ** n} modes" in str(exc.value)


class TestModeBox:
    @pytest.mark.parametrize("n, k_max", [(1, 0), (1, 3), (2, 2), (3, 1),
                                          (4, 2), (6, 1)])
    def test_lexicographic_c_ordered_int64(self, n, k_max):
        box = perispec.spectrum._mode_box(n, k_max)
        ref = list(itertools.product(range(-k_max, k_max + 1), repeat=n))
        assert box.dtype == np.int64 and box.flags.c_contiguous
        assert box.shape == (len(ref), n)
        assert_array_equal(box, np.array(ref, dtype=np.int64))

    @pytest.mark.parametrize("n", [64, 65, 80])
    def test_more_dimensions_than_a_numpy_array(self, n):
        # numpy arrays have at most 64 dimensions; the box must not need one
        table = spectrum_table(NonlocalParams(n, 1.0, 1.0), Material(1.0, 0.0),
                               TorusSpec((TWO_PI,) * n), 0)
        assert len(table) == 1 and table.modes.shape == (1, n)
        record = table[0]
        assert record.k == (0,) * n and record.multiplicity2 == n - 1
        assert (record.lambda1, record.lambda2) == (0.0, 0.0)


class TestPhaseReach:
    # at l = 2 pi the mode k = 1 has |nu| = 1 exactly, so |nu| delta = delta
    # and delta = MAX_PHASE is the largest admitted horizon for k_max = 1

    def test_reach_is_the_series_reach(self):
        reach = perispec.spectrum.MAX_PHASE
        assert (reach / 2.0) ** 2 == pytest.approx(1e7, rel=1e-15)

    def test_largest_admitted_box_evaluates(self):
        p = NonlocalParams(1, perispec.spectrum.MAX_PHASE, 2.0)
        table = spectrum_table(p, Material(1.0, 0.0), TorusSpec((TWO_PI,)), 1)
        assert [r.k for r in table] == [(-1,), (0,), (1,)]
        assert all(math.isfinite(r.lambda1) and r.lambda1 < 0.0
                   for r in table if r.k != (0,))

    def test_rejected_before_any_series(self, monkeypatch):
        def no_series(*args, **kwargs):
            raise AssertionError("a series was summed past the reach")

        # the reach is checked inside the eigenvalue call, before its series
        monkeypatch.setattr(perispec.multipliers, "_sums", no_series)
        p = NonlocalParams(1, math.nextafter(perispec.spectrum.MAX_PHASE,
                                           math.inf), 2.0)
        torus = TorusSpec((TWO_PI,))
        field = FourierField(1, {(1,): [1.0]})
        for call in (lambda: spectrum_table(p, Material(1.0, 0.0), torus, 1),
                     lambda: apply_operator(field, p, Material(1.0, 0.0), torus),
                     lambda: solve_periodic(field, p, Material(1.0, 0.0), torus)):
            with pytest.raises(InvalidParams,
                               match=r"\|nu\| delta reaches 6324.*MAX_PHASE"):
                call()


class TestEigenfield:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParams, match="which must be"):
            eigenfield((1, 0), TorusSpec((TWO_PI,) * 2), np.zeros(2),
                       which="diagonal")

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        torus = TorusSpec((1.0, 2.0))
        field = FourierField(2, {(1, 0): [1.0, 0.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: eigenfield((1, 0), torus, [bad, 0.0]),
                         lambda: eigenfield((0, 0), torus, [bad, 0.0]),
                         lambda: field.evaluate(torus, [bad, 0.0])):
                with pytest.raises(InvalidParams, match="must be finite"):
                    call()
        with pytest.raises(InvalidParams, match="point has shape"):
            field.evaluate(torus, [0.5])

    def test_overflowing_phase_rejected(self):
        # finite points whose phase nu_k . x is not a finite double
        torus = TorusSpec((1.0, 2.0))
        field = FourierField(2, {(1, 0): [1, 0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: field.evaluate(torus, [1e308, 0]),
                         lambda: eigenfield((1, 0), torus, [1e308, 0]),
                         lambda: eigenfield((1, 1), torus, [1e308, -1e308],
                                            which="transverse")):
                with pytest.raises(InvalidParams, match="phase"):
                    call()


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

    def test_half_spectrum_rejects_both_of_a_pair(self):
        # the mode (-1, 0) would silently overwrite (1, 0)'s conjugate
        half = {(1, 0): np.array([1 + 1j, 2]), (0, 1): np.ones(2),
                (-1, 0): np.array([5, 7])}
        with pytest.raises(InvalidParams,
                           match=r"both mode \(1, 0\) and its conjugate \(-1, 0\)"):
            FourierField.from_half_spectrum(2, half)
        zero = FourierField.from_half_spectrum(2, {(0, 0): np.ones(2)})
        assert list(zero.coeffs) == [(0, 0)]

    def test_dimension_validation(self):
        for bad in ({(1,): np.array([1.0 + 0j, 0.0])},
                    {(1, 0): np.ones(3)}):
            with pytest.raises(InvalidParams, match="do not match dim = 2"):
                FourierField(2, bad)
            with pytest.raises(InvalidParams, match="do not match dim = 2"):
                FourierField.from_half_spectrum(2, bad)

    def test_ragged_coefficients_are_named(self):
        # both keys are valid modes; only the coefficients are ragged
        bad = {(1, 0): np.zeros(2), (0, 1): np.zeros((2, 1))}
        with pytest.raises(InvalidParams, match=r"^coefficients do not form"):
            FourierField(2, bad)

    def test_evaluate_on_another_dimension_rejected(self):
        field = FourierField(2, {(1, 0): np.ones(2)})
        with pytest.raises(InvalidParams,
                           match="torus dimension 3 does not match dim = 2"):
            field.evaluate(TorusSpec((TWO_PI,) * 3), np.zeros(3))

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


class TestModeRange:
    # every mode k, and so its conjugate -k, is an int64 row
    BOUND = 2**63 - 1

    @pytest.mark.parametrize("dim, key, mode", [
        (1, 2**63, (2**63,)),                # stored as -2**63 by a uint64 wrap
        (1, -2**63, (-2**63,)),              # -k is not an int64
        (1, 2**64, (2**64,)),                # was "must have integer entries"
        (2, (-2**63, 1), (-2**63, 1)),       # paired with (-2**63, -1)
        (2, (2**63, -1), (2**63, -1)),       # numpy holds it as floats
        (3, (0, 0, -2**70), (0, 0, -2**70)),
    ])
    def test_out_of_range_modes_rejected(self, dim, key, mode):
        coeff = np.ones(dim, dtype=complex)
        message = re.escape(f"mode {mode} ")
        with pytest.raises(InvalidParams, match=message):
            FourierField(dim, {key: coeff})
        with pytest.raises(InvalidParams, match=message):
            FourierField.from_half_spectrum(dim, {key: coeff})
        with pytest.raises(InvalidParams, match=message):
            FourierField(dim, {(0,) * dim: coeff, key: coeff})
        with pytest.raises(InvalidParams, match=message):
            eigenfield(key, TorusSpec((1.0,) * dim), np.zeros(dim))

    def test_the_bound_is_admitted(self):
        b = self.BOUND
        field = FourierField.from_half_spectrum(2, {(b, -b): np.ones(2),
                                                    (0, 1): np.ones(2)})
        assert list(field.coeffs) == [(b, -b), (-b, b), (0, 1), (0, -1)]
        assert field.conjugate_asymmetry() == 0.0
        wide = FourierField(1, {b: np.ones(1), -b: np.ones(1)})
        assert list(wide.coeffs) == [(b,), (-b,)]
        assert all(type(ki) is int for k in wide.coeffs for ki in k)

    def test_non_integers_still_named_as_such(self):
        for key in ((1.5, 2**64), (2**64, "1"), ()):
            with pytest.raises(InvalidParams, match="integer entries"):
                FourierField.from_half_spectrum(2, {key: np.ones(2)})


class TestConjugatePairing:
    @staticmethod
    def reference(k):
        """Row index of -k in k through np.unique over the rows of [k; -k]."""
        inv = np.unique(np.concatenate([k, -k]), axis=0,
                        return_inverse=True)[1].reshape(2, -1)
        index = np.full(2 * len(k), -1)
        index[inv[0]] = np.arange(len(k))
        return index[inv[1]]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_unique_reference(self, n):
        rng = np.random.default_rng(n)
        box = np.array(list(itertools.product(range(-3, 4), repeat=n)))
        for size in (0, 1, 2, len(box) // 3, len(box) - 1, len(box)):
            for _ in range(4):
                k = box[rng.permutation(len(box))[:size]]
                got = perispec.spectrum._conjugate_rows(k)
                assert got.tolist() == self.reference(k).tolist()
        # rows near the int64 bound, half of them with their conjugate
        wide = rng.integers(-2**63 + 1, 2**63 - 1, size=(40, n),
                            endpoint=True)
        wide = np.unique(np.concatenate([wide, -wide[:20]]), axis=0)
        wide = wide[rng.permutation(len(wide))]
        got = perispec.spectrum._conjugate_rows(wide)
        assert got.tolist() == self.reference(wide).tolist()
        assert (got >= 0).sum() >= 40

    def test_zero_mode_and_empty_field(self):
        zero = np.zeros((1, 3), dtype=np.int64)
        assert perispec.spectrum._conjugate_rows(zero).tolist() == [0]
        empty = np.zeros((0, 2), dtype=np.int64)
        assert perispec.spectrum._conjugate_rows(empty).tolist() == []

    @settings(deadline=None, max_examples=50)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_property(self, data, n):
        entry = st.integers(-2**63 + 1, 2**63 - 1) | st.integers(-3, 3)
        rows = data.draw(st.lists(st.tuples(*[entry] * n), unique=True,
                                  max_size=30))
        flip = data.draw(st.lists(st.booleans(), min_size=len(rows),
                                  max_size=len(rows)))
        rows += [tuple(-x for x in r) for r, f in zip(rows, flip) if f]
        k = np.array(list(dict.fromkeys(rows)), dtype=np.int64).reshape(-1, n)
        got = perispec.spectrum._conjugate_rows(k)
        assert got.tolist() == self.reference(k).tolist()


class TestFieldContract:
    # one real field built three ways: mapping constructor, half-spectrum,
    # and as the result of apply / solve
    PARAMS = NonlocalParams(2, 0.6, 1.5)
    MATERIAL = Material(1.0, 0.5)
    TORUS = TorusSpec((TWO_PI, 4.1))

    def half_and_full(self):
        rng = np.random.default_rng(7)
        half = {k: rng.standard_normal(2) + 1j * rng.standard_normal(2)
                for k in [(1, 0), (0, 0), (2, -1), (0, 3), (-1, -1)]}
        full = {}
        for k, c in half.items():
            if any(k):
                full[k] = c
                full[tuple(-ki for ki in k)] = np.conj(c)
            else:
                full[k] = c.real.astype(complex)
        return half, full

    @staticmethod
    def assert_same(a, b):
        assert a.dim == b.dim
        assert list(a.coeffs) == list(b.coeffs)
        for key in a.coeffs:
            assert all(type(ki) is int for ki in key)
            assert a.coeffs[key].tobytes() == b.coeffs[key].tobytes()

    def test_three_constructions_agree(self):
        half, full = self.half_and_full()
        mapped = FourierField(2, full)
        halved = FourierField.from_half_spectrum(2, half)
        self.assert_same(mapped, halved)
        image = apply_operator(halved, self.PARAMS, self.MATERIAL, self.TORUS)
        self.assert_same(image, apply_operator(mapped, self.PARAMS,
                                               self.MATERIAL, self.TORUS))
        self.assert_same(image, FourierField(2, image.coeffs))
        rhs = FourierField(2, {k: c for k, c in full.items() if any(k)})
        back = solve_periodic(rhs, self.PARAMS, self.MATERIAL, self.TORUS)
        self.assert_same(back, FourierField(2, back.coeffs))
        assert list(image.coeffs) == list(full)
        assert list(back.coeffs) == list(rhs.coeffs)

    def test_coeffs_is_read_only(self):
        half, full = self.half_and_full()
        for field in (FourierField(2, full),
                      FourierField.from_half_spectrum(2, half),
                      apply_operator(FourierField(2, full), self.PARAMS,
                                     self.MATERIAL, self.TORUS)):
            assert field.coeffs is field.coeffs
            with pytest.raises(TypeError):
                field.coeffs[(5, 5)] = np.ones(2)
            with pytest.raises(AttributeError):
                field.coeffs = {}
            with pytest.raises(ValueError):
                field.coeffs[(1, 0)][0] = 0.0

    def test_empty_field(self):
        empty = FourierField(2, {})
        for field in (empty, FourierField.from_half_spectrum(2, {}),
                      apply_operator(empty, self.PARAMS, self.MATERIAL,
                                     self.TORUS),
                      solve_periodic(empty, self.PARAMS, self.MATERIAL,
                                     self.TORUS)):
            assert field.coeffs == {}
            assert field.conjugate_asymmetry() == 0.0
            assert_array_equal(field.evaluate(self.TORUS, [0.1, 0.2]),
                               np.zeros(2, dtype=complex))

    def test_evaluate_matches_the_series(self):
        half, _ = self.half_and_full()
        field = FourierField.from_half_spectrum(2, half)
        x = np.array([0.3, -1.2])
        want = sum(c * np.exp(1j * (frequency_vector(k, self.TORUS) @ x))
                   for k, c in field.coeffs.items())
        got = field.evaluate(self.TORUS, x)
        assert_allclose(got, want, rtol=1e-13)
        assert np.max(np.abs(got.imag)) <= 1e-13    # a real field

    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           delta=st.floats(0.1, 2.0), mu=st.floats(0.5, 2.0),
           lambda_star=st.floats(0.0, 2.0), data=st.data())
    def test_round_trip_on_random_tori(self, n, seed, delta, mu, lambda_star,
                                       data):
        beta = data.draw(st.floats(-1.0, n + 1.5))
        lengths = data.draw(st.lists(st.floats(1.0, 8.0), min_size=n,
                                     max_size=n))
        params, material = NonlocalParams(n, delta, beta), Material(mu, lambda_star)
        torus = TorusSpec(tuple(lengths))
        rng = np.random.default_rng(seed)
        box = [k for k in itertools.product(range(-2, 3), repeat=n) if any(k)]
        keys = [box[i] for i in rng.permutation(len(box))[:rng.integers(1, 12)]]
        f = FourierField(n, {k: rng.standard_normal(n) + 1j * rng.standard_normal(n)
                             for k in keys})
        self.assert_same(f, FourierField(n, f.coeffs))
        back = solve_periodic(apply_operator(f, params, material, torus),
                              params, material, torus)
        assert list(back.coeffs) == keys
        for k in keys:
            assert np.max(np.abs(back.coeffs[k] - f.coeffs[k])) <= 1e-10


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

    def test_field_of_another_dimension_rejected(self):
        # the torus matches n; the field does not
        field = FourierField(3, {(1, 0, 0): np.ones(3)})
        with pytest.raises(InvalidParams, match="field dimension"):
            apply_operator(field, self.params, self.material, self.torus)

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


class TestNoModeCopies:
    PARAMS = NonlocalParams(3, 0.7, 2.5)
    MATERIAL = Material(1.1, 0.4)
    TORUS = TorusSpec((TWO_PI, 4.1, 5.3))

    def test_results_share_the_input_modes(self):
        # reference: the documented rank-one and Sherman-Morrison forms on
        # one eigenvalues call, in the same operation order, bit for bit
        rng = np.random.default_rng(11)
        half = {k: rng.standard_normal(3) + 1j * rng.standard_normal(3)
                for k in itertools.product(range(-2, 3), repeat=3)
                if k > (0, 0, 0)}
        field = FourierField.from_half_spectrum(3, half)
        image = apply_operator(field, self.PARAMS, self.MATERIAL, self.TORUS)
        back = solve_periodic(image, self.PARAMS, self.MATERIAL, self.TORUS)
        assert np.shares_memory(image._k, field._k)
        assert np.shares_memory(back._k, image._k)

        modes = np.array(list(field.coeffs))
        nu = np.array([frequency_vector(k, self.TORUS) for k in modes])
        lam1, lam2 = eigenvalues(self.PARAMS, self.MATERIAL, nu)
        norm = np.linalg.norm(nu, axis=1, keepdims=True)
        unit = nu / norm

        c = np.array(list(field.coeffs.values()))
        want_image = _rank_one_reference(unit, c, lam1, lam2)
        want_back = _rank_one_reference(unit, want_image, 1.0 / lam1,
                                        1.0 / lam2)
        for got, want in ((image, want_image), (back, want_back)):
            assert list(got.coeffs) == list(map(tuple, modes.tolist()))
            assert np.array(list(got.coeffs.values())).tobytes() == want.tobytes()

    # boxes of 6001, 1681, 2401 and 3125 modes: each spans several blocks
    @pytest.mark.parametrize("n, k_max", [(1, 3000), (2, 20), (4, 3), (5, 2)])
    def test_rank_one_bits_in_every_dimension(self, n, k_max):
        # np.sum's order over a row changes with n (pairwise from n = 4 on),
        # so the map keeps the whole-row sum for every dimension
        rng = np.random.default_rng(n)
        modes = np.array(list(itertools.product(range(-k_max, k_max + 1),
                                                repeat=n)))
        unit = rng.standard_normal(modes.shape)
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        unit[len(modes) // 2] = 0.0                        # the zero mode
        c = (rng.standard_normal(modes.shape)
             + 1j * rng.standard_normal(modes.shape))
        c[::7] *= -0.0                                     # signed zeros
        along, across = rng.standard_normal((2, len(modes)))
        got = perispec.spectrum._rank_one(unit, c, along, across)
        want = _rank_one_reference(unit, c, along, across)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestStreamedPeaks:
    # the 21^3 box of the benchmark's torus program: 9261 modes, whose
    # (m, 3) complex coefficients take 0.44 MB
    PARAMS = NonlocalParams(3, 0.5, 3.0)
    MATERIAL = Material(1.0, 0.4)
    TORUS = TorusSpec((4.5, 5.2, 7.1))

    def field(self, k_max):
        rng = np.random.default_rng(5)
        half = [k for k in itertools.product(range(-k_max, k_max + 1),
                                             repeat=3) if k > (0, 0, 0)]
        coeffs = (rng.standard_normal((len(half), 3))
                  + 1j * rng.standard_normal((len(half), 3)))
        return FourierField.from_half_spectrum(3, dict(zip(half, coeffs)))

    def test_apply_and_solve_write_one_array(self):
        # four full (m, 3) complex temporaries peaked at 1.91 / 2.07 MB
        small = self.field(1)
        solve_periodic(apply_operator(small, self.PARAMS, self.MATERIAL,
                                      self.TORUS),
                       self.PARAMS, self.MATERIAL, self.TORUS)
        field = self.field(10)
        assert len(field.coeffs) == 21**3 - 1
        out = {}

        def apply():
            out["image"] = apply_operator(field, self.PARAMS, self.MATERIAL,
                                          self.TORUS)

        def solve():
            out["back"] = solve_periodic(out["image"], self.PARAMS,
                                         self.MATERIAL, self.TORUS)

        assert _traced_peak(apply) <= 1.6e6
        assert _traced_peak(solve) <= 1.75e6
        assert np.max(np.abs(out["back"]._c - field._c)) <= 1e-10


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
