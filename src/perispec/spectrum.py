"""Spectrum of the nonlocal operator on a periodic box.

Plane-wave fields exp(i nu_k . x) gamma with lattice frequencies
nu_k = (2 pi k_1 / l_1, ..., 2 pi k_n / l_n) diagonalize the operator:
applying it multiplies the coefficient by the tensor multiplier M(nu_k).
The eigenvalues of the operator are therefore the multiplier eigenvalues
lambda1(nu_k) (eigenfield along nu_k) and lambda2(nu_k) (n - 1 transverse
eigenfields), and truncated Fourier series can be applied to and solved
against the operator coefficient-wise.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateEigenvalue, InvalidParams, SingularMode,
                     ZeroMode)
from .multipliers import eigenvalues, orthonormal_basis

__all__ = [
    "TorusSpec", "SpectrumRecord", "FourierField", "frequency_vector",
    "spectrum_table", "eigenfield", "apply_operator", "solve_periodic",
]

_EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class TorusSpec:
    """Periodic box with edge lengths (l_1, ..., l_n), all positive."""

    lengths: tuple

    def __post_init__(self):
        lengths = tuple(float(l) for l in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise InvalidParams("torus needs at least one edge length")
        if not all(0 < l < math.inf for l in lengths):
            raise InvalidParams(
                f"edge lengths must be positive and finite, got {lengths}")

    @property
    def dim(self):
        return len(self.lengths)


@dataclass(frozen=True)
class SpectrumRecord:
    """One lattice mode: index k, frequency nu_k, both eigenvalues.

    lambda2 has multiplicity n - 1 (0 in one dimension); both eigenvalues
    are 0 for k = 0.
    """

    k: tuple
    nu_k: np.ndarray
    lambda1: float
    lambda2: float
    multiplicity2: int


def _lattice(k, torus):
    """Lattice frequencies of the mode index row(s) k, as floats."""
    return 2.0 * math.pi * np.asarray(k, dtype=float) / np.asarray(torus.lengths)


def frequency_vector(k, torus):
    """Lattice frequency nu_k = (2 pi k_1 / l_1, ..., 2 pi k_n / l_n)."""
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    if kv.size != torus.dim:
        raise InvalidParams(
            f"mode index has length {kv.size}, expected {torus.dim}")
    return _lattice(kv, torus)


def _mode_key(k):
    """Mode tuple of Python ints; non-integer entries are rejected."""
    kv = np.atleast_1d(k)
    if kv.dtype.kind not in "iu":
        raise InvalidParams(f"mode index {k!r} must have integer entries")
    return tuple(kv.tolist())


def _check_torus(params, torus):
    if torus.dim != params.n:
        raise InvalidParams(
            f"torus dimension {torus.dim} does not match n = {params.n}")


def spectrum_table(params, material, torus, k_max):
    """Eigenvalues for every mode in the box {-k_max, ..., k_max}^n.

    Records are ordered lexicographically in k. The k = 0 record carries
    eigenvalue 0 (constant fields are in the operator kernel).
    """
    _check_torus(params, torus)
    if not isinstance(k_max, numbers.Integral):
        raise InvalidParams(f"k_max must be an integer, got {k_max!r}")
    if k_max < 0:
        raise InvalidParams(f"k_max must be >= 0, got {k_max}")
    ks = list(itertools.product(range(-k_max, k_max + 1), repeat=params.n))
    nu = _lattice(ks, torus)
    lam1, lam2 = eigenvalues(params, material, nu)
    return [SpectrumRecord(k, nu_k, l1, l2, params.n - 1)
            for k, nu_k, l1, l2 in zip(ks, nu, lam1.tolist(), lam2.tolist())]


def eigenfield(k, torus, x, which="parallel", j=2):
    """Eigenvector field of mode k evaluated at the point x.

    The parallel field is exp(i nu_k . x) nu_k (amplitude nu_k itself, not
    normalized); transverse field number j (2 <= j <= n) is
    exp(i nu_k . x) zeta_j with zeta_j the deterministic transverse basis
    vector.  For k = 0 the parallel convention returns the constant e_1
    field; transverse fields do not exist there and raise ZeroMode.
    """
    kv = _mode_key(k)
    n = torus.dim
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != n:
        raise InvalidParams(f"point has length {x.size}, expected {n}")
    if which not in ("parallel", "transverse"):
        raise InvalidParams(f"which must be 'parallel' or 'transverse', got {which!r}")
    nu_k = frequency_vector(kv, torus)
    if all(ki == 0 for ki in kv):
        if which != "parallel":
            raise ZeroMode("the k = 0 mode has no transverse eigenfields")
        e1 = np.zeros(n, dtype=complex)
        e1[0] = 1.0
        return e1
    phase = np.exp(1j * float(nu_k @ x))
    if which == "parallel":
        return phase * nu_k.astype(complex)
    if not 2 <= j <= n:
        raise InvalidParams(f"transverse index j must be in [2, {n}], got {j}")
    basis = orthonormal_basis(nu_k)
    return phase * basis[j - 1].astype(complex)


def _clean_mode(dim, k, c):
    """(integer mode key, complex coefficient vector), checked against dim."""
    key = _mode_key(k)
    val = np.asarray(c, dtype=complex).reshape(-1)
    if len(key) != dim or val.size != dim:
        raise InvalidParams(
            f"mode {key} / coefficient of size {val.size} do not "
            f"match dim = {dim}")
    return key, val


@dataclass
class FourierField:
    """Truncated Fourier series of a vector field on the torus.

    ``coeffs`` maps integer mode tuples k to finite complex coefficient
    vectors of length ``dim``.  Real-valued fields satisfy the conjugate
    symmetry coeff(-k) = conj(coeff(k)); use :meth:`from_half_spectrum` to
    build such a field from one half of the modes.
    """

    dim: int
    coeffs: dict

    def __post_init__(self):
        clean = dict(_clean_mode(self.dim, k, c) for k, c in self.coeffs.items())
        if clean and not np.isfinite(np.concatenate(list(clean.values()))).all():
            bad = next(k for k, c in clean.items() if not np.isfinite(c).all())
            raise InvalidParams(f"coefficient of mode {bad} is not finite")
        self.coeffs = clean

    @classmethod
    def _from_rows(cls, dim, keys, rows):
        """Field from clean mode keys and an (m, dim) complex array.

        Skips the per-mode re-validation of ``__post_init__``: the keys come
        from a validated field, so only finiteness of the rows is checked,
        once over the whole array (an overflow must not pass silently).
        """
        finite = np.isfinite(rows)
        if not finite.all():
            bad = keys[int(np.argmin(finite.all(axis=1)))]
            raise InvalidParams(f"coefficient of mode {bad} is not finite")
        field = cls.__new__(cls)
        field.dim = dim
        field.coeffs = dict(zip(keys, rows))
        return field

    @classmethod
    def from_half_spectrum(cls, dim, half):
        """Build a real (conjugate-symmetric) field from one half-spectrum.

        Every given mode k also populates -k with the conjugate
        coefficient; a k = 0 entry is forced real.  Each mode is validated
        once, here, rather than again by ``__post_init__``.
        """
        coeffs = {}
        for k, c in half.items():
            key, val = _clean_mode(dim, k, c)
            neg = tuple(-ki for ki in key)
            if key == neg:
                coeffs[key] = val.real.astype(complex)
            else:
                coeffs[key] = val
                coeffs[neg] = np.conj(val)
        rows = np.array(list(coeffs.values())).reshape(len(coeffs), dim)
        return cls._from_rows(dim, list(coeffs), rows)

    def conjugate_asymmetry(self):
        """Max deviation from coeff(-k) = conj(coeff(k)) over all modes."""
        worst = 0.0
        for k, c in self.coeffs.items():
            neg = tuple(-ki for ki in k)
            other = self.coeffs.get(neg)
            if other is None:
                worst = max(worst, float(np.max(np.abs(c))))
            else:
                worst = max(worst, float(np.max(np.abs(np.conj(c) - other))))
        return worst

    def evaluate(self, torus, x):
        """Pointwise value sum_k coeff(k) exp(i nu_k . x)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(self.dim, dtype=complex)
        for k, c in self.coeffs.items():
            out += c * np.exp(1j * float(frequency_vector(k, torus) @ x))
        return out


def _modes(field, params, material, torus):
    """Keys, (m, n) coefficients, unit frequencies and eigenvalues of a field.

    In one dimension lambda2 (multiplicity 0) is replaced by lambda1, so
    only lambda1 enters the rank-one forms below.  Unit frequencies are 0
    at k = 0.
    """
    _check_torus(params, torus)
    if field.dim != params.n:
        raise InvalidParams("field dimension does not match n")
    keys = list(field.coeffs)
    shape = (len(keys), params.n)
    coeffs = np.array(list(field.coeffs.values())).reshape(shape)
    nu = _lattice(np.array(keys).reshape(shape), torus)
    lam1, lam2 = eigenvalues(params, material, nu)
    if params.n == 1:
        lam2 = lam1
    norm = np.linalg.norm(nu, axis=1, keepdims=True)
    unit = np.divide(nu, norm, out=np.zeros_like(nu), where=norm > 0)
    return keys, coeffs, unit, lam1, lam2


def _rank_one(unit, coeffs, along, across):
    """Rows of across c + (along - across) nu_hat (nu_hat . c)."""
    proj = np.sum(unit * coeffs, axis=1, keepdims=True)
    return (across[:, None] * coeffs
            + (along - across)[:, None] * unit * proj)


def apply_operator(field, params, material, torus):
    """Apply the operator coefficient-wise: out(k) = M(nu_k) in(k).

    Uses the rank-one form M c = lambda2 c + (lambda1 - lambda2) nu_hat
    (nu_hat . c) with eigenvalues from one batched evaluation.  Exact on the
    truncated series; preserves conjugate symmetry since the multiplier
    matrices are real.
    """
    keys, coeffs, unit, lam1, lam2 = _modes(field, params, material, torus)
    out = _rank_one(unit, coeffs, lam1, lam2)
    return FourierField._from_rows(field.dim, keys, out)


def solve_periodic(rhs, params, material, torus):
    """Solve M(nu_k) u(k) = rhs(k) mode by mode.

    Uses the Sherman-Morrison form u = c / lambda2 + (1/lambda1 -
    1/lambda2) nu_hat (nu_hat . c); in one dimension u = c / lambda1.
    The zero mode must vanish (M(0) = 0 is singular); constant fields stay
    in the kernel, so u(0) = 0.  Raises DegenerateEigenvalue, naming the
    first such mode in coefficient order, if any eigenvalue in range is
    numerically zero.
    """
    keys, coeffs, unit, lam1, lam2 = _modes(rhs, params, material, torus)
    nonzero = unit.any(axis=1)
    if np.any(coeffs[~nonzero] != 0):
        raise SingularMode(
            "rhs has a nonzero mean; the zero mode is not solvable")
    small = nonzero & ((np.abs(lam1) < _EIGENVALUE_FLOOR)
                       | (np.abs(lam2) < _EIGENVALUE_FLOOR))
    if small.any():
        raise DegenerateEigenvalue(
            f"eigenvalue at mode {keys[int(np.argmax(small))]} is below "
            f"{_EIGENVALUE_FLOOR}")
    inv1 = np.divide(1.0, lam1, out=np.zeros_like(lam1), where=nonzero)
    inv2 = np.divide(1.0, lam2, out=np.zeros_like(lam2), where=nonzero)
    out = _rank_one(unit, coeffs, inv1, inv2)
    out[~nonzero] = 0.0
    return FourierField._from_rows(rhs.dim, keys, out)
