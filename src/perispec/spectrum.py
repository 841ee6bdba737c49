"""Spectrum of the nonlocal operator on a periodic box.

Plane-wave fields exp(i nu_k . x) gamma with lattice frequencies
nu_k = (2 pi k_1 / l_1, ..., 2 pi k_n / l_n) diagonalize the operator:
applying it multiplies the coefficient by the tensor multiplier M(nu_k).
The eigenvalues of the operator are therefore the multiplier eigenvalues
lambda1(nu_k) (eigenfield along nu_k) and lambda2(nu_k) (n - 1 transverse
eigenfields), and truncated Fourier series can be applied to and solved
against the operator coefficient-wise.

The layer works on arrays: a box or a field is an (m, n) integer mode
array, and one helper, ``_spectrum``, maps it to frequencies and
eigenvalues: it asks the closed-form evaluator for lambda1 and lambda2 of
its one material, and the evaluator checks every |nu|^2 against the
reach MAX_PHASE before it sums the series once per shell (distinct
|nu|^2).  A field's coefficients are one (m, n) complex array.  A
spectrum table is a read-only sequence over its box's arrays that builds
records on access.  Python values and complex temporaries are made one
block of _BLOCK rows at a time, so neither a table's records nor apply
and solve hold more than one block's worth beyond their arrays.
"""

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import (DegenerateEigenvalue, InvalidParams, SingularMode,
                     ZeroMode)
# MAX_PHASE is re-exported: the torus layer's reach is the closed forms'
from .multipliers import MAX_PHASE, _closed, _frequencies, orthonormal_basis

__all__ = [
    "TorusSpec", "SpectrumRecord", "SpectrumTable", "FourierField",
    "frequency_vector", "spectrum_table", "eigenfield", "apply_operator",
    "solve_periodic",
]

_EIGENVALUE_FLOOR = 1e-14

#: Most lattice modes, (2 k_max + 1)^n, that ``spectrum_table`` accepts:
#: its stated size reach.  ``spectrum --n 3 --k-max 30`` (226,981 modes)
#: fits, and the ``spectrum`` command, which formats its rows one block at
#: a time, peaks at ~57 MB resident near the cap; a larger box is rejected
#: before any mode is built.
MAX_MODES = 250_000

#: Rows turned into Python values, or into complex temporaries, at a time.
_BLOCK = 512

#: Largest |k_i| of a mode: a mode and its conjugate -k are both int64 rows.
_MODE_BOUND = 2**63 - 1


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


@dataclass(frozen=True, eq=False)
class SpectrumRecord:
    """One lattice mode: index k, frequency nu_k, both eigenvalues.

    lambda2 has multiplicity n - 1 (0 in one dimension); both eigenvalues
    are 0 for k = 0.  A table's record is built on access, its nu_k a
    read-only row of the table's frequencies.  Records are equal when all
    fields are (nu_k entry by entry).
    """

    k: tuple
    nu_k: np.ndarray
    lambda1: float
    lambda2: float
    multiplicity2: int

    def __eq__(self, other):
        if not isinstance(other, SpectrumRecord):
            return NotImplemented
        return ((self.k, self.lambda1, self.lambda2, self.multiplicity2)
                == (other.k, other.lambda1, other.lambda2, other.multiplicity2)
                and np.array_equal(self.nu_k, other.nu_k))


class SpectrumTable(Sequence):
    """Read-only sequence of a mode box's SpectrumRecords, built on access.

    Holds four non-writable arrays: ``modes`` (m, n) int64 in lexicographic
    order, ``nu`` (m, n), ``lambda1`` and ``lambda2`` (m,).  An index
    (negative from the end) or iteration builds records in mode order,
    iteration converting one block of rows to Python values at a time; a
    slice is a table over views of the same arrays.
    """

    def __init__(self, modes, nu, lambda1, lambda2):
        for a in (modes, nu, lambda1, lambda2):
            a.flags.writeable = False
        self.modes, self.nu = modes, nu
        self.lambda1, self.lambda2 = lambda1, lambda2

    def __len__(self):
        return len(self.modes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SpectrumTable(self.modes[i], self.nu[i], self.lambda1[i],
                                 self.lambda2[i])
        try:    # an integer in range, counted from the end if negative
            i = range(len(self))[i]
        except IndexError:
            raise IndexError(f"record {i} is outside a table of "
                             f"{len(self)}") from None
        return next(iter(self[i:i + 1]))

    def __iter__(self):
        multiplicity2 = self.modes.shape[1] - 1
        for (k, l1, l2), nu_k in zip(
                _rows(self.modes, self.lambda1, self.lambda2), self.nu):
            yield SpectrumRecord(tuple(k), nu_k, l1, l2, multiplicity2)


def _rows(*columns):
    """Rows of parallel arrays as tuples of Python values, in order.

    Only one block of rows is converted (``tolist``) at a time; a row of a
    2-D column is a list.
    """
    for i in range(0, len(columns[0]), _BLOCK):
        yield from zip(*(c[i:i + _BLOCK].tolist() for c in columns))


def _lattice(k, torus):
    """Lattice frequencies of the mode index row(s) k, checked to be finite."""
    with np.errstate(over="ignore"):
        nu = (2.0 * math.pi * np.asarray(k, dtype=float)
              / np.asarray(torus.lengths))
    if not np.isfinite(nu).all():
        raise InvalidParams(
            f"lattice frequency 2 pi k / l overflows a double for edge "
            f"lengths {torus.lengths}")
    return nu


def frequency_vector(k, torus):
    """Lattice frequency nu_k = (2 pi k_1 / l_1, ..., 2 pi k_n / l_n)."""
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    if kv.size != torus.dim:
        raise InvalidParams(
            f"mode index has length {kv.size}, expected {torus.dim}")
    return _lattice(kv, torus)


def _mode_key(k):
    """Mode tuple of Python ints, each within +-_MODE_BOUND.

    Entries are read as Python objects: numpy would hold integers past
    int64 as uint64, float or object entries.  A non-integer entry is
    rejected, and so is a mode with an entry out of range, by name.
    """
    entries = np.asarray(k, dtype=object).ravel().tolist()
    if not entries or not all(isinstance(e, numbers.Integral)
                              and not isinstance(e, bool) for e in entries):
        raise InvalidParams(f"mode index {k!r} must have integer entries")
    key = tuple(map(int, entries))
    if max(map(abs, key)) > _MODE_BOUND:
        raise InvalidParams(f"mode {key} has an entry outside +-(2**63 - 1), "
                            f"so its conjugate -k is not an int64 mode")
    return key


def _point(x, dim):
    """The point x as a vector of dim finite floats."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dim,):
        raise InvalidParams(f"point has shape {x.shape}, expected ({dim},)")
    if not np.isfinite(x).all():
        raise InvalidParams(f"point must be finite, got {x.tolist()}")
    return x


def _phase(nu, x):
    """The phase(s) nu . x of frequency row(s) nu, checked to be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = nu @ x
    if not np.isfinite(phase).all():
        raise InvalidParams(
            f"phase nu_k . x overflows a double at the point {x.tolist()}")
    return phase


def _check_torus(params, torus):
    if torus.dim != params.n:
        raise InvalidParams(
            f"torus dimension {torus.dim} does not match n = {params.n}")


def _spectrum(params, material, torus, modes):
    """(nu, |nu|^2 as ``_frequencies`` forms it, lambda1, lambda2) of modes."""
    nu = _lattice(modes, torus)
    nn2 = _frequencies(params, nu)[1]
    [lam1, lam2], = _closed(
        [(params, nn2, [(material, "lambda1"), (material, "lambda2")])])
    return nu, nn2, lam1, lam2


def _mode_box(n, k_max):
    """The box {-k_max, ..., k_max}^n as (count, n) int64 rows, lexicographic.

    One C-ordered array filled a column at a time through 4-D views, with
    no n-dimensional array (numpy allows at most 64 dimensions) and no
    temporary: column i repeats each value side^(n-1-i) times, side^i times.
    """
    side = 2 * k_max + 1
    values = np.arange(-k_max, k_max + 1)[:, None]
    box = np.empty((side**n, n), np.int64)
    for i in range(n):
        box.reshape(side**i, side, -1, n)[..., i] = values
    return box


def _box_spectrum(params, material, torus, k_max):
    """(modes, nu, |nu|^2, lambda1, lambda2) of the box {-k_max, ..., k_max}^n.

    Modes are lexicographic; a box of more than MAX_MODES modes raises
    InvalidParams before any is built.
    """
    _check_torus(params, torus)
    if not isinstance(k_max, numbers.Integral):
        raise InvalidParams(f"k_max must be an integer, got {k_max!r}")
    if k_max < 0:
        raise InvalidParams(f"k_max must be >= 0, got {k_max}")
    n = params.n
    count = (2 * k_max + 1) ** n
    if count > MAX_MODES:
        raise InvalidParams(
            f"k_max = {k_max} at n = {n} asks for {count} modes, above "
            f"the spectrum's reach MAX_MODES = {MAX_MODES}")
    modes = _mode_box(n, k_max)
    return (modes, *_spectrum(params, material, torus, modes))


def spectrum_table(params, material, torus, k_max):
    """Eigenvalues for every mode in the box {-k_max, ..., k_max}^n.

    Returns a read-only ``SpectrumTable`` over the box's mode, frequency
    and eigenvalue arrays (not writable); each ``SpectrumRecord`` is built
    when it is accessed.  Records are ordered lexicographically in k.  The
    k = 0 record carries eigenvalue 0 (constant fields are in the operator
    kernel).  A box of more than MAX_MODES modes, or reaching |nu| delta
    above MAX_PHASE, raises InvalidParams before any series is summed.
    """
    modes, nu, _, lam1, lam2 = _box_spectrum(params, material, torus, k_max)
    return SpectrumTable(modes, nu, lam1, lam2)


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
    x = _point(x, n)
    if which not in ("parallel", "transverse"):
        raise InvalidParams(f"which must be 'parallel' or 'transverse', got {which!r}")
    nu_k = frequency_vector(kv, torus)
    if all(ki == 0 for ki in kv):
        if which != "parallel":
            raise ZeroMode("the k = 0 mode has no transverse eigenfields")
        e1 = np.zeros(n, dtype=complex)
        e1[0] = 1.0
        return e1
    phase = np.exp(1j * float(_phase(nu_k, x)))
    if which == "parallel":
        return phase * nu_k.astype(complex)
    if not 2 <= j <= n:
        raise InvalidParams(f"transverse index j must be in [2, {n}], got {j}")
    basis = orthonormal_basis(nu_k)
    return phase * basis[j - 1].astype(complex)


def _validated(dim, keys, values):
    """(m, dim) int64 modes and finite complex coefficients, read-only.

    The one check behind every FourierField, made on whole arrays: keys
    must be integer mode tuples (or integers when dim = 1) with entries
    within +-_MODE_BOUND, coefficients finite vectors of dim entries.
    Only a failed key or shape check scans the keys, to name the first bad
    mode.
    """
    m = len(keys)
    k = None
    try:
        k = np.reshape(keys, (m, dim))
        c = np.reshape(np.asarray(values, dtype=complex), (m, dim))
    except ValueError:     # ragged, or not dim entries per mode
        c = None
    if c is None or (m and (k.dtype.kind not in "iu"
                            or k.max() > _MODE_BOUND
                            or k.min() < -_MODE_BOUND)):
        for key, val in zip(keys, values):
            key, size = _mode_key(key), np.size(val)
            if len(key) != dim or size != dim:
                raise InvalidParams(f"mode {key} / coefficient of size "
                                    f"{size} do not match dim = {dim}")
        what = "coefficients" if k is not None and c is None else "mode keys"
        raise InvalidParams(f"{what} do not form an (m, {dim}) array")
    finite = np.isfinite(c).all(axis=1)
    if not finite.all():
        bad = tuple(k[np.argmin(finite)].tolist())
        raise InvalidParams(f"coefficient of mode {bad} is not finite")
    k = k.astype(np.int64, copy=False)    # an int64 input's modes are shared
    k.flags.writeable = c.flags.writeable = False
    return k, c


def _conjugate_rows(k):
    """Row index of -k for every row k of a mode array; -1 where absent.

    The rows of k are distinct, so a row of [k; -k] equals at most one
    other: a stable sort puts that row of k just before its match in -k.
    """
    m = len(k)
    both = np.concatenate([k, -k])
    order = np.lexsort(both.T[::-1])
    rows = both[order]
    match = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
    index = np.full(m, -1)
    index[order[match + 1] - m] = order[match]
    return index


class FourierField:
    """Truncated Fourier series of a vector field on the torus.

    Held as an (m, dim) int64 array of modes k and an (m, dim) complex
    array of their finite coefficients, read-only and checked by one
    validator however the field is built.  ``coeffs``, built on first
    access, is a read-only mapping from mode tuples of Python ints to
    coefficient rows, in mode order.  Real fields satisfy coeff(-k) =
    conj(coeff(k)); :meth:`from_half_spectrum` builds one from half the
    modes.
    """

    _coeffs = None

    def __init__(self, dim, coeffs):
        self.dim = dim
        self._k, self._c = _validated(dim, list(coeffs), list(coeffs.values()))

    @classmethod
    def _of(cls, dim, modes, values):
        field = cls.__new__(cls)
        field.dim = dim
        field._k, field._c = _validated(dim, modes, values)
        return field

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = MappingProxyType(
                dict(zip(map(tuple, self._k.tolist()), self._c)))
        return self._coeffs

    @classmethod
    def from_half_spectrum(cls, dim, half):
        """Build a real (conjugate-symmetric) field from one half-spectrum.

        Every given mode k is followed by -k with the conjugate
        coefficient; a k = 0 entry is forced real.  A half-spectrum that
        holds both k and -k (k != 0) raises InvalidParams naming both.
        """
        k, c = _validated(dim, list(half), list(half.values()))
        pair, zero = _conjugate_rows(k), ~k.any(axis=1)
        both = np.flatnonzero((pair >= 0) & ~zero)
        if both.size:
            i, j = both[0], pair[both[0]]
            raise InvalidParams(
                f"half-spectrum holds both mode {tuple(k[i].tolist())} and "
                f"its conjugate {tuple(k[j].tolist())}")
        keep = np.repeat(~zero, 2)
        keep[::2] = True       # every k; -k unless k = 0
        c = np.where(zero[:, None], c.real, c)
        return cls._of(dim, np.hstack([k, -k]).reshape(-1, dim)[keep],
                       np.hstack([c, c.conj()]).reshape(-1, dim)[keep])

    def conjugate_asymmetry(self):
        """Max deviation from coeff(-k) = conj(coeff(k)) over all modes."""
        pair = _conjugate_rows(self._k)
        other = np.where((pair >= 0)[:, None], self._c[pair], 0.0)
        return float(np.max(np.abs(self._c.conj() - other), initial=0.0))

    def evaluate(self, torus, x):
        """Pointwise value sum_k coeff(k) exp(i nu_k . x)."""
        if torus.dim != self.dim:
            raise InvalidParams(
                f"torus dimension {torus.dim} does not match dim = {self.dim}")
        phase = _phase(_lattice(self._k, torus), _point(x, self.dim))
        return np.exp(1j * phase) @ self._c


def _modes(field, params, material, torus):
    """Unit frequencies and eigenvalues of a field's modes, in mode order.

    In one dimension lambda2 (multiplicity 0) is replaced by lambda1, so
    only lambda1 enters the rank-one forms below.  Unit frequencies are 0
    at k = 0.
    """
    _check_torus(params, torus)
    if field.dim != params.n:
        raise InvalidParams("field dimension does not match n")
    nu, _, lam1, lam2 = _spectrum(params, material, torus, field._k)
    if params.n == 1:
        lam2 = lam1
    norm = np.linalg.norm(nu, axis=1, keepdims=True)
    unit = np.divide(nu, norm, out=np.zeros_like(nu), where=norm > 0)
    return unit, lam1, lam2


def _rank_one(unit, coeffs, along, across):
    """Rows of across c + (along - across) nu_hat (nu_hat . c), one array.

    The map of f(M) c from the eigenvalue functions ``along`` = f(lambda1)
    and ``across`` = f(lambda2).  Each block of rows is written into the
    one output array, so the temporaries are a block's; every row keeps
    the whole-row sum and operation order of the expression.
    """
    out = np.empty_like(coeffs)
    for i in range(0, len(coeffs), _BLOCK):
        rows = slice(i, i + _BLOCK)
        u, c = unit[rows], coeffs[rows]
        proj = np.sum(u * c, axis=1, keepdims=True)
        out[rows] = (across[rows, None] * c
                     + (along[rows] - across[rows])[:, None] * u * proj)
    return out


def apply_operator(field, params, material, torus):
    """Apply the operator coefficient-wise: out(k) = M(nu_k) in(k).

    Uses the rank-one form M c = lambda2 c + (lambda1 - lambda2) nu_hat
    (nu_hat . c) with eigenvalues from one batched evaluation.  Exact on the
    truncated series; preserves conjugate symmetry since the multiplier
    matrices are real.
    """
    unit, lam1, lam2 = _modes(field, params, material, torus)
    return FourierField._of(field.dim, field._k,
                            _rank_one(unit, field._c, lam1, lam2))


def solve_periodic(rhs, params, material, torus):
    """Solve M(nu_k) u(k) = rhs(k) mode by mode.

    Uses the Sherman-Morrison form u = c / lambda2 + (1/lambda1 -
    1/lambda2) nu_hat (nu_hat . c); in one dimension u = c / lambda1.
    The zero mode must vanish (M(0) = 0 is singular); constant fields stay
    in the kernel, so u(0) = 0.  Raises DegenerateEigenvalue, naming the
    first such mode in coefficient order, if any eigenvalue in range is
    numerically zero.
    """
    unit, lam1, lam2 = _modes(rhs, params, material, torus)
    nonzero = unit.any(axis=1)
    if np.any(rhs._c[~nonzero] != 0):
        raise SingularMode(
            "rhs has a nonzero mean; the zero mode is not solvable")
    small = nonzero & ((np.abs(lam1) < _EIGENVALUE_FLOOR)
                       | (np.abs(lam2) < _EIGENVALUE_FLOOR))
    if small.any():
        raise DegenerateEigenvalue(
            f"eigenvalue at mode {tuple(rhs._k[np.argmax(small)].tolist())} "
            f"is below {_EIGENVALUE_FLOOR}")
    inv1 = np.divide(1.0, lam1, out=np.zeros_like(lam1), where=nonzero)
    inv2 = np.divide(1.0, lam2, out=np.zeros_like(lam2), where=nonzero)
    out = _rank_one(unit, rhs._c, inv1, inv2)
    out[~nonzero] = 0.0
    return FourierField._of(rhs.dim, rhs._k, out)
