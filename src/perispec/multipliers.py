"""Closed-form Fourier multipliers of the linear peridynamic operator.

For an isotropic, homogeneous medium the operator splits into a bond part
(single integral with a w (x) w kernel) and a state part (double integral
carrying the (lambda* - mu) dependence).  Acting on plane waves, each part
becomes multiplication by a symmetric n x n matrix:

    M(nu) = M_b(nu) + M_s(nu)
          = alpha_b1(nu) I + (alpha_b2(nu) + alpha_s(nu)) nu (x) nu,

and every coefficient is a generalized hypergeometric function of
z = -(|nu| delta / 2)^2.  The matrix has eigenvalue lambda1 along nu and
lambda2 (multiplicity n - 1) transverse to it.  As delta -> 0, or as the
kernel exponent beta -> n + 2, M converges to the multiplier of the Navier
operator of classical linear elasticity.

Five distinct series carry every quantity.  One evaluator, ``_closed``,
serves every scalar, array, figure and torus request: a request names the
(material, quantity) pairs it wants, and ``_closed`` sums each series
they need once and applies one formula per pair, with ``pfq`` at a
single frequency, or with one ``pfq_batch`` pass over the shells (the
distinct |nu|^2) of every array request of the call, such as the panels
of a figure grid.  ``closed_bundle``, the twin of
``oracle.quadrature_bundle``, returns every quantity at one frequency.

Every closed-form |nu|^2 passes one gate, at the entrance of ``_closed``,
before any series is summed: a |nu|^2 that is not finite, or a |nu| delta
past MAX_PHASE, the series' stated reach, raises InvalidParams.
``_frequencies`` checks the shape of a frequency array and forms its
|nu|^2; ``gradient_factor``, which takes |nu| itself, checks its own.

All functions are pure; frequency vectors are treated through |nu| and
nu (x) nu only, so M(-nu) = M(nu) holds exactly.  A coefficient, matrix
entry or eigenvalue that overflows a double (a finite but huge mu or
lambda*) raises NonConvergent instead of being returned as inf or NaN.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, NonConvergent
from .hypergeom import DEFAULT_REL_TOL, PfqParams, pfq, pfq_batch

__all__ = [
    "NonlocalParams", "Material", "TensorMultiplier", "EigenDecomposition",
    "scaling_constant", "scalar_multiplier", "scalar_multiplier_gradient",
    "gradient_factor", "tensor_multiplier_bond", "tensor_multiplier_state",
    "tensor_multiplier", "closed_bundle", "navier_multiplier",
    "navier_eigenvalues",
    "eigenvalue_parallel", "eigenvalue_parallel_split",
    "eigenvalue_transverse", "eigenvalues", "eigenvalues_by_material",
    "eigenvalues_many",
    "orthonormal_basis", "eigen_decomposition",
]


@dataclass(frozen=True)
class NonlocalParams:
    """Nonlocality parameters: dimension n, horizon delta, kernel exponent beta.

    beta < n + 2 is required so the defining kernel integrals are finite;
    the boundary value beta = n + 2 is reachable only as the analytic limit
    (the Navier multiplier).  All quantities are dimensionless.
    """

    n: int
    delta: float
    beta: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise InvalidParams(f"dimension n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "beta", float(self.beta))
        if not (math.isfinite(self.delta) and math.isfinite(self.beta)):
            raise InvalidParams(
                f"delta and beta must be finite, got {self.delta}, {self.beta}")
        if not self.delta > 0:
            raise InvalidParams(f"horizon delta must be > 0, got {self.delta}")
        if not self.beta < self.n + 2:
            raise InvalidParams(
                f"kernel exponent beta must satisfy beta < n + 2, got "
                f"beta = {self.beta} with n = {self.n}")


@dataclass(frozen=True)
class Material:
    """Lame parameters: shear modulus mu > 0 and second parameter lambda*.

    ``navier_stable`` records whether lambda* >= -2 mu, the range where the
    local Navier operator is stable; sign properties of the eigenvalues are
    only guaranteed there.
    """

    mu: float
    lambda_star: float
    navier_stable: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "lambda_star", float(self.lambda_star))
        if not (math.isfinite(self.mu) and math.isfinite(self.lambda_star)):
            raise InvalidParams(
                f"mu and lambda* must be finite, got {self.mu}, {self.lambda_star}")
        if not self.mu > 0:
            raise InvalidParams(f"shear modulus mu must be > 0, got {self.mu}")
        object.__setattr__(self, "navier_stable",
                           self.lambda_star >= -2.0 * self.mu)


@dataclass(frozen=True)
class TensorMultiplier:
    """Symmetric multiplier matrix with its coefficient decomposition.

    matrix = alpha_b1 * I + (alpha_b2 + alpha_s) * nu (x) nu, where
    alpha_b1 and alpha_b2 come from the bond part and alpha_s from the
    state part.
    """

    matrix: np.ndarray
    alpha_b1: float
    alpha_b2: float
    alpha_s: float


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and orthonormal eigenbasis of a tensor multiplier.

    ``basis[0]`` is nu/|nu| with eigenvalue lambda1; rows 1..n-1 span the
    transverse space with eigenvalue lambda2 (multiplicity n - 1).  For
    nu = 0 the basis is the standard one and both eigenvalues are 0.
    """

    lambda1: float
    lambda2: float
    basis: np.ndarray


#: Largest |nu| delta the closed forms evaluate: the series are stated to
#: reach z = -(|nu| delta / 2)^2 = -1e7.  Every closed-form entry point
#: rejects a larger phase before any series is summed (``spectrum --n 1
#: --delta 0.5 --k-max 124999`` would reach z ~ -1e9 and run for minutes).
MAX_PHASE = 2.0 * math.sqrt(1e7)


def _check_phase(delta, nu_norm):
    """Raise InvalidParams unless |nu| <= MAX_PHASE / delta (or if NaN).

    The one reach check; |nu| = MAX_PHASE / delta passes at every delta."""
    if not nu_norm <= MAX_PHASE / delta:
        raise InvalidParams(
            f"|nu| delta reaches {nu_norm * delta:.6g}, above the series' "
            f"reach MAX_PHASE = {MAX_PHASE:.6g} "
            f"(z = -(|nu| delta / 2)^2 = -1e7)")


def _frequencies(params, nu, single=False):
    """(rows, |nu|^2 of each row) of an (m, n) frequency array.

    With ``single``, nu is one vector (a number when n = 1), taken as
    m = 1.  A wrong shape raises InvalidParams; |nu|^2 is checked where
    it is used, by ``_closed``.  The rows are made C-ordered first: the
    batched matmul rounds strided rows differently, and on C-ordered rows
    it rounds each row exactly like v @ v.
    """
    rows = np.asarray(nu, dtype=float)
    if single:   # one vector is one row; a 2-D nu gets 3-D and fails below
        rows = np.atleast_1d(rows)[None]
    if rows.ndim != 2 or rows.shape[1] != params.n:
        want = (f"one vector of length n = {params.n}" if single
                else f"an (m, {params.n}) array")
        raise InvalidParams(
            f"frequencies must be {want}, got shape {np.shape(nu)}")
    rows = np.ascontiguousarray(rows)
    with np.errstate(over="ignore"):   # _closed reports an overflow
        return rows, np.matmul(rows[:, None, :], rows[:, :, None]).reshape(-1)


def _finite_norms2(nn2):
    """|nu|^2 (a float or an array), checked: a frequency that is not
    finite, or whose |nu|^2 overflows, raises InvalidParams."""
    if not np.isfinite(nn2).all():
        raise InvalidParams("|nu|^2 overflows a double or is not finite")
    return nn2


def _finite(value, what):
    """``value``, checked to hold only finite numbers.

    A huge finite material (mu or lambda* near 1e308) can overflow a
    product of finite factors; that is reported instead of returned.
    """
    if not np.isfinite(value).all():
        raise NonConvergent(f"{what} overflows a double")
    return value


def _series(params):
    """(a, b) of the five series, h = (n+2-beta)/2; ``_FORMULAS`` uses them."""
    n = params.n
    h = (n + 2 - params.beta) / 2.0
    return {"m": ((1.0, h), (2.0, n / 2.0 + 1.0, h + 1.0)),
            "g": ((h,), (n / 2.0 + 1.0, h + 1.0)),
            "b1": ((1.0, h), (2.0, n / 2.0 + 2.0, h + 1.0)),
            "b2": ((h,), (n / 2.0 + 2.0, h + 1.0)),
            "merged": ((1.0, 2.5, h), (2.0, 1.5, n / 2.0 + 2.0, h + 1.0))}


#: Every closed quantity as (the series it needs, its formula), in the
#: order ``closed_bundle`` unpacks them.  A formula takes the material,
#: |nu|^2 formed as v @ v, |nu| and the series values, and runs unchanged
#: on floats or on arrays of shells.  alpha_b1 squares |nu| instead of
#: using |nu|^2: the two can differ in the last bit.
_FORMULAS = {
    "scalar": (("m",), lambda mat, nn2, nn, f: -nn2 * f["m"]),
    "alpha_b1": (("b1",), lambda mat, nn2, nn, f: -mat.mu * nn**2 * f["b1"]),
    "alpha_b2": (("b2",), lambda mat, nn2, nn, f: -2.0 * mat.mu * f["b2"]),
    "alpha_s": (("g",), lambda mat, nn2, nn, f:
                -(mat.lambda_star - mat.mu) * f["g"] * f["g"]),
    "lambda1": (("merged", "g"), lambda mat, nn2, nn, f: -nn2 * (
        3.0 * mat.mu * f["merged"]
        + (mat.lambda_star - mat.mu) * f["g"] * f["g"])),
    "lambda2": (("b1",), lambda mat, nn2, nn, f: -mat.mu * nn2 * f["b1"]),
}

_COEFFICIENTS = ("alpha_b1", "alpha_b2", "alpha_s")


def _sums(requests, tol):
    """{key: value} of each series a (params, |nu|, keys) request names.

    |nu| is a float or an array of shells, the same kind in every request.
    Floats are summed with ``pfq``; arrays go to one ``pfq_batch`` call for
    every series of every request, since a one-entry array would cost ~20
    times a scalar call and each array call pays per-term numpy overhead.
    Every |nu| has passed the reach check, so every z is finite.
    """
    calls = []
    for params, nn, keys in requests:
        z = -0.25 * nn * nn * params.delta * params.delta
        series = _series(params)
        calls += [(PfqParams(*series[key]), z) for key in keys]
    if not calls:   # no series wanted, as for alpha_s at lambda* = mu
        return [{} for _ in requests]
    if isinstance(calls[0][1], float):
        values = iter([pfq(p, z, tol).value for p, z in calls])
    else:
        values = iter(pfq_batch(calls, tol))
    return [{key: next(values) for key in keys} for _, _, keys in requests]


def _closed(requests, tol=DEFAULT_REL_TOL):
    """One value per (material, name) want of each (params, |nu|^2, wants).

    The one entrance to the closed forms.  |nu|^2 is a nonzero float or
    an array, the same kind in every request.  Every request's |nu|^2 is
    checked before any shell is found or series summed: one that is not
    finite, or a |nu| delta past MAX_PHASE, raises InvalidParams.  An
    array's series are summed on its shells, the distinct |nu|^2, the
    series of all requests in one pass; each want is formed on the shells
    and scattered back before the next is formed.  Returns per request a
    list of values in the order of its wants.  Where an array holds
    |nu|^2 = 0 every value is an exact 0 (the continuity limit).
    """
    for params, nn2, _ in requests:
        _check_phase(params.delta,
                     math.sqrt(np.max(_finite_norms2(nn2), initial=0.0)))
    shells = [(nn2, None) if isinstance(nn2, float)
              else np.unique(nn2, return_inverse=True)
              for _, nn2, _ in requests]
    # per request: params, |nu| of its shells and the series its wants need
    calls = [(params, math.sqrt(nn2) if inverse is None else np.sqrt(nn2),
              dict.fromkeys(k for _, q in wants for k in _FORMULAS[q][0]))
             for (params, _, wants), (nn2, inverse) in zip(requests, shells)]
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for (_, _, wants), (nn2, inverse), (_, nn, _), f in zip(
                requests, shells, calls, _sums(calls, tol)):
            values = []
            for material, name in wants:
                x = _FORMULAS[name][1](material, nn2, nn, f)
                if inverse is not None:
                    x = np.where(nn2 == 0.0, 0.0, x)[inverse]
                values.append(_finite(x, name))
            out.append(values)
    return out


def _at(params, material, nu, names, tol):
    """(v, |nu|^2, value of each of ``names``) at one frequency vector nu.

    At nu = 0 every quantity is an exact 0 (the continuity limit) and no
    series is summed.
    """
    rows, nn2 = _frequencies(params, nu, single=True)
    v, nn2 = rows[0], float(nn2[0])
    if nn2 == 0.0:
        return (v, nn2, *[0.0] * len(names))
    return (v, nn2, *_closed(
        [(params, nn2, [(material, name) for name in names])], tol)[0])


def _bond_matrix(v, diag, rank1, what):
    """diag I + rank1 nu (x) nu."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(diag * np.eye(v.size) + rank1 * np.outer(v, v), what)


def _state_matrix(material, v, nn2, a_s):
    """alpha_s nu (x) nu, with exact +0.0 entries at nu = 0 or lambda* = mu."""
    if nn2 == 0.0 or material.lambda_star == material.mu:
        # a -0.0 in alpha_s or v would carry its sign into the product
        return np.zeros((v.size, v.size))
    with np.errstate(over="ignore"):
        return _finite(a_s * np.outer(v, v), "state multiplier")


def scaling_constant(params):
    """Kernel normalization c = 2 (n+2-beta) Gamma(n/2+1) / (pi^{n/2} delta^{n+2-beta}).

    Normalized so the second moment of the kernel over the horizon ball
    matches that of the classical operator; always positive for beta < n+2.
    Raises NonConvergent when c does not fit a double.
    """
    n, beta = params.n, params.beta
    try:
        c = (2.0 * (n + 2 - beta) * math.gamma(n / 2.0 + 1.0)
             / (math.pi ** (n / 2.0) * params.delta ** (n + 2 - beta)))
    except (OverflowError, ZeroDivisionError):
        c = math.inf
    if not 0.0 < c < math.inf:
        raise NonConvergent(
            f"scaling constant at n = {n}, delta = {params.delta}, "
            f"beta = {beta} does not fit a double")
    return c


def scalar_multiplier(params, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Multiplier of the nonlocal Laplacian at frequency nu.

    m(nu) = -|nu|^2 2F3(1, h; 2, n/2+1, h+1; z) with h = (n+2-beta)/2 and
    z = -(|nu| delta / 2)^2.  Nonpositive for all nu.
    """
    return _at(params, None, nu, ("scalar",), target_rel_tol)[2]


def gradient_factor(params, nu_norm, target_rel_tol=DEFAULT_REL_TOL):
    """Scalar g(|nu|) with grad m(nu) = -2 g(|nu|) nu.

    g = 1F2(h; n/2+1, h+1; z); it also equals half the coefficient of the
    sine transform of the kernel, which is why it enters the state part
    squared.
    """
    nu_norm = float(nu_norm)
    _finite_norms2(nu_norm * nu_norm)
    _check_phase(params.delta, abs(nu_norm))
    return _sums([(params, nu_norm, ("g",))], target_rel_tol)[0]["g"]


def scalar_multiplier_gradient(params, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Gradient of the scalar multiplier, -2 g(|nu|) nu."""
    rows, nn2 = _frequencies(params, nu, single=True)
    return -2.0 * gradient_factor(params, math.sqrt(nn2[0]),
                                  target_rel_tol) * rows[0]


def tensor_multiplier_bond(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Bond-part multiplier M_b(nu) = alpha_b1 I + alpha_b2 nu (x) nu.

    alpha_b1 = -mu |nu|^2 2F3(1, h; 2, n/2+2, h+1; z) and
    alpha_b2 = -2 mu 1F2(h; n/2+2, h+1; z).  Its trace equals
    (n+2) mu m(nu).  Eigenvalues: alpha_b1 + alpha_b2 |nu|^2 along nu,
    alpha_b1 transverse.
    """
    v, _, a_b1, a_b2 = _at(params, material, nu, ("alpha_b1", "alpha_b2"),
                           target_rel_tol)
    return TensorMultiplier(_bond_matrix(v, a_b1, a_b2, "bond multiplier"),
                            a_b1, a_b2, 0.0)


def tensor_multiplier_state(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """State-part multiplier M_s(nu) = alpha_s nu (x) nu (rank <= 1).

    alpha_s = -(lambda* - mu) [1F2(h; n/2+1, h+1; z)]^2; vanishes when
    lambda* = mu.
    """
    names = () if material.lambda_star == material.mu else ("alpha_s",)
    v, nn2, *a_s = _at(params, material, nu, names, target_rel_tol)
    a_s = a_s[0] if a_s else 0.0
    return TensorMultiplier(_state_matrix(material, v, nn2, a_s),
                            0.0, 0.0, a_s)


def tensor_multiplier(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Full multiplier M(nu) = M_b(nu) + M_s(nu) with all coefficients."""
    v, _, a_b1, a_b2, a_s = _at(params, material, nu, _COEFFICIENTS,
                                target_rel_tol)
    return TensorMultiplier(_bond_matrix(v, a_b1, a_b2 + a_s, "multiplier"),
                            a_b1, a_b2, a_s)


def closed_bundle(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Every closed-form quantity at frequency nu from one pass.

    The twin of :func:`oracle.quadrature_bundle`, with its keys: scalar
    (m), bond (M_b matrix), state (M_s matrix), lambda1 and lambda2.  Each
    of the five distinct series is summed once, and every value is
    bit-identical to its single-quantity function.  At nu = 0 every entry
    is an exact zero.
    """
    v, nn2, m, a_b1, a_b2, a_s, lam1, lam2 = _at(
        params, material, nu, _FORMULAS, target_rel_tol)
    return {"scalar": m,
            "bond": _bond_matrix(v, a_b1, a_b2, "bond multiplier"),
            "state": _state_matrix(material, v, nn2, a_s),
            "lambda1": lam1, "lambda2": lam2}


def navier_multiplier(material, nu):
    """Multiplier of the Navier operator: -(lambda*+mu) nu (x) nu - mu |nu|^2 I."""
    v = np.atleast_1d(np.asarray(nu, dtype=float))
    with np.errstate(over="ignore"):
        nn2 = _finite_norms2(float(v @ v))
    return (-(material.lambda_star + material.mu) * np.outer(v, v)
            - material.mu * nn2 * np.eye(v.size))


def navier_eigenvalues(material, nu_norm):
    """Eigenvalues of the Navier multiplier: (-(lambda*+2mu)|nu|^2, -mu|nu|^2)."""
    nu_norm = float(nu_norm)
    nn2 = _finite_norms2(nu_norm * nu_norm)
    return (-(material.lambda_star + 2.0 * material.mu) * nn2,
            -material.mu * nn2)


def eigenvalue_parallel(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Eigenvalue of M(nu) along nu.

    Computed from the merged two-term form

        lambda1 = -|nu|^2 [ 3 mu 3F4(1, 5/2, h; 2, 3/2, n/2+2, h+1; z)
                            + (lambda* - mu) g(|nu|)^2 ],

    which needs one fewer series than summing the coefficient
    decomposition directly (see ``eigenvalue_parallel_split``).
    Returns 0 for nu = 0 (continuity limit).
    """
    return _at(params, material, nu, ("lambda1",), target_rel_tol)[2]


def eigenvalue_parallel_split(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Parallel eigenvalue from the three-term coefficient form.

    lambda1 = alpha_b1 + (alpha_b2 + alpha_s) |nu|^2.  Kept as an
    independent formula path; must agree with ``eigenvalue_parallel`` to
    full working accuracy.
    """
    _, nn2, a_b1, a_b2, a_s = _at(params, material, nu, _COEFFICIENTS,
                                  target_rel_tol)
    return _finite(a_b1 + (a_b2 + a_s) * nn2, "lambda1")


def eigenvalue_transverse(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Eigenvalue of M(nu) on the space orthogonal to nu (multiplicity n-1).

    lambda2 = -mu |nu|^2 2F3(1, h; 2, n/2+2, h+1; z); independent of
    lambda*.  Returns 0 for nu = 0.
    """
    return _at(params, material, nu, ("lambda2",), target_rel_tol)[2]


def eigenvalues_many(requests, target_rel_tol=DEFAULT_REL_TOL):
    """``eigenvalues_by_material`` for each (params, materials, nu) request.

    nu is an (m, n) array of frequencies for that request's params.  Every
    request's shape is checked before any |nu|^2 is gated.  The series do
    not depend on the material, so each request's are evaluated once per
    distinct |nu|^2 for all its materials, and the series of all requests
    in one array pass.  Returns, per request, a list of (lambda1, lambda2)
    array pairs in the order of its materials; every value equals that of
    the request evaluated alone.
    """
    values = _closed([(params, _frequencies(params, nu)[1], [
        (m, name) for m in materials for name in ("lambda1", "lambda2")])
        for params, materials, nu in requests], target_rel_tol)
    return [list(zip(lams[::2], lams[1::2])) for lams in values]


def eigenvalues_by_material(params, materials, nu, target_rel_tol=DEFAULT_REL_TOL):
    """``eigenvalues`` for several materials at once, one pair per material.

    The one-request case of ``eigenvalues_many``.  Returns a list of
    (lambda1, lambda2) array pairs, in the order of ``materials``.
    """
    return eigenvalues_many([(params, materials, nu)], target_rel_tol)[0]


def eigenvalues(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Both eigenvalues for every row of an (m, n) array of frequencies.

    Returns arrays (lambda1, lambda2) of length m, each entry equal to
    ``eigenvalue_parallel`` / ``eigenvalue_transverse`` at that row.  The
    series are summed once per distinct |nu|^2; rows with nu = 0 give 0.
    """
    return eigenvalues_by_material(params, (material,), nu, target_rel_tol)[0]


def orthonormal_basis(nu):
    """Deterministic orthonormal basis led by nu/|nu|.

    For nu = 0 returns the identity.  Otherwise the transverse directions
    come from the standard basis vectors, excluding the axis of the
    largest |nu_i| (smallest index on ties), orthogonalized in index order
    against nu/|nu| by Gram-Schmidt.  A nu that is not finite, or whose
    |nu|^2 overflows, raises InvalidParams.
    """
    v = np.atleast_1d(np.asarray(nu, dtype=float))
    n = v.size
    with np.errstate(over="ignore"):
        nn = math.sqrt(_finite_norms2(float(v @ v)))
    if nn == 0.0:
        return np.eye(n)
    rows = [v / nn]
    skip = int(np.argmax(np.abs(v)))
    for j in range(n):
        if j == skip:
            continue
        w = np.zeros(n)
        w[j] = 1.0
        for _ in range(2):  # two passes keep orthogonality at ~1e-16
            for u in rows:
                w = w - (u @ w) * u
        rows.append(w / np.linalg.norm(w))
    return np.array(rows)


def eigen_decomposition(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Eigenvalues and deterministic eigenbasis of M(nu).

    basis[0] = nu/|nu| carries lambda1; the remaining rows carry lambda2.
    For nu = 0 both eigenvalues are 0 and the basis is the standard one.
    For n = 1 there is no transverse space; lambda2 is reported as the
    formula value with multiplicity 0.
    """
    v, _, lam1, lam2 = _at(params, material, nu, ("lambda1", "lambda2"),
                           target_rel_tol)
    return EigenDecomposition(lam1, lam2, orthonormal_basis(v))
