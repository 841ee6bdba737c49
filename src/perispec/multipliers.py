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

All functions are pure; frequency vectors are treated through |nu| and
nu (x) nu only, so M(-nu) = M(nu) holds exactly.  A coefficient, matrix
entry or eigenvalue that overflows a double (a finite but huge mu or
lambda*) raises NonConvergent instead of being returned as inf or NaN.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, NonConvergent
from .hypergeom import DEFAULT_REL_TOL, PfqParams, pfq, pfq_many

__all__ = [
    "NonlocalParams", "Material", "TensorMultiplier", "EigenDecomposition",
    "scaling_constant", "scalar_multiplier", "scalar_multiplier_gradient",
    "gradient_factor", "tensor_multiplier_bond", "tensor_multiplier_state",
    "tensor_multiplier", "navier_multiplier", "navier_eigenvalues",
    "eigenvalue_parallel", "eigenvalue_parallel_split",
    "eigenvalue_transverse", "eigenvalues", "eigenvalues_by_material",
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


def _as_frequency(params, nu):
    v = np.atleast_1d(np.asarray(nu, dtype=float))
    if v.ndim != 1 or v.size != params.n:
        raise InvalidParams(
            f"frequency vector has length {v.size}, expected n = {params.n}")
    return v


def _F(a, b, z, tol):
    return pfq(PfqParams(a, b), z, tol).value


def _finite(value, what):
    """``value``, checked to hold only finite numbers.

    A huge finite material (mu or lambda* near 1e308) can overflow a
    product of finite factors; that is reported instead of returned.
    """
    if not np.isfinite(value).all():
        raise NonConvergent(f"{what} overflows a double")
    return value


def _z_of(params, nu_norm):
    return -0.25 * nu_norm * nu_norm * params.delta * params.delta


def scaling_constant(params):
    """Kernel normalization c = 2 (n+2-beta) Gamma(n/2+1) / (pi^{n/2} delta^{n+2-beta}).

    Normalized so the second moment of the kernel over the horizon ball
    matches that of the classical operator; always positive for beta < n+2.
    """
    n, beta = params.n, params.beta
    return (2.0 * (n + 2 - beta) * math.gamma(n / 2.0 + 1.0)
            / (math.pi ** (n / 2.0) * params.delta ** (n + 2 - beta)))


def scalar_multiplier(params, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Multiplier of the nonlocal Laplacian at frequency nu.

    m(nu) = -|nu|^2 2F3(1, h; 2, n/2+1, h+1; z) with h = (n+2-beta)/2 and
    z = -(|nu| delta / 2)^2.  Nonpositive for all nu.
    """
    v = _as_frequency(params, nu)
    nn2 = float(v @ v)
    if nn2 == 0.0:
        return 0.0
    n = params.n
    h = (n + 2 - params.beta) / 2.0
    z = _z_of(params, math.sqrt(nn2))
    return -nn2 * _F((1.0, h), (2.0, n / 2.0 + 1.0, h + 1.0), z, target_rel_tol)


def gradient_factor(params, nu_norm, target_rel_tol=DEFAULT_REL_TOL):
    """Scalar g(|nu|) with grad m(nu) = -2 g(|nu|) nu.

    g = 1F2(h; n/2+1, h+1; z); it also equals half the coefficient of the
    sine transform of the kernel, which is why it enters the state part
    squared.
    """
    n = params.n
    h = (n + 2 - params.beta) / 2.0
    z = _z_of(params, float(nu_norm))
    return _F((h,), (n / 2.0 + 1.0, h + 1.0), z, target_rel_tol)


def scalar_multiplier_gradient(params, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Gradient of the scalar multiplier, -2 g(|nu|) nu."""
    v = _as_frequency(params, nu)
    nn = float(np.linalg.norm(v))
    return -2.0 * gradient_factor(params, nn, target_rel_tol) * v


def _bond_coefficients(params, material, nu_norm, tol):
    """(alpha_b1, alpha_b2) at |nu| = nu_norm > 0."""
    n = params.n
    h = (n + 2 - params.beta) / 2.0
    z = _z_of(params, nu_norm)
    a_b1 = -material.mu * nu_norm**2 * _F(
        (1.0, h), (2.0, n / 2.0 + 2.0, h + 1.0), z, tol)
    a_b2 = -2.0 * material.mu * _F(
        (h,), (n / 2.0 + 2.0, h + 1.0), z, tol)
    return _finite(a_b1, "alpha_b1"), _finite(a_b2, "alpha_b2")


def _state_coefficient(params, material, nu_norm, tol):
    """alpha_s at |nu| = nu_norm > 0."""
    g = gradient_factor(params, nu_norm, tol)
    return _finite(-(material.lambda_star - material.mu) * g * g, "alpha_s")


def tensor_multiplier_bond(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Bond-part multiplier M_b(nu) = alpha_b1 I + alpha_b2 nu (x) nu.

    alpha_b1 = -mu |nu|^2 2F3(1, h; 2, n/2+2, h+1; z) and
    alpha_b2 = -2 mu 1F2(h; n/2+2, h+1; z).  Its trace equals
    (n+2) mu m(nu).  Eigenvalues: alpha_b1 + alpha_b2 |nu|^2 along nu,
    alpha_b1 transverse.
    """
    v = _as_frequency(params, nu)
    nn = float(np.linalg.norm(v))
    if nn == 0.0:
        return TensorMultiplier(np.zeros((params.n, params.n)), 0.0, 0.0, 0.0)
    a_b1, a_b2 = _bond_coefficients(params, material, nn, target_rel_tol)
    with np.errstate(over="ignore"):
        mat = a_b1 * np.eye(params.n) + a_b2 * np.outer(v, v)
    return TensorMultiplier(_finite(mat, "bond multiplier"), a_b1, a_b2, 0.0)


def tensor_multiplier_state(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """State-part multiplier M_s(nu) = alpha_s nu (x) nu (rank <= 1).

    alpha_s = -(lambda* - mu) [1F2(h; n/2+1, h+1; z)]^2; vanishes when
    lambda* = mu.
    """
    v = _as_frequency(params, nu)
    nn = float(np.linalg.norm(v))
    if nn == 0.0 or material.lambda_star == material.mu:
        return TensorMultiplier(np.zeros((params.n, params.n)), 0.0, 0.0, 0.0)
    a_s = _state_coefficient(params, material, nn, target_rel_tol)
    with np.errstate(over="ignore"):
        mat = a_s * np.outer(v, v)
    return TensorMultiplier(_finite(mat, "state multiplier"), 0.0, 0.0, a_s)


def tensor_multiplier(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Full multiplier M(nu) = M_b(nu) + M_s(nu) with all coefficients."""
    v = _as_frequency(params, nu)
    nn = float(np.linalg.norm(v))
    if nn == 0.0:
        return TensorMultiplier(np.zeros((params.n, params.n)), 0.0, 0.0, 0.0)
    a_b1, a_b2 = _bond_coefficients(params, material, nn, target_rel_tol)
    a_s = _state_coefficient(params, material, nn, target_rel_tol)
    with np.errstate(over="ignore", invalid="ignore"):
        mat = a_b1 * np.eye(params.n) + (a_b2 + a_s) * np.outer(v, v)
    return TensorMultiplier(_finite(mat, "multiplier"), a_b1, a_b2, a_s)


def navier_multiplier(material, nu):
    """Multiplier of the Navier operator: -(lambda*+mu) nu (x) nu - mu |nu|^2 I."""
    v = np.atleast_1d(np.asarray(nu, dtype=float))
    nn2 = float(v @ v)
    return (-(material.lambda_star + material.mu) * np.outer(v, v)
            - material.mu * nn2 * np.eye(v.size))


def navier_eigenvalues(material, nu_norm):
    """Eigenvalues of the Navier multiplier: (-(lambda*+2mu)|nu|^2, -mu|nu|^2)."""
    nn2 = float(nu_norm) ** 2
    return (-(material.lambda_star + 2.0 * material.mu) * nn2,
            -material.mu * nn2)


def _eigen_series(params):
    """Eigenvalue series at (n, beta): merged 3F4, g's 1F2, lambda2's 2F3."""
    n = params.n
    h = (n + 2 - params.beta) / 2.0
    return (PfqParams((1.0, 2.5, h), (2.0, 1.5, n / 2.0 + 2.0, h + 1.0)),
            PfqParams((h,), (n / 2.0 + 1.0, h + 1.0)),
            PfqParams((1.0, h), (2.0, n / 2.0 + 2.0, h + 1.0)))


def _lambda1_of(material, nn2, f_merged, g):
    """lambda1 from the merged 3F4 and g at squared norm(s) nn2 > 0."""
    return -nn2 * (3.0 * material.mu * f_merged
                   + (material.lambda_star - material.mu) * g * g)


def _lambda2_of(material, nn2, f2):
    """lambda2 from its 2F3 at squared norm(s) nn2 > 0."""
    return -material.mu * nn2 * f2


def eigenvalue_parallel(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Eigenvalue of M(nu) along nu.

    Computed from the merged two-term form

        lambda1 = -|nu|^2 [ 3 mu 3F4(1, 5/2, h; 2, 3/2, n/2+2, h+1; z)
                            + (lambda* - mu) g(|nu|)^2 ],

    which needs one fewer series than summing the coefficient
    decomposition directly (see ``eigenvalue_parallel_split``).
    Returns 0 for nu = 0 (continuity limit).
    """
    v = _as_frequency(params, nu)
    nn2 = float(v @ v)
    if nn2 == 0.0:
        return 0.0
    merged, g_series, _ = _eigen_series(params)
    z = _z_of(params, math.sqrt(nn2))
    return _finite(_lambda1_of(material, nn2,
                               pfq(merged, z, target_rel_tol).value,
                               pfq(g_series, z, target_rel_tol).value),
                   "lambda1")


def eigenvalue_parallel_split(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Parallel eigenvalue from the three-term coefficient form.

    lambda1 = alpha_b1 + (alpha_b2 + alpha_s) |nu|^2.  Kept as an
    independent formula path; must agree with ``eigenvalue_parallel`` to
    full working accuracy.
    """
    v = _as_frequency(params, nu)
    nn2 = float(v @ v)
    if nn2 == 0.0:
        return 0.0
    nn = math.sqrt(nn2)
    a_b1, a_b2 = _bond_coefficients(params, material, nn, target_rel_tol)
    a_s = _state_coefficient(params, material, nn, target_rel_tol)
    return _finite(a_b1 + (a_b2 + a_s) * nn2, "lambda1")


def eigenvalue_transverse(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Eigenvalue of M(nu) on the space orthogonal to nu (multiplicity n-1).

    lambda2 = -mu |nu|^2 2F3(1, h; 2, n/2+2, h+1; z); independent of
    lambda*.  Returns 0 for nu = 0.
    """
    v = _as_frequency(params, nu)
    nn2 = float(v @ v)
    if nn2 == 0.0:
        return 0.0
    _, _, series = _eigen_series(params)
    z = _z_of(params, math.sqrt(nn2))
    return _finite(
        _lambda2_of(material, nn2, pfq(series, z, target_rel_tol).value),
        "lambda2")


def _shell_series(params, shells, tol):
    """(merged 3F4, g, lambda2's 2F3) at every squared norm in ``shells``.

    ``shells`` holds nonzero |nu|^2 values; z is formed from each exactly as
    the single-frequency functions form it, and each series takes one
    ``pfq_many`` pass over all of them.
    """
    z = _z_of(params, np.sqrt(shells))
    return tuple(pfq_many(series, z, tol) for series in _eigen_series(params))


def eigenvalues_by_material(params, materials, nu, target_rel_tol=DEFAULT_REL_TOL):
    """``eigenvalues`` for several materials at once, one pair per material.

    The series do not depend on the material, so they are evaluated once
    per distinct |nu|^2 for all materials together and combined per
    material.  Returns a list of (lambda1, lambda2) array pairs, in the
    order of ``materials``.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 2 or nu.shape[1] != params.n:
        raise InvalidParams(
            f"frequencies must be an (m, {params.n}) array, got shape {nu.shape}")
    # batched matmul rounds each row exactly like the scalar path's v @ v
    nn2 = np.matmul(nu[:, None, :], nu[:, :, None]).reshape(-1)
    shells, inverse = np.unique(nn2, return_inverse=True)
    nonzero = shells != 0.0
    shells_nz = shells[nonzero]
    f_merged, g, f2 = _shell_series(params, shells_nz, target_rel_tol)
    out = []
    for material in materials:
        lam1 = np.zeros(shells.size)
        lam2 = np.zeros(shells.size)
        with np.errstate(over="ignore", invalid="ignore"):
            lam1[nonzero] = _lambda1_of(material, shells_nz, f_merged, g)
            lam2[nonzero] = _lambda2_of(material, shells_nz, f2)
        out.append((_finite(lam1, "lambda1")[inverse],
                    _finite(lam2, "lambda2")[inverse]))
    return out


def eigenvalues(params, material, nu, target_rel_tol=DEFAULT_REL_TOL):
    """Both eigenvalues for every row of an (m, n) array of frequencies.

    Returns arrays (lambda1, lambda2) of length m, each entry equal to
    ``eigenvalue_parallel`` / ``eigenvalue_transverse`` at that row.  The
    series are evaluated once per distinct |nu|^2, as arrays, and
    scattered back; rows with nu = 0 give 0.
    """
    return eigenvalues_by_material(params, (material,), nu, target_rel_tol)[0]


def orthonormal_basis(nu):
    """Deterministic orthonormal basis led by nu/|nu|.

    For nu = 0 returns the identity.  Otherwise the transverse directions
    come from the standard basis vectors, excluding the axis of the
    largest |nu_i| (smallest index on ties), orthogonalized in index order
    against nu/|nu| by Gram-Schmidt.
    """
    v = np.atleast_1d(np.asarray(nu, dtype=float))
    n = v.size
    nn = float(np.linalg.norm(v))
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
    v = _as_frequency(params, nu)
    basis = orthonormal_basis(v)
    if float(np.linalg.norm(v)) == 0.0:
        return EigenDecomposition(0.0, 0.0, basis)
    lam1 = eigenvalue_parallel(params, material, v, target_rel_tol)
    lam2 = eigenvalue_transverse(params, material, v, target_rel_tol)
    return EigenDecomposition(lam1, lam2, basis)
