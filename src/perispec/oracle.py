"""Quadrature ground truth for every multiplier and eigenvalue formula.

Each quantity produced in closed form by :mod:`perispec.multipliers` has an
integral representation over the horizon ball B_delta(0).  This module
evaluates those integrals directly by numerical quadrature in any dimension
n <= MAX_DIM, sharing no series code with the closed-form path, so the two
routes cross-check each other.

Reduction: after an orthogonal change of variables taking nu to the first
axis, every integrand depends on the radius r = |w| and on t = omega.e1
for the direction omega = w/r only.  For such an integrand the sphere
integral is one integral in t,

    int_{S^(n-1)} f(omega.e1) domega
        = |S^(n-2)| int_{-1}^{1} f(t) (1-t^2)^((n-3)/2) dt,

so a single Gauss-Jacobi rule with both exponents (n-3)/2 serves every
n >= 2 (Gauss-Chebyshev at n = 2, Gauss-Legendre at n = 3); n = 1 is the
two-point sphere {+1, -1}.  A transverse second moment enters through its
average over the transverse directions, (1-t^2)/(n-1), and odd transverse
moments vanish by symmetry.  Every integrand left is even in t, so the
symmetric rule is folded onto t >= 0 (each node pair becomes one node
with the summed weight), and each integrand is evaluated once on that
half grid.  The radial factor of every integrand is
r^(n+1-beta) times a smooth function, so the radial rule is Gauss-Jacobi
with exactly that weight on an inner panel near 0 plus Gauss-Legendre on
the outer panel; this keeps spectral convergence uniformly in beta < n+2,
including kernels just short of the integrability limit.  Node counts
scale with the phase |nu| delta so oscillatory integrands stay resolved;
the oracle's reach is therefore stated as |nu| delta <= MAX_PHASE, and a
larger phase is rejected before any grid is built.

One refinement pass per frequency (:func:`quadrature_bundle`) integrates
every quantity on the same grids.  Each quantity reports its own
per-quantity Richardson-style error estimate (difference of its two finest
refinement levels) alongside its value; without a tolerance only those two
levels are computed.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import AccuracyNotReached, InvalidParams, ZeroFrequency

__all__ = [
    "QuadratureSpec", "quadrature_bundle", "scalar_multiplier_quad",
    "tensor_bond_quad", "tensor_state_quad", "lambda1_quad", "lambda2_quad",
    "moment_identity_check", "apply_to_plane_wave",
]

#: Largest dimension the oracle accepts: the range its tests cross-check
#: against the closed forms.
MAX_DIM = 8

#: Largest phase |nu| delta the oracle accepts.  Node counts grow linearly
#: with the phase in both t and r; the closed forms are cross-checked up to
#: here.
MAX_PHASE = 400.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs for the ball quadrature.

    radial_points / angular_points are the base counts at the coarsest
    refinement level (each level doubles them); singularity_split is the
    fraction of delta where the radial interval splits into the
    singular-weight inner panel and the smooth outer panel;
    refinement_levels is the number of doublings performed beyond the
    base grid.  With a tolerance all refinement_levels + 1 grids may be
    evaluated; without one only the two finest are, since the value and its
    error estimate come from those two alone.
    """

    radial_points: int = 64
    angular_points: int = 64
    singularity_split: float = 0.1
    refinement_levels: int = 2

    def __post_init__(self):
        if self.radial_points < 16 or self.angular_points < 16:
            raise InvalidParams("quadrature needs >= 16 radial and angular points")
        if not (0.0 < self.singularity_split < 1.0):
            raise InvalidParams("singularity_split must lie in (0, 1)")
        if self.refinement_levels < 1:
            raise InvalidParams("refinement_levels must be >= 1")


DEFAULT_SPEC = QuadratureSpec()


def _check_dim(params):
    if not 1 <= params.n <= MAX_DIM:
        raise InvalidParams(
            f"quadrature oracle supports 1 <= n <= {MAX_DIM}, got n = {params.n}")


def _scaling_constant(n, delta, beta):
    # kept local so the oracle stands alone from the closed-form module
    return (2.0 * (n + 2 - beta) * math.gamma(n / 2.0 + 1.0)
            / (math.pi ** (n / 2.0) * delta ** (n + 2 - beta)))


@lru_cache(maxsize=256)
def _gauss_rule(npts, a, b):
    """Read-only Gauss nodes/weights on [-1, 1] for the weight (1-x)^a (1+x)^b.

    ``(0, 0)`` gives Gauss-Legendre from ``roots_legendre``, any other pair
    Gauss-Jacobi from ``roots_jacobi``.  Rules repeat across refinement
    levels and frequencies, so each is built once; callers pass both
    exponents, so each rule has a single cache key.
    """
    if a == 0.0 and b == 0.0:
        x, w = roots_legendre(npts)
    else:
        x, w = roots_jacobi(npts, a, b)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _radial_rule(delta, gamma_exp, npts, split):
    """Nodes/weights with int_0^delta r^gamma_exp F(r) dr ~ sum W_i F(r_i).

    Inner panel [0, split*delta]: Gauss-Jacobi with weight (1+x)^gamma_exp,
    which absorbs the endpoint singularity exactly.  Outer panel: plain
    Gauss-Legendre with the weight multiplied back in.
    """
    a = split * delta
    xj, wj = _gauss_rule(npts, 0.0, gamma_exp)
    r_in = a * (xj + 1.0) / 2.0
    w_in = wj * (a / 2.0) ** (gamma_exp + 1.0)
    xl, wl = _gauss_rule(npts, 0.0, 0.0)
    r_out = a + (delta - a) * (xl + 1.0) / 2.0
    w_out = wl * (delta - a) / 2.0 * r_out**gamma_exp
    return np.concatenate([r_in, r_out]), np.concatenate([w_in, w_out])


def _angular_rule(n, npts):
    """Return (t, wa): the sphere rule on S^(n-1) folded onto t = omega.e1 >= 0.

    Every integrand the oracle takes over the sphere is even in t, so node
    i of the symmetric rule is paired with node N-1-i, which carries the
    pair's summed weight; for odd N the middle node is kept once.  n = 1:
    the two-point sphere {+1, -1} becomes {1} with weight 2.  n >= 2: the
    Gauss-Jacobi rule for the weight (1-t^2)^((n-3)/2), times
    |S^(n-2)| = 2 pi^((n-1)/2) / Gamma((n-1)/2), folded.
    """
    if n == 1:
        return np.array([1.0]), np.array([2.0])
    h = (n - 1) / 2.0
    t, w = _gauss_rule(npts, h - 1.0, h - 1.0)
    half = npts // 2
    # t[npts-half:] are the upper nodes; w[half-1::-1] are their partners'
    wa = w[npts - half:] + w[half - 1::-1]
    t = t[half:]
    if npts % 2:
        wa = np.concatenate([w[half:half + 1], wa])
    return t, wa * (2.0 * math.pi**h / math.gamma(h))


def _reduced_integrals(params, nu_norm, spec, level):
    """All rotated-frame radial-angular integrals on one shared grid.

    The grid is the one of refinement ``level``.  Every integral below
    carries the common radial weight r^(n+1-beta); the returned values are
    therefore of the regularized smooth factors.  Keys: m (scalar
    multiplier integrand), A and B (parallel/transverse diagonal entries of
    the bond tensor integrand; B is 0 at n = 1, where there is no
    transverse direction), s1 (parallel sine transform component; the
    transverse ones vanish), lam2 (transverse eigenvalue integrand).

    Each integrand is evaluated once on the folded (t >= 0) grid:
    cos(x) - 1 = -2 sin^2(x/2), and one sin(x) serves both sin(x)/x and
    (sin(x) - x)/x^3, which switch to their Taylor series below
    |x| = 1e-2 to avoid cancellation.  The angular weights of the
    three bond integrals are stacked so one matrix product contracts them.
    """
    n = params.n
    osc = nu_norm * params.delta
    # keep >= O(1) nodes per oscillation period of cos(|nu| r t)
    nr = max(spec.radial_points, int(math.ceil(0.8 * osc)) + 16) << level
    na = max(spec.angular_points, int(math.ceil(1.5 * osc)) + 16) << level
    r, wr = _radial_rule(params.delta, n + 1.0 - params.beta, nr,
                         spec.singularity_split)
    t, wa = _angular_rule(n, na)
    t2 = t * t
    x = np.multiply.outer(nu_norm * r, t)
    sin_half = np.sin(0.5 * x)
    sin_x = np.sin(x)
    x2 = x * x
    x4 = x2 * x2
    small = np.abs(x) < 1e-2
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc_x = np.where(small, 1.0 - x2 / 6.0 + x4 / 120.0, sin_x / x)
        sxx = np.where(small, -1.0 / 6.0 + x2 / 120.0 - x4 / 5040.0,
                       (sin_x - x) / (x2 * x))
    # (cos(x) - 1) / r^2, with the 1/r^2 moved onto the radial weights
    W = np.stack([wa, t2 * wa, (1.0 - t2) / max(n - 1, 1) * wa], axis=1)
    m, A, B = (-2.0 * wr / (r * r)) @ ((sin_half * sin_half) @ W)
    return {
        "m": m, "A": A, "B": B,
        "s1": nu_norm * (wr @ (sinc_x @ (t2 * wa))),
        "lam2": nu_norm**2 * (wr @ (sxx @ (t2 * t2 * wa))),
    }


def _householder_to_e1(nu_hat):
    """Orthogonal symmetric H with H e1 = nu_hat (identity if aligned)."""
    n = nu_hat.size
    e1 = np.zeros(n)
    e1[0] = 1.0
    v = nu_hat - e1
    nv = float(np.linalg.norm(v))
    if nv < 1e-14:
        return np.eye(n)
    v = v / nv
    return np.eye(n) - 2.0 * np.outer(v, v)


def _quantities(params, material, v, nn, raw):
    """Assemble every quadrature quantity from one level's reduced integrals.

    Keys: scalar (m), bond (M_b), state (M_s), lambda1, lambda2.  With
    ``material`` None only the material-free scalar multiplier is built.
    """
    n = params.n
    c = _scaling_constant(n, params.delta, params.beta)
    out = {"scalar": c * raw["m"]}
    if material is None:
        return out
    H = _householder_to_e1(v / nn)
    k_bond = (n + 2) * material.mu * c
    D = np.diag([raw["A"]] + [raw["B"]] * (n - 1))
    s = np.zeros(n)
    s[0] = raw["s1"]
    J = H @ s
    dl = material.lambda_star - material.mu
    if dl == 0.0:
        # exact +0.0 entries: -(0.0) * J J^T would carry -0.0 into reports
        state = np.zeros((n, n))
    else:
        state = -dl * (c * c / 4.0) * np.outer(J, J)
    out.update(
        bond=k_bond * (H @ D @ H.T),
        state=state,
        lambda1=k_bond * raw["A"] - dl * (c / 2.0 * raw["s1"]) ** 2,
        lambda2=k_bond * raw["lam2"])
    return out


def _refine(spec, tol, compute):
    """Run ``compute(level)`` over refinement levels, Richardson-style.

    ``compute`` returns a dict of named values (scalars or arrays).  Each
    value gets its own error estimate, the largest entrywise difference
    between its two finest levels.  Returns {name: (value_at_finest,
    err_est)}.  Without a tolerance only the two finest levels are
    computed.  With one, the pass starts at level 0, stops early once every
    estimate is within it, and raises AccuracyNotReached when one still
    exceeds it after the last level.
    """
    prev = None
    first = 0 if tol is not None else spec.refinement_levels - 1
    for level in range(first, spec.refinement_levels + 1):
        cur = compute(level)
        if prev is not None:
            errs = {name: float(np.max(np.abs(np.asarray(cur[name])
                                              - np.asarray(prev[name]))))
                    for name in cur}
            if tol is not None and all(e <= tol for e in errs.values()):
                break
        prev = cur
    over = [name for name, e in errs.items() if tol is not None and not e <= tol]
    if over:
        raise AccuracyNotReached(
            f"quadrature error estimate {errs[over[0]]:.3e} of {over[0]} "
            f"exceeds tolerance {tol:.3e} after {spec.refinement_levels} "
            f"refinements")
    return {name: (cur[name], errs[name]) for name in cur}


def _freq(params, nu):
    v = np.atleast_1d(np.asarray(nu, dtype=float))
    if v.size != params.n:
        raise InvalidParams(
            f"frequency vector has length {v.size}, expected n = {params.n}")
    nn = float(np.linalg.norm(v))
    if not math.isfinite(nn):
        raise InvalidParams(
            f"frequency vector and its norm must be finite, got {v.tolist()}")
    # checked before any grid is sized: node counts grow with the phase
    if not nn * params.delta <= MAX_PHASE:
        raise InvalidParams(
            f"|nu| delta = {nn * params.delta:.6g} exceeds the oracle's reach "
            f"MAX_PHASE = {MAX_PHASE:g}")
    return v, nn


def quadrature_bundle(params, material, nu, spec=DEFAULT_SPEC, tol=None):
    """Every quadrature quantity at frequency nu from one refinement pass.

    Returns {name: (value, err_est)} for scalar (m), bond (M_b matrix),
    state (M_s matrix), lambda1 and lambda2, all integrated on the same
    grids; each err_est is that quantity's own estimate.  ``tol`` bounds
    every estimate at once.  At nu = 0 the eigenvalue entries are absent,
    since their integral representations need nu != 0, and the others are
    exact zeros; with lambda* = mu the state entry is an exact zero.
    """
    _check_dim(params)
    v, nn = _freq(params, nu)
    if nn == 0.0:
        zero = np.zeros((params.n, params.n))
        return {"scalar": (0.0, 0.0), "bond": (zero, 0.0),
                "state": (zero.copy(), 0.0)}
    return _refine(spec, tol, lambda level: _quantities(
        params, material, v, nn, _reduced_integrals(params, nn, spec, level)))


def _select(name, params, material, nu, spec, tol):
    bundle = quadrature_bundle(params, material, nu, spec, tol)
    if name not in bundle:
        raise ZeroFrequency(f"{name} integral representation requires nu != 0")
    return bundle[name]


def scalar_multiplier_quad(params, nu, spec=DEFAULT_SPEC, tol=None):
    """Scalar multiplier by quadrature of c int (cos(nu.w) - 1)/|w|^beta dw.

    Returns (value, err_est) from :func:`quadrature_bundle`; with ``tol``,
    stops or raises on the worst estimate of the bundle.
    """
    return _select("scalar", params, None, nu, spec, tol)


def tensor_bond_quad(params, material, nu, spec=DEFAULT_SPEC, tol=None):
    """Bond tensor by entrywise quadrature of its w (x) w integral.

    Returns (matrix, err_est) from :func:`quadrature_bundle`; with ``tol``,
    stops or raises on the worst estimate of the bundle.
    """
    return _select("bond", params, material, nu, spec, tol)


def tensor_state_quad(params, material, nu, spec=DEFAULT_SPEC, tol=None):
    """State tensor from the quadrature sine-transform vector.

    Computes j = int w sin(nu.w)/|w|^beta dw once and returns
    (-(lambda*-mu) c^2/4 * j (x) j, err_est) from :func:`quadrature_bundle`;
    rank <= 1 by construction.  With ``tol``, stops or raises on the worst
    estimate of the bundle.
    """
    return _select("state", params, material, nu, spec, tol)


def lambda1_quad(params, material, nu, spec=DEFAULT_SPEC, tol=None):
    """Parallel eigenvalue from its integral representation.

    (n+2) mu c int (nu.w)^2 (cos(nu.w)-1) / (|nu|^2 |w|^(beta+2)) dw
    minus  (lambda*-mu) [ (c/2) int (nu.w) sin(nu.w) / (|nu| |w|^beta) dw ]^2.

    Returns (value, err_est) from :func:`quadrature_bundle`; raises
    ZeroFrequency at nu = 0.  With ``tol``, stops or raises on the worst
    estimate of the bundle.
    """
    return _select("lambda1", params, material, nu, spec, tol)


def lambda2_quad(params, material, nu, spec=DEFAULT_SPEC, tol=None):
    """Transverse eigenvalue from its integral representation.

    (n+2) mu c int (nu.w) (sin(nu.w) - nu.w) / (|nu|^2 |w|^(beta+2)) dw;
    the (sin(x) - x) factor regularizes the kernel and is evaluated by a
    series branch for |x| < 1e-2 to avoid cancellation.

    Returns (value, err_est) from :func:`quadrature_bundle`; raises
    ZeroFrequency at nu = 0.  With ``tol``, stops or raises on the worst
    estimate of the bundle.
    """
    return _select("lambda2", params, material, nu, spec, tol)


def moment_identity_check(params, spec=DEFAULT_SPEC, tol=None):
    """Verify int w_i w_j / |w|^(beta+2) dw = 2 delta_ij / c(delta, beta+2).

    The integrand needs beta < n for integrability (the cos - 1 factor
    that tames the other integrals is absent here).  Returns the maximum
    entrywise deviation scaled by the exact diagonal value.
    """
    _check_dim(params)
    n, delta, beta = params.n, params.delta, params.beta
    if not beta < n:
        raise InvalidParams(
            f"moment identity requires beta < n for integrability, got "
            f"beta = {beta}, n = {n}")
    expected = 2.0 / _scaling_constant(n, delta, beta + 2.0)

    def compute(level):
        nr = max(spec.radial_points, 16) << level
        na = max(spec.angular_points, 16) << level
        _, wr = _radial_rule(delta, n - 1.0 - beta, nr, spec.singularity_split)
        t, wa = _angular_rule(n, na)
        radial = wr.sum()
        t2 = t * t
        devs = [abs(radial * (t2 @ wa) - expected)]
        if n > 1:
            # transverse diagonal; off-diagonal entries vanish by symmetry
            devs.append(abs(radial * ((1.0 - t2) / (n - 1) @ wa) - expected))
        return {"deviation": max(devs) / expected}

    return _refine(spec, tol, compute)["deviation"][0]


def apply_to_plane_wave(params, material, nu, amplitude, x, spec=DEFAULT_SPEC):
    """Apply the nonlocal operator to u(y) = exp(i nu.y) amplitude at x.

    Both operator parts are integrated with the plane wave substituted
    exactly: the bond part as int w (x) w (e^{i nu.w} - 1)/|w|^(beta+2) dw,
    the state part through the separable vector j = int w e^{i nu.w}/|w|^beta dw
    (its double integral factors for exponentials, and j (x) j enters with
    i^2 = -1).  Odd-parity components of both integrals vanish under
    w -> -w symmetry of the ball and are eliminated analytically, like the
    azimuth; the surviving even parts are quadratured.

    Returns (complex vector, err_est).
    """
    _check_dim(params)
    v, nn = _freq(params, nu)
    amplitude = np.asarray(amplitude, dtype=complex)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if amplitude.size != params.n or x.size != params.n:
        raise InvalidParams("amplitude and x must have length n")
    if not (np.isfinite(amplitude).all() and np.isfinite(x).all()):
        raise InvalidParams("amplitude and x must be finite")
    if nn == 0.0:
        return np.zeros(params.n, dtype=complex), 0.0
    phase = np.exp(1j * float(v @ x))

    def compute(level):
        q = _quantities(params, material, v, nn,
                        _reduced_integrals(params, nn, spec, level))
        return {"applied": phase * ((q["bond"] + q["state"]) @ amplitude)}

    return _refine(spec, None, compute)["applied"]
