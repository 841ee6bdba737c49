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
scale with the phase each rule's interval sees (SINGULARITY_SPLIT
|nu| delta on the inner panel, |nu| delta on the outer panel and the
sphere) so oscillatory integrands stay resolved; the oracle's reach is
therefore stated as |nu| delta <= MAX_PHASE, and a larger phase is
rejected before any grid is built, as is a (delta, beta) whose kernel
scale or inner radial rule does not fit a double (``_check_params``).
Every Gauss rule is built with numpy alone by :mod:`perispec._gauss`
(Newton's method in theta = arccos x on the three-term recurrence), so
the oracle depends on no special-function library.

One refinement pass per frequency (:func:`quadrature_bundle`) integrates
every quantity on the same grids.  :func:`quadrature_bundles` serves many
frequencies: it checks every request first, then builds the rules of all
their levels in one batched Newton pass per ``BUNDLE_CHUNK`` requests;
no rule outlives the call that built it, so calls share no state.
Each quantity reports its own per-quantity Richardson-style error
estimate (difference of its two finest refinement levels) alongside its
value; without a tolerance only those two levels are computed.  Every
oracle path evaluates a level through ``_reduced_integrals``, which sweeps
the radial x angular grid in blocks of radial rows (``BLOCK_POINTS``), so
its working memory is that of one block and the per-row sums, not of the
whole grid, at every phase up to MAX_PHASE.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._gauss import gauss_rules as _gauss_rules, jacobi_mass as _jacobi_mass
from .errors import AccuracyNotReached, InvalidParams, ZeroFrequency

__all__ = [
    "QuadratureSpec", "quadrature_bundle", "quadrature_bundles",
    "scalar_multiplier_quad", "tensor_bond_quad", "tensor_state_quad",
    "lambda1_quad", "lambda2_quad", "moment_identity_check",
    "apply_to_plane_wave",
]

#: Largest dimension the oracle accepts: the range its tests cross-check
#: against the closed forms.
MAX_DIM = 8

#: Largest phase |nu| delta the oracle accepts.  Node counts grow linearly
#: with the phase in both t and r; the closed forms are cross-checked up to
#: here.
MAX_PHASE = 400.0

#: Grid points (radial rows times folded angular nodes) that one block of
#: ``_reduced_integrals`` aims to hold; it bounds the oracle's working
#: memory at every phase up to MAX_PHASE.  A block holds at least 16 rows
#: and the last one also takes the remainder, so at MAX_PHASE (1,232
#: folded angular nodes at the finest default level) a block holds 16 to
#: 31 rows, at most 38,192 points.
BLOCK_POINTS = 8192

#: Requests whose rules one ``_gauss_rules`` call of ``quadrature_bundles``
#: builds and holds (two levels of up to three rules each), so neither that
#: Newton pass's working memory nor the rules held grow with the number of
#: requests.
BUNDLE_CHUNK = 64

#: Fraction of delta where the radial interval splits into the inner
#: panel, whose Gauss-Jacobi weight takes the kernel's endpoint singularity
#: exactly, and the smooth outer Gauss-Legendre panel.
SINGULARITY_SPLIT = 0.1


def _block_rows(na):
    """Radial rows per block for ``na`` angular nodes: a multiple of 16.

    Each row's angular contraction is a BLAS product whose bits can depend
    on how the rows are tiled; blocks of whole 16-row tiles keep them equal
    to those of one product over the whole grid whenever that product runs
    the same kernel.  OpenBLAS's dgemm switches kernels for a whole grid
    above ~333,000 points (phases above ~150 at the finest default level),
    where the bond integrals m, A and B can move by an ulp.
    """
    return max(16, BLOCK_POINTS // na // 16 * 16)


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution knobs for the ball quadrature.

    radial_points / angular_points are floors on the base node counts of
    the outer radial panel and of the sphere rule at the coarsest
    refinement level (each level doubles them; both also grow with the
    phase |nu| delta).  The inner radial panel, on [0, SINGULARITY_SPLIT
    delta], is sized from its own phase SINGULARITY_SPLIT * |nu| delta
    alone, since its Gauss-Jacobi weight takes the singular factor
    exactly.  refinement_levels is the number of doublings performed
    beyond the base grid.  With a tolerance all refinement_levels + 1
    grids may be evaluated; without one only the two finest are, since
    the value and its error estimate come from those two alone.
    """

    radial_points: int = 64
    angular_points: int = 64
    refinement_levels: int = 2

    def __post_init__(self):
        if self.radial_points < 16 or self.angular_points < 16:
            raise InvalidParams("quadrature needs >= 16 radial and angular points")
        if self.refinement_levels < 1:
            raise InvalidParams("refinement_levels must be >= 1")


DEFAULT_SPEC = QuadratureSpec()


def _scaling_constant(n, delta, beta):
    # kept local so the oracle stands alone from the closed-form module
    return (2.0 * (n + 2 - beta) * math.gamma(n / 2.0 + 1.0)
            / (math.pi ** (n / 2.0) * delta ** (n + 2 - beta)))


def _check_params(params):
    """Reject an n or a (delta, beta) the oracle cannot integrate.

    Every quantity carries the kernel scale c, and the state entry is
    (c^2/4) J (x) J with |J| <= 2 |nu| / c <= 2 MAX_PHASE / (delta c), so
    c^2/4 must be a normal double and that bound squared must be finite.
    So must the mass of the inner radial rule, 2^(b+1) / (b+1) with
    b = n+1-beta.  This holds for verify's sampled range; beta = -1000
    fails it at delta = 0.1 and 2, beta = -10000 at every delta.  Toward
    the integrability limit, every beta <= n+2-1e-3 is in reach at every
    phase up to MAX_PHASE; closer to n+2 (b nearer -1) the inner radial
    rule may not converge, and its NonConvergent error names it.  No such
    beta is rejected here.
    """
    n, delta, beta = params.n, params.delta, params.beta
    if not 1 <= n <= MAX_DIM:
        raise InvalidParams(
            f"quadrature oracle supports 1 <= n <= {MAX_DIM}, got n = {n}")
    try:
        c = _scaling_constant(n, delta, beta)
        j_max = 2.0 * MAX_PHASE / (delta * c)
        fits = (sys.float_info.min <= c * c / 4.0 < math.inf
                and j_max * j_max < math.inf
                and _jacobi_mass(0.0, n + 1.0 - beta) < math.inf)
    except (OverflowError, ZeroDivisionError):
        fits = False
    if not fits:
        raise InvalidParams(
            f"(delta, beta) = ({delta:g}, {beta:g}) at n = {n} is outside the "
            f"oracle's reach: its kernel scale or inner radial rule overflows "
            f"a double")


def _radial_rule(delta, gamma_exp, inner, outer):
    """Nodes/weights with int_0^delta r^gamma_exp F(r) dr ~ sum W_i F(r_i).

    Inner panel [0, SINGULARITY_SPLIT*delta]: ``inner`` is the
    Gauss-Jacobi rule with weight (1+x)^gamma_exp, which absorbs the
    endpoint singularity exactly.
    Outer panel: ``outer`` is the plain Gauss-Legendre rule, with the
    weight multiplied back in.
    """
    a = SINGULARITY_SPLIT * delta
    xj, wj = inner
    r_in = a * (xj + 1.0) / 2.0
    w_in = wj * (a / 2.0) ** (gamma_exp + 1.0)
    xl, wl = outer
    r_out = a + (delta - a) * (xl + 1.0) / 2.0
    w_out = wl * (delta - a) / 2.0 * r_out**gamma_exp
    return np.concatenate([r_in, r_out]), np.concatenate([w_in, w_out])


def _level_keys(n, gamma_exp, osc, spec, level):
    """Keys (N, a, b) of the Gauss rules of refinement ``level``.

    In order: the inner radial rule, of weight (1+x)^gamma_exp, the outer
    Gauss-Legendre rule and, at n >= 2, the sphere rule (n = 1 takes none).
    Every oracle path derives its keys here alone.  Each node count keeps
    O(1) nodes per oscillation period of cos(|nu| r t) over its own
    interval: the inner radial panel sees the phase SINGULARITY_SPLIT *
    osc, the outer panel and the sphere rule the whole of it.
    radial_points and angular_points are floors on the outer and angular
    base counts; the inner panel needs none, since its Gauss-Jacobi
    weight takes the singular factor exactly.  Each refinement level
    doubles all three.
    """
    n_in = int(math.ceil(0.8 * SINGULARITY_SPLIT * osc)) + 16
    n_out = max(spec.radial_points, int(math.ceil(0.8 * osc)) + 16)
    n_ang = max(spec.angular_points, int(math.ceil(1.5 * osc)) + 16)
    keys = [(n_in << level, 0.0, gamma_exp), (n_out << level, 0.0, 0.0)]
    h = (n - 1) / 2.0
    return keys + [(n_ang << level, h - 1.0, h - 1.0)] if n > 1 else keys


def _angular_rule(n, rule=None):
    """Return (t, wa): the sphere rule on S^(n-1) folded onto t = omega.e1 >= 0.

    Every integrand the oracle takes over the sphere is even in t, so node
    i of the symmetric rule is paired with node N-1-i, which carries the
    pair's summed weight; for odd N the middle node is kept once.  n = 1:
    the two-point sphere {+1, -1} becomes {1} with weight 2, and no
    ``rule`` is taken.  n >= 2: ``rule`` is the Gauss-Jacobi rule for the
    weight (1-t^2)^((n-3)/2); it is scaled by
    |S^(n-2)| = 2 pi^((n-1)/2) / Gamma((n-1)/2) and folded.
    """
    if n == 1:
        return np.array([1.0]), np.array([2.0])
    h = (n - 1) / 2.0
    t, w = rule
    npts = t.size
    half = npts // 2
    # t[npts-half:] are the upper nodes; w[half-1::-1] are their partners'
    wa = w[npts - half:] + w[half - 1::-1]
    t = t[half:]
    if npts % 2:
        wa = np.concatenate([w[half:half + 1], wa])
    return t, wa * (2.0 * math.pi**h / math.gamma(h))


def _reduced_integrals(params, nu_norm, spec, level, rules):
    """All rotated-frame radial-angular integrals on one shared grid.

    The grid is the one of refinement ``level``; the dict ``rules`` gains
    any of its Gauss rules it lacks.  Every integral below carries the
    common radial weight r^(n+1-beta); the returned values are therefore
    of the regularized smooth factors.  Keys: m (scalar
    multiplier integrand), A and B (parallel/transverse diagonal entries of
    the bond tensor integrand; B is 0 at n = 1, where there is no
    transverse direction), s1 (parallel sine transform component; the
    transverse ones vanish), lam2 (transverse eigenvalue integrand).

    Each integrand is evaluated once on the folded (t >= 0) grid, where
    x >= 0: cos(x) - 1 = -2 sin^2(x/2), and one sin(x) serves both
    sin(x)/x and (sin(x) - x)/x^3.  The grid is swept in blocks of
    ``_block_rows`` radial rows, so the working memory is that of one
    block (``BLOCK_POINTS``) at any phase.  Within a block both quotients
    are formed over every entry, and only the entries below x = 1e-2
    (about 1%) are then overwritten with their Taylor series, which avoid
    the cancellation there; a block whose least entry x[0, 0] is not below
    1e-2 skips that step.  Each block contracts its integrands with the
    angular weights into per-row values (the weights of the three bond
    integrals stacked, so one matrix product serves them); the radial
    weights then contract those rows over the whole radial grid at once.
    """
    n = params.n
    gamma_exp = n + 1.0 - params.beta
    keys = _level_keys(n, gamma_exp, nu_norm * params.delta, spec, level)
    missing = [key for key in keys if key not in rules]
    if missing:
        rules.update(zip(missing, _gauss_rules(missing)))
    inner, outer, *sphere = [rules[key] for key in keys]
    r, wr = _radial_rule(params.delta, gamma_exp, inner, outer)
    t, wa = _angular_rule(n, *sphere)
    t2 = t * t
    W = np.stack([wa, t2 * wa, (1.0 - t2) / max(n - 1, 1) * wa], axis=1)
    w_sinc, w_sxx = t2 * wa, t2 * t2 * wa
    bond = np.empty((r.size, 3))
    sinc_rows = np.empty(r.size)
    sxx_rows = np.empty(r.size)
    step = _block_rows(t.size)
    # the last block takes the remainder: a 1-row product is a dot, not gemv
    starts = list(range(0, max(r.size - step, 0) + 1, step))
    for rows in map(slice, starts, starts[1:] + [r.size]):
        x = np.multiply.outer(nu_norm * r[rows], t)   # x >= 0: t >= 0
        sin_half = np.sin(0.5 * x)
        sin_half *= sin_half
        bond[rows] = sin_half @ W
        sin_x = np.sin(x)
        cube = x * x
        cube *= x
        with np.errstate(divide="ignore", invalid="ignore"):
            sinc_x = sin_x / x
            sxx = np.subtract(sin_x, x, out=sin_x)
            sxx /= cube
        # only the few entries below x = 1e-2 take the Taylor series; rows
        # and columns ascend, so x[0, 0] is the least of the block
        if x[0, 0] < 1e-2:
            small = x < 1e-2
            xs = x[small]
            xs2 = xs * xs
            xs4 = xs2 * xs2
            sinc_x[small] = 1.0 - xs2 / 6.0 + xs4 / 120.0
            sxx[small] = -1.0 / 6.0 + xs2 / 120.0 - xs4 / 5040.0
        sinc_rows[rows] = sinc_x @ w_sinc
        sxx_rows[rows] = sxx @ w_sxx
    # (cos(x) - 1) / r^2, with the 1/r^2 moved onto the radial weights
    m, A, B = (-2.0 * wr / (r * r)) @ bond
    return {
        "m": m, "A": A, "B": B,
        "s1": nu_norm * (wr @ sinc_rows),
        "lam2": nu_norm**2 * (wr @ sxx_rows),
    }


def _quantities(params, material, v, nn, raw):
    """Assemble every quadrature quantity from one level's reduced integrals.

    Keys: scalar (m), bond (M_b), state (M_s), lambda1, lambda2.  With
    ``material`` None only the material-free scalar multiplier is built.
    The reduced integrals are taken in the frame whose first axis is
    nu_hat = nu/|nu|, so back in the original frame the bond integral is
    B I + (A - B) nu_hat (x) nu_hat and the sine-transform vector is
    J = s1 nu_hat.
    """
    n = params.n
    c = _scaling_constant(n, params.delta, params.beta)
    out = {"scalar": c * raw["m"]}
    if material is None:
        return out
    nu_hat = v / nn
    k_bond = (n + 2) * material.mu * c
    A, B = raw["A"], raw["B"]
    J = raw["s1"] * nu_hat
    dl = material.lambda_star - material.mu
    if dl == 0.0:
        # exact +0.0 entries: -(0.0) * J J^T would carry -0.0 into reports
        state = np.zeros((n, n))
    else:
        state = -dl * (c * c / 4.0) * np.outer(J, J)
    out.update(
        bond=k_bond * (B * np.eye(n) + (A - B) * np.outer(nu_hat, nu_hat)),
        state=state,
        lambda1=k_bond * A - dl * (c / 2.0 * raw["s1"]) ** 2,
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


def quadrature_bundles(requests, spec=DEFAULT_SPEC, tol=None):
    """``quadrature_bundle`` of every (params, material, nu) of ``requests``.

    Every request is checked here, before any rule is built.  Returns an
    iterator over one {name: (value, err_est)} per request, in order, each
    equal to that request's own ``quadrature_bundle`` and evaluated when
    the iterator reaches it.  The rules of the two levels each request
    evaluates first (the only two without a tolerance) are built by one
    ``_gauss_rules`` call per ``BUNDLE_CHUNK`` requests and held for that
    chunk alone; a finer level that a tolerance reaches adds its rules to
    them when it needs them.
    """
    checked = []
    for params, material, nu in requests:
        _check_params(params)
        checked.append((params, material, *_freq(params, nu)))
    return _bundles(checked, spec, tol)


def _bundles(checked, spec, tol):
    first = 0 if tol is not None else spec.refinement_levels - 1
    for i in range(0, len(checked), BUNDLE_CHUNK):
        chunk = checked[i:i + BUNDLE_CHUNK]
        keys = [key for params, _, _, nn in chunk if nn != 0.0
                for level in (first, first + 1)
                for key in _level_keys(params.n, params.n + 1.0 - params.beta,
                                       nn * params.delta, spec, level)]
        rules = dict(zip(keys, _gauss_rules(keys)))
        for params, material, v, nn in chunk:
            if nn == 0.0:
                zero = np.zeros((params.n, params.n))
                yield {"scalar": (0.0, 0.0), "bond": (zero, 0.0),
                       "state": (zero.copy(), 0.0)}
            else:
                yield _refine(spec, tol, lambda level: _quantities(
                    params, material, v, nn,
                    _reduced_integrals(params, nn, spec, level, rules)))


def quadrature_bundle(params, material, nu, spec=DEFAULT_SPEC, tol=None):
    """Every quadrature quantity at frequency nu from one refinement pass.

    Returns {name: (value, err_est)} for scalar (m), bond (M_b matrix),
    state (M_s matrix), lambda1 and lambda2, all integrated on the same
    grids; each err_est is that quantity's own estimate.  ``tol`` bounds
    every estimate at once.  At nu = 0 the eigenvalue entries are absent,
    since their integral representations need nu != 0, and the others are
    exact zeros; with lambda* = mu the state entry is an exact zero.  The
    one-request case of :func:`quadrature_bundles`.
    """
    return next(quadrature_bundles([(params, material, nu)], spec, tol))


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
    _check_params(params)
    n, delta, beta = params.n, params.delta, params.beta
    if not beta < n:
        raise InvalidParams(
            f"moment identity requires beta < n for integrability, got "
            f"beta = {beta}, n = {n}")
    expected = 2.0 / _scaling_constant(n, delta, beta + 2.0)

    def compute(level):
        inner, outer, *sphere = _gauss_rules(_level_keys(
            n, n - 1.0 - beta, 0.0, spec, level))
        _, wr = _radial_rule(delta, n - 1.0 - beta, inner, outer)
        t, wa = _angular_rule(n, *sphere)
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
    _check_params(params)
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
                        _reduced_integrals(params, nn, spec, level, {}))
        return {"applied": phase * ((q["bond"] + q["state"]) @ amplitude)}

    return _refine(spec, None, compute)["applied"]
