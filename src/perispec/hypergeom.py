"""Cancellation-safe evaluation of generalized hypergeometric series.

The functions here evaluate pFq(a; b; z) = sum_k (a)_k / (b)_k * z^k / k!
for real parameters and real z, together with three series manipulations
that the rest of the package relies on: subtracting the leading 1 without
cancellation, merging a linear combination of two related series into a
single higher-order series, and differentiating functions of the form
f(z) = z * pFq(a; b; z).

For large negative z the terms of these series grow to astronomical size
before decaying, while the sum itself stays of moderate size; plain double
precision then loses every significant digit.  Evaluation therefore runs a
double-precision pass first.  When the largest term exceeds the partial sum
by more than ``ESCALATION_RATIO``, or that pass does not converge, the
value comes from one ``mpmath.hyper`` call at the fixed working precision
``ESCALATED_PREC_BITS``.  mpmath detects the cancellation itself, raising
its internal precision as needed, and switches to asymptotic expansions for
large |z| (DLMF 16.11).  The multiplier series of this package evaluate
this way down to z = -1e7; the eigenvalues are checked against the
quadrature oracle at |nu| delta = 400, i.e. z = -4e4.

``pfq`` evaluates one argument with a Python-float loop.  ``pfq_many``
evaluates a whole array of arguments: it validates and cancels the
parameters once, runs the double-precision pass as one numpy loop over the
term index, and escalates only the entries that pass does not accept.
Both repeat the same floating-point operations per argument, so their
values are bit-identical.

Everything here is a pure function of its arguments, with no cache;
results are bit-identical across calls within one build.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NonConvergent

#: Default relative tolerance used when callers do not pass one.
DEFAULT_REL_TOL = 1e-13

#: Escalate to mpmath when max|term| / |sum| exceeds this.  The
#: double-precision pass loses roughly ``ratio * 3e-17`` in relative
#: accuracy, so 1e3 keeps the unescalated path at ~1e-13 or better.
ESCALATION_RATIO = 1e3

#: Working precision of the escalated pass.  Fixed, so results do not
#: depend on earlier calls; a few bits above double so the value rounds
#: correctly.
ESCALATED_PREC_BITS = 64

_MAX_TERMS = 10000
_TOL_RANGE = (1e-15, 1e-6)

# mpmath's working precision is process-global state; escalated calls
# serialize on this lock so concurrent callers stay safe
_MP_LOCK = threading.Lock()


def _is_nonpositive_integer(x):
    return x <= 0.0 and x == math.floor(x)


@dataclass(frozen=True)
class PfqParams:
    """Numerator and denominator parameter vectors of a pFq series.

    Parameters
    ----------
    a : sequence of float
        Numerator parameters (length p).
    b : sequence of float
        Denominator parameters (length q).  No entry may be zero or a
        negative integer, otherwise the series is undefined.

    Only p <= q + 1 is accepted; for p = q + 1 the series converges for
    |z| < 1 only.
    """

    a: tuple
    b: tuple

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        b = tuple(float(x) for x in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) > len(b) + 1:
            raise InvalidParams(
                f"pFq requires p <= q + 1, got p={len(a)}, q={len(b)}")
        for bj in b:
            if _is_nonpositive_integer(bj):
                raise InvalidParams(
                    f"denominator parameter {bj} is zero or a negative integer")


@dataclass(frozen=True)
class EvalResult:
    """Value of a series evaluation plus accounting.

    On the double-precision path ``precision_bits`` is 53,
    ``abs_error_estimate`` is the a-posteriori truncation bound from the
    stopping rule (twice the first neglected term) and ``terms_used`` is
    the number of terms summed.

    On the escalated path ``precision_bits`` is ``ESCALATED_PREC_BITS``
    (> 53), ``abs_error_estimate`` is one double ulp of the value (mpmath
    computes it to more than double precision; rounding to a float is the
    error left), and ``terms_used`` is the term count of the abandoned
    double-precision pass (mpmath does not report its own).
    """

    value: float
    abs_error_estimate: float
    terms_used: int
    precision_bits: int


def pochhammer(a, k):
    """Rising factorial a (a+1) ... (a+k-1), with the empty product = 1."""
    if k < 0:
        raise InvalidParams(f"pochhammer needs k >= 0, got {k}")
    out = 1.0
    for i in range(int(k)):
        out *= a + i
    return out


def _cancel_common(a, b):
    """Remove parameter pairs that appear in both a and b.

    Repeated parameters cancel exactly in (a)_k / (b)_k, so dropping them
    shortens the series and avoids spurious degeneracy errors when a
    cancelled denominator entry would otherwise be illegal.
    """
    b_left = list(b)
    a_out = []
    for ai in a:
        if ai in b_left:
            b_left.remove(ai)
        else:
            a_out.append(ai)
    return tuple(sorted(a_out)), tuple(sorted(b_left))


def _sum_float(a, b, z, tol):
    """Double-precision series pass.

    Returns (sum, err_bound, terms, max_abs_term, converged); ``converged``
    is False when the term cap was hit or a value became non-finite.
    """
    s = 1.0
    term = 1.0
    max_term = 1.0
    small_run = 0
    for k in range(_MAX_TERMS):
        num = 1.0
        for ai in a:
            num *= ai + k
        den = 1.0
        for bj in b:
            den *= bj + k
        term = term * num / den * z / (k + 1.0)
        if term == 0.0:
            # a numerator parameter hit zero: the series terminates exactly
            return s, 0.0, k + 2, max_term, True
        s += term
        if not math.isfinite(s):
            return s, math.inf, k + 2, math.inf, False
        at = abs(term)
        if at > max_term:
            max_term = at
        if at < tol * abs(s):
            small_run += 1
            if small_run >= 3:
                num = 1.0
                for ai in a:
                    num *= ai + k + 1
                den = 1.0
                for bj in b:
                    den *= bj + k + 1
                nxt = abs(term * num / den * z / (k + 2.0))
                if 2.0 * nxt < tol * abs(s):
                    return s, 2.0 * nxt, k + 2, max_term, True
        else:
            small_run = 0
    return s, math.inf, _MAX_TERMS, max_term, False


def _check_tol(tol):
    if not (_TOL_RANGE[0] <= tol <= _TOL_RANGE[1]):
        raise InvalidParams(f"target_rel_tol {tol} outside [1e-15, 1e-6]")


def _check_disk(a, b, z):
    """Reject |z| >= 1 for a p = q + 1 series, whose radius is 1."""
    if len(a) == len(b) + 1 and abs(z) >= 1.0:
        raise NonConvergent(
            f"p = q + 1 series diverges for |z| >= 1 (z = {z})")


def _escalate(a, b, z):
    """Value of the cancelled series at float z from one mpmath.hyper call."""
    import mpmath   # imported here: most calls never escalate

    try:
        with _MP_LOCK, mpmath.workprec(ESCALATED_PREC_BITS):
            value = float(mpmath.hyper(a, b, z))
    except mpmath.libmp.NoConvergence as exc:
        raise NonConvergent(
            f"mpmath.hyper did not converge (z = {z}): {exc}") from exc
    if not math.isfinite(value):
        raise NonConvergent(f"series value overflows a double (z = {z})")
    return value


def pfq(params, z, target_rel_tol=DEFAULT_REL_TOL):
    """Evaluate pFq(a; b; z) for real z.

    Parameters
    ----------
    params : PfqParams
        Parameter vectors; common entries of a and b are cancelled before
        summation.
    z : float
        Argument.  For p = q + 1 only |z| < 1 is accepted.
    target_rel_tol : float
        Truncation target in [1e-15, 1e-6] of the double-precision pass;
        its stopping rule requires three consecutive terms below it and
        bounds the tail by twice the first neglected term.  The escalated
        path ignores it and returns the value rounded to double.

    Returns
    -------
    EvalResult

    Raises
    ------
    NonConvergent
        If p = q + 1 and |z| >= 1, if mpmath does not converge either, or
        if the value overflows a double.
    InvalidParams
        From parameter validation, or if z is not finite.
    """
    _check_tol(target_rel_tol)
    if not math.isfinite(z):
        raise InvalidParams(f"series argument z must be finite, got {z}")
    a, b = _cancel_common(params.a, params.b)
    z = float(z)
    _check_disk(a, b, z)
    if z == 0.0:
        return EvalResult(1.0, 0.0, 1, 53)
    s, err, terms, max_term, converged = _sum_float(
        a, b, z, float(target_rel_tol))
    if converged and s != 0.0 and max_term / abs(s) <= ESCALATION_RATIO:
        return EvalResult(s, err, terms, 53)
    value = _escalate(a, b, z)
    return EvalResult(value, math.ulp(value), terms, ESCALATED_PREC_BITS)


def _sum_float_many(a, b, z, tol):
    """Double-precision pass over every entry of a nonzero float array z.

    Each entry runs ``_sum_float``'s operations in the same order, so its
    sum and its acceptance are bit-identical to a scalar pass followed by
    ``pfq``'s escalation test; only the loop over k is shared, and entries
    leave it as they stop.  Returns (values, accepted): the sums, and a
    mask of the entries that need no escalation.
    """
    values = np.empty(z.size)
    accepted = np.zeros(z.size, dtype=bool)
    idx = np.arange(z.size)          # entries still summing
    s = np.ones(z.size)
    term = np.ones(z.size)
    max_term = np.ones(z.size)
    small_run = np.zeros(z.size, dtype=np.int64)
    with np.errstate(all="ignore"):   # Python floats overflow silently too
        for k in range(_MAX_TERMS):
            if not idx.size:
                break
            num = 1.0
            for ai in a:
                num *= ai + k
            den = 1.0
            for bj in b:
                den *= bj + k
            term = term * num / den * z / (k + 1.0)
            # a zero term ends the series exactly; adding it keeps s as is
            converged = term == 0.0
            s = s + term
            at = np.abs(term)
            max_term = np.maximum(max_term, at)
            small_run = np.where(at < tol * np.abs(s), small_run + 1, 0)
            tail = small_run >= 3
            if tail.any():
                num = 1.0
                for ai in a:
                    num *= ai + k + 1
                den = 1.0
                for bj in b:
                    den *= bj + k + 1
                nxt = np.abs(term * num / den * z / (k + 2.0))
                converged |= tail & (2.0 * nxt < tol * np.abs(s))
            finite = np.isfinite(s)
            done = converged | ~finite
            if done.any():
                values[idx[done]] = s[done]
                accepted[idx[done]] = (
                    converged & finite & (s != 0.0)
                    & (max_term / np.abs(s) <= ESCALATION_RATIO))[done]
                keep = ~done
                idx, z, s, term, max_term, small_run = (
                    x[keep] for x in (idx, z, s, term, max_term, small_run))
    values[idx] = s                  # term cap reached: not converged
    return values, accepted


def pfq_many(params, z, target_rel_tol=DEFAULT_REL_TOL):
    """Evaluate pFq(a; b; z) at every entry of a 1-D float array z.

    Validation and parameter cancellation run once per call; the
    double-precision pass runs over all entries at once, and the entries
    it does not accept escalate to ``mpmath.hyper`` one at a time, in
    array order.  Every value is bit-identical to ``pfq(params, z[i],
    target_rel_tol).value``.

    Returns
    -------
    numpy.ndarray
        float64 values, one per entry of z.

    Raises
    ------
    NonConvergent
        If p = q + 1 and some |z| >= 1, or as ``pfq`` for an escalated
        entry.
    InvalidParams
        If target_rel_tol is out of range, or z is not a 1-D array of
        finite values.
    """
    _check_tol(target_rel_tol)
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise InvalidParams(f"z must be a 1-D array, got shape {z.shape}")
    finite = np.isfinite(z)
    if not finite.all():
        bad = z[np.argmin(finite)]
        raise InvalidParams(f"series argument z must be finite, got {bad}")
    a, b = _cancel_common(params.a, params.b)
    if z.size:
        _check_disk(a, b, float(z[np.argmax(np.abs(z))]))
    out = np.ones(z.size)
    nonzero = np.flatnonzero(z != 0.0)
    values, accepted = _sum_float_many(a, b, z[nonzero],
                                       float(target_rel_tol))
    out[nonzero] = values
    for i in nonzero[~accepted].tolist():
        out[i] = _escalate(a, b, float(z[i]))
    return out


def pfq_minus_one(params, z, target_rel_tol=DEFAULT_REL_TOL):
    """Evaluate pFq(a; b; z) - 1 without subtractive cancellation.

    Uses the identity

        pFq(a; b; z) - 1 = (prod a / prod b) * z
                           * p+1Fq+1(1, a+1; 2, b+1; z),

    which keeps full relative accuracy for z near 0 where the direct
    subtraction would lose it.
    """
    if z == 0.0:
        return EvalResult(0.0, 0.0, 1, 53)
    coeff = 1.0
    for ai in params.a:
        coeff *= ai
    for bj in params.b:
        coeff /= bj
    coeff *= z
    shifted = PfqParams((1.0,) + tuple(x + 1.0 for x in params.a),
                        (2.0,) + tuple(x + 1.0 for x in params.b))
    inner = pfq(shifted, z, target_rel_tol)
    return EvalResult(coeff * inner.value,
                      abs(coeff) * inner.abs_error_estimate,
                      inner.terms_used, inner.precision_bits)


def merge_linear_combination(c, d, params, z, target_rel_tol=DEFAULT_REL_TOL):
    """Evaluate c * p+1Fq+1(1, a; 2, b; z) + d * pFq(a; b; z) as one series.

    The combination collapses to

        (c + d) * p+2Fq+2(1, (c+2d)/d, a; 2, (c+d)/d, b; z).

    Requires d != 0 and (c+d)/d not a nonpositive integer (that entry
    lands in the denominator parameters).
    """
    if d == 0:
        raise InvalidParams("merge_linear_combination requires d != 0")
    top = (c + 2.0 * d) / d
    bottom = (c + d) / d
    if _is_nonpositive_integer(bottom):
        raise InvalidParams(
            f"(c+d)/d = {bottom} is a nonpositive integer; the merged "
            "series has a degenerate denominator parameter")
    merged = PfqParams((1.0, top) + params.a, (2.0, bottom) + params.b)
    inner = pfq(merged, z, target_rel_tol)
    scale = c + d
    return EvalResult(scale * inner.value,
                      abs(scale) * inner.abs_error_estimate,
                      inner.terms_used, inner.precision_bits)


def f_form_derivatives(params, z, target_rel_tol=DEFAULT_REL_TOL):
    """First and second derivatives of f(z) = z * pFq(a; b; z).

    Term-wise differentiation gives

        f'(z)  = p+1Fq+1(2, a; 1, b; z)
        f''(z) = (prod a' / prod b') * p+1Fq+1(a'+1; b'+1; z)

    with a' = (2, a) and b' = (1, b).

    Returns
    -------
    (f, f_prime, f_double_prime) : tuple of float
    """
    f = z * pfq(params, z, target_rel_tol).value
    a1 = (2.0,) + params.a
    b1 = (1.0,) + params.b
    fp = pfq(PfqParams(a1, b1), z, target_rel_tol).value
    coeff = 1.0
    for ai in a1:
        coeff *= ai
    for bj in b1:
        coeff /= bj
    fpp = coeff * pfq(PfqParams(tuple(x + 1.0 for x in a1),
                                tuple(x + 1.0 for x in b1)),
                      z, target_rel_tol).value
    return f, fp, fpp
