"""Cancellation-safe evaluation of generalized hypergeometric series.

The functions here evaluate pFq(a; b; z) = sum_k (a)_k / (b)_k * z^k / k!
for real parameters and real z, together with three series manipulations
that the rest of the package relies on: subtracting the leading 1 without
cancellation, merging a linear combination of two related series into a
single higher-order series, and differentiating functions of the form
f(z) = z * pFq(a; b; z).

For large negative z the terms of these series grow to astronomical size
before decaying, while the sum itself stays of moderate size; plain double
precision then loses every significant digit.  Each value therefore comes
from the first of four tiers that accepts it; the first two judge by the
cancellation ratio max|term| / |sum|:

1. A double-precision pass, accepted when it converged with a ratio of at
   most ``ESCALATION_RATIO``.
2. A double-double pass: each number is an unevaluated sum hi + lo of two
   doubles, ~106 bits, built from error-free transforms (Dekker, "A
   floating-point technique for extending the available precision",
   Numer. Math. 1971; Hida, Li & Bailey, "Algorithms for quad-double
   precision floating point arithmetic", ARITH 2001).  It runs only when
   the double pass converged with a ratio of at most ``2 * DD_RATIO``, and
   is accepted when it converged with a ratio of at most ``DD_RATIO``.
   This reaches |z| ~ 215 on the multiplier series.
3. A double-precision large-|z| tier for a 1F2, a 2F3 or a 3F4 that
   splits into one of each, at z < 0 (``perispec._asymptotic``, imported
   only when an entry reaches it); the multipliers sum only 1F2s and
   2F3s.  It sums the expansion of DLMF 16.11, accepted when its truncation
   estimate is within ``target_rel_tol`` of its scale.  Its values carry
   ``precision_bits`` ``LARGE_Z_PRECISION_BITS`` and an error estimate of
   that truncation estimate plus a rounding allowance (see ``EvalResult``).
4. One ``mpmath.hyper`` call at the fixed working precision
   ``ESCALATED_PREC_BITS``, for every other entry.  mpmath detects the
   cancellation itself, raising its internal precision as needed.  The
   eigenvalues are checked against the quadrature oracle at
   |nu| delta = 400, i.e. z = -4e4.  ``mpmath`` is imported only when an
   entry reaches this tier.

Only entries that neither pass accepts try the third tier, so every value
the two passes serve keeps its bits whether that tier exists or not.

Each series pass is defined once, as a ``_Tier``: its start value, the
z-free data of its terms, built 64 at a time, how that data binds to z,
its term step, its sum update and the size of the next term.  Each piece
uses only + - * / and abs, so it gives the same bits on Python floats and
elementwise on float64 arrays.  One scalar loop, ``_sum``, and one array
loop, ``_sum_many``, carry the stopping rule for both passes, and both
return the cancellation ratio.  ``_verdict`` compares that ratio with the
tier's thresholds, the one place that does, and ``_past_the_passes``
serves what neither pass accepts; ``pfq`` and ``pfq_batch`` share both.

``pfq`` evaluates one argument.  ``pfq_batch`` evaluates a list of
(parameters, argument array) requests: it validates and cancels each
request's parameters once, numbers the distinct parameter sets, and runs
each series pass as one loop over the term index, each entry gathering its
term data from per-set tables that do not depend on z.  Entries are taken
in order of |z|, so entries that stop at similar term counts run together,
in blocks of at most ``BATCH_BLOCK``; each block's values go straight into
the one output array, so a pass holds ~25 bytes per entry plus one block's
working arrays.  The entries neither pass accepts try the large-|z| tier
one by one, and those it refuses go to mpmath batched per parameter set.
``pfq_many`` is the one-request case.  Both loops run the same tier
definitions in the same order, so every batch value, and the tier that
serves it, are bit-identical to ``pfq``.

Everything here is a pure function of its arguments and keeps no state
between calls, so results are bit-identical across calls within one
build.
"""

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NonConvergent

#: Default relative tolerance used when callers do not pass one.
DEFAULT_REL_TOL = 1e-13

#: Leave the double-precision pass when max|term| / |sum| exceeds this.
#: That pass loses roughly ``ratio * 3e-17`` in relative accuracy, so 1e3
#: keeps it at ~1e-13 or better.
ESCALATION_RATIO = 1e3

#: Accept a double-double sum when max|term| / |sum| is at most this.  The
#: cancellation then costs at most log2(1e13) ~ 43 of the ~106 bits,
#: leaving ~63, ten more than a double holds.  The rounding errors of the
#: term recurrence (~2^-104 relative per operation, a few hundred
#: operations of random sign) take a few of those ten, so the sum still
#: rounds to the double nearest the series value, or in rare cases to its
#: neighbour.  On the figure grid with |nu| up to 16, every entry above
#: ``ESCALATION_RATIO`` has a ratio below 5.5e12.
DD_RATIO = 1e13

#: ``precision_bits`` of a value from the double-double pass.
DD_PRECISION_BITS = 106

#: ``precision_bits`` of a value from the large-|z| tier.  That tier works
#: in double precision like the first; the value is one bit less so that it
#: names a tier of its own (see ``EvalResult``).
LARGE_Z_PRECISION_BITS = 52

#: Working precision of the mpmath tier.  Fixed, so results do not depend
#: on earlier calls; a few bits above double so the value rounds correctly.
ESCALATED_PREC_BITS = 64

#: Most entries a batch pass sums at once.  It caps the memory of the
#: pass's working arrays; within that cap, bigger blocks share the per-term
#: numpy overhead among more entries.
BATCH_BLOCK = 4096

_MAX_TERMS = 10000
_TOL_RANGE = (1e-15, 1e-6)

# the double-double pass stops on a tail below this, relative to the sum
_DD_TOL = 2.0 ** -60
# term tables are built this many terms at a time, while some entry still sums
_CHUNK = 64
# Dekker's splitting constant, 2^27 + 1
_SPLITTER = 134217729.0

# mpmath's working precision is process-global state; escalated calls
# serialize on this lock so concurrent callers stay safe
_MP_LOCK = threading.Lock()


def _is_nonpositive_integer(x):
    return x <= 0.0 and float(x).is_integer()


@dataclass(frozen=True)
class PfqParams:
    """Numerator and denominator parameter vectors of a pFq series.

    Parameters
    ----------
    a : sequence of float
        Numerator parameters (length p), finite.
    b : sequence of float
        Denominator parameters (length q), finite.  No entry may be zero
        or a negative integer, otherwise the series is undefined.

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
        if not all(math.isfinite(x) for x in a + b):
            raise InvalidParams(
                f"pFq parameters must be finite, got a = {a}, b = {b}")
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

    ``precision_bits`` names the tier that produced the value.

    Double-precision pass: 53.  ``abs_error_estimate`` is the a-posteriori
    truncation bound from the stopping rule (twice the first neglected
    term) and ``terms_used`` is the number of terms summed.

    Double-double pass: ``DD_PRECISION_BITS`` (106).  ``abs_error_estimate``
    is one double ulp of the value (its cancellation ratio was at most
    ``DD_RATIO``, so the error left is the rounding to a float) and
    ``terms_used`` is the number of terms that pass summed.

    Large-|z| tier: ``LARGE_Z_PRECISION_BITS`` (52), a label: the tier
    works in double precision.  ``abs_error_estimate`` is the truncation
    estimate (the smallest terms of the algebraic and oscillatory series,
    scaled) plus ``_asymptotic.LARGE_Z_ROUNDING`` (1 + sqrt|z|) eps of
    the value's scale, max(|algebraic terms|, |oscillatory envelope|);
    ``terms_used`` counts the terms of both parts.

    mpmath: ``ESCALATED_PREC_BITS`` (64).  ``abs_error_estimate`` is one
    double ulp of the value (mpmath computes it to more than double
    precision) and ``terms_used`` is the term count of the abandoned
    double-precision pass (mpmath does not report its own).
    """

    value: float
    abs_error_estimate: float
    terms_used: int
    precision_bits: int


def pochhammer(a, k):
    """Rising factorial a (a+1) ... (a+k-1), with the empty product = 1.

    a must be finite and k an integer >= 0.
    """
    if not isinstance(k, numbers.Integral) or k < 0:
        raise InvalidParams(f"pochhammer needs an integer k >= 0, got {k!r}")
    if not math.isfinite(a):
        raise InvalidParams(f"pochhammer needs a finite a, got {a!r}")
    out = 1.0
    for i in range(k):
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


# Double-double arithmetic.  A number is a pair (hi, lo) with
# hi = fl(hi + lo), standing for the exact sum hi + lo.  These functions
# use only + - * / on their arguments, so each runs unchanged on Python
# floats and elementwise on float64 arrays, with the same bits on both:
# IEEE 754 rounds every operation correctly, and neither fuses a multiply
# and an add into one rounding.

def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """``_two_sum`` for |a| >= |b| or a = 0, in three operations (Dekker)."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """(hi, lo) with hi + lo = a, each of at most 26 bits (Dekker)."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    """x + y for pairs x and y, accurate also when the two cancel."""
    s, e = _two_sum(x[0], y[0])
    t, f = _two_sum(x[1], y[1])
    s, e = _fast_two_sum(s, e + t)
    return _fast_two_sum(s, e + f)


def _dd_mul(x, y):
    """x * y for pairs x and y."""
    p, e = _two_prod(x[0], y[0])
    return _fast_two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_div(x, y):
    """x / y for pairs x and y: the double quotient plus one correction."""
    q1 = x[0] / y[0]
    ph, pl = _dd_mul(y, (q1, 0.0))
    s, e = _two_sum(x[0], -ph)
    return _fast_two_sum(q1, (s + ((e - pl) + x[1])) / y[0])


def _float_factors(a, b, start):
    """prod(a + k), prod(b + k) and k + 1 for k = start, ..., start + _CHUNK - 1.

    As three float64 arrays; each product takes its factors in parameter
    order, one rounding per factor, and an empty one is 1.
    """
    k = np.arange(start, start + _CHUNK, dtype=float)
    factors = np.add.outer(a + b, k)
    return (factors[:len(a)].prod(axis=0), factors[len(a):].prod(axis=0),
            k + 1.0)


def _dd_ratios(a, b, start):
    """Term ratios c_k = prod(a + k) / (prod(b + k) (k + 1)) in double-double.

    For k = start, ..., start + _CHUNK - 1, as two float64 arrays
    (hi, lo); each a_i + k and b_j + k is formed exactly.
    """
    k = np.arange(start, start + _CHUNK, dtype=float)
    num = _two_sum(a[0], k) if a else (np.ones(_CHUNK), 0.0 * k)
    for ai in a[1:]:
        num = _dd_mul(num, _two_sum(ai, k))
    den = (k + 1.0, 0.0 * k)
    for bj in b:
        den = _dd_mul(den, _two_sum(bj, k))
    return _dd_div(num, den)


@dataclass(frozen=True)
class _Tier:
    """One series pass, defined once for ``_sum`` and ``_sum_many``.

    A term and a sum are tuples: (value,) in double precision, (hi, lo) in
    double-double; both start at ``start``, the series' leading 1.
    ``build(a, b, start)`` forms the z-free data of the terms start, ...,
    start + _CHUNK - 1 as a tuple of arrays, so one chunk serves every
    entry of a parameter set, and ``bind(data, z)`` joins it to z.  With
    d_k the bound data of term k, ``step(term_k, d_k, z)`` is term k + 1,
    ``add(sum, term)`` the next sum and ``size(term_k, d_k, z)`` the
    magnitude of term k + 1, in double precision, that the stopping rule
    reads.  Each function uses only + - * / and abs, so it gives the same
    bits on Python floats and elementwise on float64 arrays.

    A pass serves an entry whose cancellation ratio is at most
    ``serves``.  It sends an entry it refuses to the next pass if the ratio
    is at most ``onward``, and past the series passes otherwise (see
    ``_verdict``).
    """

    start: tuple
    build: object
    bind: object
    step: object
    add: object
    size: object
    serves: float
    onward: float


def _float_step(t, d, z):
    return (t[0] * d[0] / d[1] * z / d[2],)


_DOUBLE = _Tier(
    start=(1.0,), build=_float_factors, bind=lambda data, z: data,
    step=_float_step, add=lambda s, t: (s[0] + t[0],),
    size=lambda t, d, z: abs(_float_step(t, d, z)[0]),
    serves=ESCALATION_RATIO, onward=2.0 * DD_RATIO)

# term k + 1 is term k times r_k = c_k z; the size reads c_k z in double
_DD = _Tier(
    start=(1.0, 0.0), build=_dd_ratios,
    bind=lambda c, z: (*_dd_mul(c, (z, 0.0)), c[0]),
    step=lambda t, r, z: _dd_mul(t, r), add=_dd_add,
    size=lambda t, r, z: abs(t[0] * r[2] * z),
    serves=DD_RATIO, onward=DD_RATIO)

# where ``_verdict`` sends an entry after a pass
_SERVED, _ONWARD, _PAST = 0, 1, 2


def _verdict(tier, ratio):
    """``_SERVED``, ``_ONWARD`` or ``_PAST`` for an entry ``tier`` summed.

    ``ratio`` is the pass's cancellation ratio: a float, or an array of
    one per entry, which gives an array of verdicts.
    """
    # bool arrays would add as an "or"; a uint8 1 makes one-byte verdicts
    return np.uint8(1) * (ratio > tier.serves) + (ratio > tier.onward)


def _sum(tier, a, b, z, tol):
    """One pass of ``tier`` over the series of (a, b) at a nonzero float z.

    The pass stops once three consecutive terms are below ``tol`` times the
    sum and twice the size of the next one is too.  Returns (sum,
    err_bound, terms, ratio): the sum rounded to double; the truncation
    bound, twice that next size (0 where a zero term ended the series, inf
    where the pass did not converge); the number of terms summed; and
    max|term| / |sum| when the pass converged to a finite nonzero sum, inf
    when the term cap was hit, a value became non-finite (or divided by a
    denominator that underflowed to zero, as on arrays), or the sum is 0.
    """
    step, add = tier.step, tier.add
    rows = []
    s = term = tier.start
    max_term = 1.0
    small_run = 0
    try:
        for k in range(_MAX_TERMS):
            if k + 1 >= len(rows):
                # one array pass binds a chunk, overflowing silently too
                with np.errstate(all="ignore"):
                    data = tier.bind(tier.build(a, b, len(rows)), z)
                rows += np.array(data).T.tolist()
            term = step(term, rows[k], z)
            at = abs(term[0])
            if at == 0.0:
                # a numerator parameter hit zero: the series ends exactly
                return (s[0], 0.0, k + 2,
                        max_term / abs(s[0]) if s[0] else math.inf)
            s = add(s, term)
            abs_s = abs(s[0])
            if not math.isfinite(abs_s):
                return s[0], math.inf, k + 2, math.inf
            if at > max_term:
                max_term = at
            if at < tol * abs_s:
                small_run += 1
                if small_run >= 3:
                    nxt = tier.size(term, rows[k + 1], z)
                    if 2.0 * nxt < tol * abs_s:
                        return s[0], 2.0 * nxt, k + 2, max_term / abs_s
            else:
                small_run = 0
    except ZeroDivisionError:
        return s[0], math.inf, k + 2, math.inf
    return s[0], math.inf, _MAX_TERMS, math.inf


def _check_tol(tol):
    if not (_TOL_RANGE[0] <= tol <= _TOL_RANGE[1]):
        raise InvalidParams(f"target_rel_tol {tol} outside [1e-15, 1e-6]")


def _check_disk(a, b, z):
    """Reject |z| >= 1 for a p = q + 1 series, whose radius is 1."""
    if len(a) == len(b) + 1 and abs(z) >= 1.0:
        raise NonConvergent(
            f"p = q + 1 series diverges for |z| >= 1 (z = {z})")


def _escalate(a, b, zs):
    """Values of the cancelled series at the floats ``zs`` from mpmath.hyper.

    The parameters are converted to mpf once for all arguments, and every
    call runs under one lock and one working-precision context.  An mpf
    converted from a float holds it exactly, and ``hyper`` classifies it
    (integer, small-denominator rational or real) just as it classifies
    the float, so the values are those of passing the floats.
    """
    import mpmath   # imported here: most calls never reach this tier

    values = []
    with _MP_LOCK, mpmath.workprec(ESCALATED_PREC_BITS):
        a_mp = [mpmath.mpf(x) for x in a]
        b_mp = [mpmath.mpf(x) for x in b]
        for z in zs:
            try:
                value = float(mpmath.hyper(a_mp, b_mp, z))
            except mpmath.libmp.NoConvergence as exc:
                raise NonConvergent(
                    f"mpmath.hyper did not converge (z = {z}): {exc}") from exc
            if not math.isfinite(value):
                raise NonConvergent(
                    f"series value overflows a double (z = {z})")
            values.append(value)
    return values


def _past_the_passes(a, b, zs, tol, terms):
    """EvalResults at the floats ``zs`` that neither series pass serves.

    Each z < 0 tries the large-|z| tier; the rest come from one
    ``_escalate`` call, labelled with ``terms``.  Neither tier's module is
    imported unless an entry reaches it.
    """
    out = [None] * len(zs)
    if min(zs) < 0.0:
        from ._asymptotic import large_z, large_z_form
        form = large_z_form(a, b)
        out = [large_z(form, z, tol) if z < 0.0 else None for z in zs]
    left = [i for i, res in enumerate(out) if res is None]
    if left:
        for i, value in zip(left, _escalate(a, b, [zs[i] for i in left])):
            out[i] = EvalResult(value, math.ulp(value), terms,
                                ESCALATED_PREC_BITS)
    return out


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
        bounds the tail by twice the first neglected term.  The
        large-|z| tier accepts a value whose truncation estimate is within
        it of the value's scale.  The double-double and mpmath tiers ignore
        it and return the value rounded to double.

    Returns
    -------
    EvalResult
        From the first tier that accepts the value (see the module
        docstring): the double pass (``precision_bits`` 53), the
        double-double pass (``DD_PRECISION_BITS``, for cancellation ratios
        up to ``DD_RATIO``), the large-|z| tier
        (``LARGE_Z_PRECISION_BITS``) or mpmath (``ESCALATED_PREC_BITS``).

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
    s, err, terms, ratio = _sum(_DOUBLE, a, b, z, float(target_rel_tol))
    verdict = _verdict(_DOUBLE, ratio)
    if verdict == _SERVED:
        return EvalResult(s, err, terms, 53)
    if verdict == _ONWARD:
        value, _, dd_terms, ratio = _sum(_DD, a, b, z, _DD_TOL)
        if _verdict(_DD, ratio) == _SERVED:
            return EvalResult(value, math.ulp(value), dd_terms,
                              DD_PRECISION_BITS)
    return _past_the_passes(a, b, [z], target_rel_tol, terms)[0]


class _TermTable:
    """Per-term data of several parameter sets, built as a pass needs it.

    ``build(a, b, start)`` returns a tuple of arrays over the terms start,
    ..., start + _CHUNK - 1 of one set (a ``_Tier``'s ``build``).
    ``table(k)`` returns that tuple at term k, each array holding one entry
    per set, so an entry gathers its own by its set index.  The data do not
    depend on z, so one table serves every block of a pass.
    """

    def __init__(self, params, build):
        self._params = params        # (a, b) of each set
        self._build = build
        self._rows = []

    def __call__(self, k):
        while k >= len(self._rows):
            start = len(self._rows)
            chunks = [self._build(a, b, start) for a, b in self._params]
            self._rows += zip(*(np.stack(part, axis=1)
                                for part in zip(*chunks)))
        return self._rows[k]


def _sum_many(tier, table, sets, z, tol):
    """``_sum`` over every entry of a nonzero float array z.

    Entry i sums the series of parameter set ``sets[i]``, gathering that
    set's term data at term k from ``table(k)``.  Each entry runs
    ``_sum``'s operations in the same order, so its sum and its ratio are
    bit-identical to a scalar pass; only the loop over k is shared, and
    entries leave it as they stop.  Returns (values, ratio), as ``_sum``
    defines them.
    """
    values = np.empty(z.size)
    ratio = np.full(z.size, np.inf)
    idx = np.arange(z.size)          # entries still summing
    s = term = tuple(np.full(z.size, x) for x in tier.start)
    max_term = np.ones(z.size)
    small_run = np.zeros(z.size, dtype=np.int64)
    with np.errstate(all="ignore"):   # Python floats overflow silently too
        for k in range(_MAX_TERMS):
            if not idx.size:
                break
            term = tier.step(term, tier.bind([x[sets] for x in table(k)], z),
                             z)
            # a zero term ends the series exactly; adding it keeps s as is
            converged = term[0] == 0.0
            s = tier.add(s, term)
            at = np.abs(term[0])
            abs_s = np.abs(s[0])
            max_term = np.maximum(max_term, at)
            small_run = np.where(at < tol * abs_s, small_run + 1, 0)
            tail = small_run >= 3
            if tail.any():
                nxt = tier.size(
                    term, tier.bind([x[sets] for x in table(k + 1)], z), z)
                converged |= tail & (2.0 * nxt < tol * abs_s)
            finite = np.isfinite(s[0])
            done = converged | ~finite
            if done.any():
                values[idx[done]] = s[0][done]
                # a zero sum divides to inf, as the scalar pass reports it
                ok = converged & finite
                ratio[idx[ok]] = (max_term / abs_s)[ok]
                keep = ~done
                idx, sets, z, max_term, small_run = (
                    x[keep] for x in (idx, sets, z, max_term, small_run))
                s, term = (tuple(x[keep] for x in v) for v in (s, term))
    values[idx] = s[0]               # term cap reached: not converged
    return values, ratio


def _in_blocks(tier, parameter_sets, sets, z, entries, tol, out):
    """``_sum_many`` over the ``entries`` of z, in blocks of ``BATCH_BLOCK``.

    Entry i sums the series of ``parameter_sets[sets[i]]`` into ``out[i]``.
    The blocks share one term table; no entries make one empty block.
    Returns the index arrays of the entries the tier sends onward and past.
    """
    used = np.zeros(len(parameter_sets), bool)
    used[sets[entries]] = True       # cast in buffers, not copied to intp
    row = np.cumsum(used) - 1        # a set's row in the table
    table = _TermTable([p for p, u in zip(parameter_sets, used) if u],
                       tier.build)
    sent = {_ONWARD: [], _PAST: []}
    for i in range(0, max(entries.size, 1), BATCH_BLOCK):
        blk = entries[i:i + BATCH_BLOCK]
        out[blk], ratio = _sum_many(tier, table, row[sets[blk]], z[blk], tol)
        verdict = _verdict(tier, ratio)
        for where, kept in sent.items():
            kept.append(blk[verdict == where])
    return [np.concatenate(kept) for kept in sent.values()]


def pfq_batch(requests, target_rel_tol=DEFAULT_REL_TOL):
    """Evaluate pFq(a; b; z) for every (PfqParams, z) pair of ``requests``.

    Each z is a 1-D float array.  Validation and parameter cancellation run
    once per request, and requests whose cancelled parameters agree share
    one parameter set.  The double pass streams every entry, and the
    double-double pass those it routes there, in |z|-ordered blocks into
    one output array; the entries neither accepts try the large-|z| tier,
    and those it refuses go to ``mpmath.hyper`` in one batch per parameter
    set.  Every value is bit-identical to ``pfq(params, z[i],
    target_rel_tol).value`` and comes from the same tier.

    Returns
    -------
    list of numpy.ndarray
        One float64 array per request, with one value per entry of its z.

    Raises
    ------
    NonConvergent
        If a request's p = q + 1 and some |z| >= 1, or as ``pfq`` for an
        entry that reaches mpmath.
    InvalidParams
        If target_rel_tol is out of range, or a z is not a 1-D array of
        finite values.
    """
    _check_tol(target_rel_tol)
    index = {}                       # cancelled (a, b) -> parameter set
    zs, set_of = [], []
    for params, z in requests:
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
        zs.append(z)
        set_of.append(index.setdefault((a, b), len(index)))
    bounds = np.cumsum([0] + [z.size for z in zs])
    z = np.concatenate([np.empty(0)] + zs)
    sets = np.repeat(np.array(set_of, np.min_scalar_type(len(index))),
                     np.diff(bounds))      # a byte per entry below 256 sets
    parameter_sets = list(index)
    # in order of |z|, the entries of a block stop at similar term counts;
    # z = 0 sorts first and keeps its value 1
    order = np.argsort(np.abs(z))[np.count_nonzero(z == 0.0):]
    out = np.ones(z.size)
    dd, rest = _in_blocks(_DOUBLE, parameter_sets, sets, z, order,
                          float(target_rel_tol), out)
    rest = np.concatenate(
        [rest, _in_blocks(_DD, parameter_sets, sets, z, dd, _DD_TOL, out)[1]])
    for j in sorted(set(sets[rest].tolist())):
        entries = rest[sets[rest] == j]
        out[entries] = [res.value for res in _past_the_passes(
            *parameter_sets[j], z[entries].tolist(), target_rel_tol, 0)]
    return [out[i:j] for i, j in zip(bounds[:-1], bounds[1:])]


def pfq_many(params, z, target_rel_tol=DEFAULT_REL_TOL):
    """Evaluate pFq(a; b; z) at every entry of a 1-D float array z.

    The one-request case of ``pfq_batch``: returns a float64 array whose
    entries are bit-identical to ``pfq(params, z[i], target_rel_tol).value``
    and come from the same tier, and raises as ``pfq_batch`` does.
    """
    return pfq_batch([(params, z)], target_rel_tol)[0]


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
