"""The large-|z| tier of :mod:`perispec.hypergeom`.

Double-precision 1F2 and 2F3 at large negative z, from their expansion at
z -> -inf as an algebraic part, a few powers of -z, plus an oscillatory
part, cos(2 sqrt(-z) + phase) times a series in 1 / sqrt(-z) (DLMF 16.11;
Luke, "The Special Functions and Their Approximations", 1969), each
truncated at its smallest term.  It takes a 1F2, a 2F3 whose a1 - a2 is
at least ``LARGE_Z_MIN_GAP`` from every integer, and a 3F4 holding the
pairs (s + 1; s) and (1; 2), such as the merged series of lambda1, which
it splits into one of each.  A value at z < 0 is accepted when its
truncation estimate is within ``target_rel_tol`` of its scale (the larger
of the algebraic terms and the oscillatory envelope).  The multiplier
series, n <= 8, agree with 200-bit mpmath within the truncation estimate
plus ``LARGE_Z_ROUNDING`` (1 + sqrt|z|) eps of that scale, wherever the
estimate accepts them, down to z = -1e7; the sqrt|z| is the phase's own
conditioning.

``hypergeom`` tries this tier for the entries at z < 0 that neither of
its series passes accepts, and sends those it refuses on to mpmath.  It
imports this module only when an entry reaches the tier, as it imports
mpmath only for the tier after it, so ``import perispec`` and the work
that stays in the series passes do not load it.
"""

import math

from .hypergeom import (LARGE_Z_PRECISION_BITS, EvalResult, _DD_TOL,
                        _is_nonpositive_integer)

#: The tier refuses a 2F3 whose a1 - a2 lies within this of an
#: integer.  There the algebraic terms can have poles that cancel (at
#: a1 = a2 they merge into a log term): at 1e-3 from a1 = a2 the
#: multiplier series keep an error of up to 81 (1 + sqrt|z|) eps of the
#: value, against 200-bit mpmath.
LARGE_Z_MIN_GAP = 1e-3

#: The tier's rounding allowance: its values agree with 200-bit
#: mpmath within this many (1 + sqrt|z|) eps of the scale, on top of the
#: truncation estimate (measured: up to 2 on the multiplier series, n <= 8,
#: z down to -1e7).  The sqrt|z| comes from the phase 2 sqrt|z|, which one
#: ulp of z or of its square root moves by that much.
LARGE_Z_ROUNDING = 4.0

# most terms of an asymptotic series the tier sums
_LARGE_Z_TERMS = 64


def _rgamma(x):
    """1 / Gamma(x), which is 0 at the poles x = 0, -1, -2, ..."""
    return 0.0 if _is_nonpositive_integer(x) else 1.0 / math.gamma(x)


def _up_to_smallest(coeffs, w, terminates):
    """Terms c_k w^k of an asymptotic series, truncated near its smallest.

    ``coeffs`` starts with c_0 = 1; ``terminates`` says that every
    coefficient after the last one given is 0.  The series is followed
    through the envelope max(|t_(k-1)|, |t_k|) of its nonzero terms, which
    steps over a single small term where the c_k change sign; a term that
    is exactly 0 is kept but does not enter the envelope, since the c_k
    may go on past it.  The terms stop where the envelope falls below
    ``_DD_TOL`` (the series has converged) or grows (it diverges).
    Returns (terms, estimate), the estimate being the envelope there, or
    0 if a terminating series ends first; None if the coefficients of a
    series that does not terminate run out first.
    """
    terms = []
    last = []       # |t| of the last two nonzero terms
    wk = 1.0
    for c in coeffs:
        t = c * wk
        if t != 0.0:
            envelope = max(abs(t), last[-1]) if last else abs(t)
            if envelope < _DD_TOL or (
                    len(last) == 2 and envelope > max(last)):
                return terms, envelope
            last = last[-1:] + [abs(t)]
        terms.append(t)
        wk *= w
    return (terms, 0.0) if terminates else None


def _expansion(a, b):
    """Parameter-only data of the z -> -inf expansion of a 1F2 or 2F3.

    With x = -z (DLMF 16.11; Luke, "The Special Functions and Their
    Approximations", 1969),

        pFq(a; b; -x) ~ sum_j H_j(x) + E(x),

    an algebraic part with one term per numerator parameter,

        H_j = G_j x^(-a_j) sum_k d_jk (-1/x)^k,
        G_j = prod Gamma(b) prod_(i != j) Gamma(a_i - a_j)
              / (prod_(i != j) Gamma(a_i) prod_l Gamma(b_l - a_j)),
        d_jk = (a_j)_k prod_l (1 + a_j - b_l)_k
               / (k! prod_(i != j) (1 + a_j - a_i)_k),

    and an oscillatory part with X = (sum a - sum b + 1/2) / 2,

        E = pi^(-1/2) prod Gamma(b) / prod Gamma(a) x^X
            Re[exp(i (pi X + 2 sqrt x)) sum_k c_k (-i / (2 sqrt x))^k].

    The c_k follow the four-term recurrence of functions.wolfram.com
    (Hypergeometric2F3/06/02/03/01/0002), written in the elementary
    symmetric functions of a and b; a 1F2 is its case a_2 = b_3 = 0.
    Returns (algebraic, oscillatory): a tuple of (a_j, G_j, d_j,
    terminates), and (prod Gamma(b) / (sqrt(pi) prod Gamma(a)), X,
    cos(pi X), sin(pi X), c, terminates), with the d_j and c tuples of at
    most ``_LARGE_Z_TERMS`` coefficients; a series that terminates ends at
    its last nonzero coefficient.  Returns None when a Gamma factor
    overflows or hits a pole, or a d_jk divides by 0.
    """
    try:
        gamma_b = math.prod(math.gamma(x) for x in b)
        algebraic = []
        for j, aj in enumerate(a):
            others = a[:j] + a[j + 1:]
            coeff = gamma_b * math.prod(_rgamma(bl - aj) for bl in b)
            for ai in others:
                coeff *= math.gamma(ai - aj) / math.gamma(ai)
            d = [1.0]
            for k in range(_LARGE_Z_TERMS - 1):
                num = aj + k
                for bl in b:
                    num *= 1.0 + aj - bl + k
                if num == 0.0:
                    terminates = True     # d_j(k+1) and all after are 0
                    break
                den = k + 1.0
                for ai in others:
                    den *= 1.0 + aj - ai + k
                d.append(d[-1] * num / den)
            else:
                terminates = False
            algebraic.append((aj, coeff, tuple(d), terminates))
        gamma_ratio = gamma_b / math.prod(math.gamma(x) for x in a)
    except (ValueError, OverflowError, ZeroDivisionError):
        return None
    a1, a2 = (a + (0.0,))[:2]
    b1, b2, b3 = (b + (0.0,))[:3]
    sa, pa = a1 + a2, a1 * a2
    sb, qb, pb = b1 + b2 + b3, b1 * b2 + b1 * b3 + b2 * b3, b1 * b2 * b3
    ex = 0.5 * (sa - sb + 0.5)
    c1 = 2.0 * (qb - pa + 0.25 * (3.0 * sa + sb - 2.0) * (sa - sb) - 0.1875)
    c = [1.0, c1, 0.5 * c1 * c1 + (
        -16.0 * (2.0 * sa - 3.0) * (qb - pa) + 32.0 * pb
        + 4.0 * (-8.0 * sa * sa + 11.0 * sa + 8.0 * pa + sb - 2.0) * (sa - sb)
        - 3.0) / 16.0]
    for k in range(3, _LARGE_Z_TERMS):
        m = k - 1.0
        u = k - 2.0 * ex
        r4 = (u - 3.0) * (u - 2.0 * b1 - 1.0) * (u - 2.0 * b2 - 1.0) * (
            u - 2.0 * b3 - 1.0)
        r3 = (4.0 * m**3 - 6.0 * (4.0 * ex + sb) * m * m
              + 2.0 * (24.0 * ex * ex + 12.0 * sb * ex + 4.0 * qb + sb - 1.0)
              * m - 32.0 * ex**3 - 24.0 * sb * ex * ex - 4.0 * qb - 8.0 * pb
              - 4.0 * (4.0 * qb + sb - 1.0) * ex + 2.0 * sb - 1.0)
        r2 = (5.0 * m * m + 2.0 * (-10.0 * ex + sa - 3.0 * sb + 3.0) * m
              + 2.0 * c1)
        c.append((r4 * c[k - 3] - r3 * c[k - 2] + r2 * c[k - 1]) / (2.0 * k))
    # three zeros in a row make every later c_k 0: the series terminates
    terminates = c[-3:] == [0.0, 0.0, 0.0]
    while terminates and c[-1] == 0.0:
        c.pop()
    return tuple(algebraic), (gamma_ratio / math.sqrt(math.pi), ex,
                              math.cos(math.pi * ex), math.sin(math.pi * ex),
                              tuple(c), terminates)


def _expansion_value(expansion, x):
    """(value, truncation estimate, scale, terms) of ``_expansion`` at -x.

    The scale is max(sum_j |H_j|, |oscillatory envelope|), the size of the
    parts before they cancel, which sets the rounding error.  None if a
    series runs out of coefficients before its smallest term, or a power
    of x overflows.
    """
    algebraic, (gamma_ratio, ex, cos_px, sin_px, c, c_ends) = expansion
    value = estimate = magnitude = 0.0
    terms_used = 0
    try:
        for aj, coeff, d, d_ends in algebraic:
            series = _up_to_smallest(d, -1.0 / x, d_ends)
            if series is None:
                return None
            terms, tail = series
            factor = coeff * x ** -aj
            term = factor * math.fsum(terms)
            value += term
            magnitude += abs(term)
            estimate += abs(factor) * tail
            terms_used += len(terms)
        series = _up_to_smallest(c, 0.5 / math.sqrt(x), c_ends)
        if series is None:
            return None
        terms, tail = series
        # sum_k c_k (-i w)^k = re + i im: the powers of -i cycle 1, -i, -1, i
        re = math.fsum(terms[0::4]) - math.fsum(terms[2::4])
        im = math.fsum(terms[3::4]) - math.fsum(terms[1::4])
        factor = gamma_ratio * x ** ex
    except OverflowError:
        return None
    t = 2.0 * math.sqrt(x)
    cos_t, sin_t = math.cos(t), math.sin(t)
    # Re[exp(i (pi X + t)) (re + i im)], by the angle-sum formulas
    oscillatory = factor * ((cos_px * cos_t - sin_px * sin_t) * re
                            - (sin_px * cos_t + cos_px * sin_t) * im)
    envelope = abs(factor) * math.hypot(re, im)
    return (value + oscillatory, estimate + abs(factor) * tail,
            max(magnitude, envelope), terms_used + len(terms))


def _without(values, v):
    """The tuple ``values`` with its first ``v`` removed."""
    i = values.index(v)
    return values[:i] + values[i + 1:]


def _checked_expansion(a, b):
    """``_expansion`` of a 1F2, or of a 2F3 whose a1 - a2 is at least
    ``LARGE_Z_MIN_GAP`` from every integer; None for any other series.

    Built afresh on every call (~0.1 ms): ``pfq_batch`` builds one plan
    per parameter set, and ``pfq`` one per entry that reaches the tier."""
    if (len(a), len(b)) == (2, 3):
        gap = a[0] - a[1]
        if abs(gap - round(gap)) < LARGE_Z_MIN_GAP:
            return None
    elif (len(a), len(b)) != (1, 2):
        return None
    return _expansion(a, b)


def large_z_form(a, b):
    """The tier's plan for the cancelled series (a, b), or None.

    A plan is a tuple of (weight, ``_expansion``) whose weighted sum is
    the series.  A 1F2 or 2F3 that ``_checked_expansion`` takes is one
    expansion.  A 3F4 holding the pairs (s + 1; s) and (1; 2) splits in
    two: (s + 1)_k / (s)_k = 1 + k / s makes it F + z F' / s, where F is
    the 2F3 without the first pair, and z F' = G - F, with G the 1F2
    without either pair.  lambda1's merged series
    (1, 5/2, h; 2, 3/2, n/2 + 2, h + 1) is (F + 2 G) / 3 that way.
    """
    if (len(a), len(b)) != (3, 4):
        expansion = _checked_expansion(a, b)
        return None if expansion is None else ((1.0, expansion),)
    for s in b:
        if s + 1.0 in a and s not in (1.0, 2.0) and 1.0 in a and 2.0 in b:
            a_f, b_f = _without(a, s + 1.0), _without(b, s)
            f = _checked_expansion(a_f, b_f)
            g = _checked_expansion(_without(a_f, 1.0), _without(b_f, 2.0))
            if f is not None and g is not None:
                return ((s - 1.0) / s, f), (1.0 / s, g)
    return None


def large_z(form, z, tol):
    """The tier's EvalResult at the float z < 0, or None.

    ``form`` is a ``large_z_form`` plan (None refuses every entry).  The
    value is served when the truncation estimate is at most ``tol`` times
    the scale.  That alone decides how close to 0 the tier reaches: for
    the multiplier series, n <= 8, from |z| ~ 65 at ``tol`` = 1e-13 and
    |z| ~ 11 at 1e-6, with the error within the estimate plus rounding.
    ``abs_error_estimate`` adds the rounding allowance
    ``LARGE_Z_ROUNDING (1 + sqrt|z|) eps`` of the scale.  ``pfq`` and
    ``pfq_batch`` both serve an entry through this one function, so they
    agree bit for bit.
    """
    if form is None:
        return None
    x = -z
    value = estimate = scale = 0.0
    terms_used = 0
    for weight, expansion in form:
        part = _expansion_value(expansion, x)
        if part is None:
            return None
        value += weight * part[0]
        estimate += abs(weight) * part[1]
        scale += abs(weight) * part[2]
        terms_used += part[3]
    if not (math.isfinite(value) and estimate <= tol * scale):
        return None
    rounding = LARGE_Z_ROUNDING * (1.0 + math.sqrt(x)) * 2.0**-52 * scale
    return EvalResult(value, estimate + rounding, terms_used,
                      LARGE_Z_PRECISION_BITS)
