"""Gauss-Jacobi rules for the quadrature oracle, built with numpy alone.

:func:`gauss_rules` returns the nodes and weights of the weight
(1-x)^a (1+x)^b on [-1, 1] for a list of (N, a, b) keys.  It builds them
all in one Newton loop (Golub & Welsch 1969; Hale & Townsend 2013), whose
nodes are stacked so that each step of the three-term recurrence serves
every rule at once; each rule has the bits of building it alone.  Nothing
is kept between calls: the caller holds the rules it was given.  Only
:mod:`perispec.oracle` imports this module, so it shares no code with the
series path.
"""

import math

import numpy as np

from .errors import NonConvergent


#: Largest max(|a|, |b|) seeded from the asymptotic node formula.  At a = 0
#: its rules equal the eigenvalue-seeded ones from b = -0.999 to 10.75 for N
#: up to 2088, and from b = 11 Newton fails on them, so 8 keeps a margin;
#: verify's default box needs b = n + 1 - beta <= 6 and the sphere rules
#: a = b <= 2.5.  Larger exponents take the eigenvalue seed.
_ASYMPTOTIC_SEED_MAX = 8.0

#: Newton passes allowed per rule: the asymptotic seed converges within 7
#: (7 at b = -0.999, 6 at b = 8), the eigenvalue seed within 3.
_NEWTON_PASSES = 10


def _jacobi_recurrence(npts, a, b):
    """Coefficients of p_{k+1} = (2x - c_k) p_k - d_k p_{k-1}, p_0 = 1.

    Arrays over k < npts (d_0 = 0 is unused); p_k = 2^k times the monic
    Jacobi polynomial of degree k; c_k/2 and sqrt(d_k)/2 are the diagonal
    and off-diagonal of the Jacobi matrix.  The k = 0 and k = 1 entries
    are written out where the general form is 0/0 (a + b = 0 or -1).
    """
    k = np.arange(npts, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 2.0 * (b * b - a * a) / (s * (s + 2.0))
        d = (16.0 * k * (k + a) * (k + b) * (k + a + b)
             / (s * s * (s + 1.0) * (s - 1.0)))
    c[0], d[0] = 2.0 * (b - a) / (a + b + 2.0), 0.0
    if npts > 1:
        d[1] = (16.0 * (1.0 + a) * (1.0 + b)
                / ((a + b + 2.0) ** 2 * (a + b + 3.0)))
    return c, d


def _jacobi_values(x, n, fam, c, d):
    """(p_N, p_{N-1}, log scale) at nodes x of rules of N = n nodes.

    Nodes come longest rule first, so step k of the recurrence runs over
    the prefix of nodes with N > k.  Row k of c and d holds c_k and d_k of
    every (a, b), and node i takes column fam[i].  Every 32 steps both
    values are divided by |p_k| + |p_{k-1}| per node and the log of that
    factor is accumulated, so no exponent pair can overflow or underflow
    them; Newton steps use only their ratio.
    """
    ends = np.searchsorted(-n, -np.arange(n[0]))      # nodes with N > k
    out = np.empty((2, x.size))
    log_scale = np.zeros_like(x)
    x2 = x + x
    p0, p1 = np.ones_like(x), x2 - c[0][fam]
    for k in range(1, n[0]):
        m = ends[k]
        if m < p1.size:                # the rules of k nodes are done
            out[:, m:p1.size] = p1[m:], p0[m:]
            p0, p1, x2, fam = p0[:m], p1[:m], x2[:m], fam[:m]
        t = x2 - c[k][fam]
        t *= p1
        t -= d[k][fam] * p0
        p0, p1 = p1, t
        if not k % 32:
            scale = np.abs(p1) + np.abs(p0)
            p0, p1 = p0 / scale, p1 / scale
            log_scale[:m] += np.log(scale)
    out[:, :p1.size] = p1, p0
    return out[0], out[1], log_scale


def jacobi_mass(a, b):
    """2^(a+b+1) B(a+1, b+1), the integral of (1-x)^a (1+x)^b over [-1, 1]."""
    if a + b + 2.0 < 171.0:
        return (2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
                / math.gamma(a + b + 2.0))
    # Gamma overflows here; lgamma loses a few ulps per unit of its value
    return math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                    + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))


def gauss_rules(keys):
    """Read-only Gauss rules on [-1, 1], one per key (N, a, b).

    Rule (N, a, b) has N ascending nodes and the weights of (1-x)^a
    (1+x)^b.  Built with numpy alone (Golub & Welsch 1969; Hale & Townsend
    2013): Newton's method on P_N^(a,b)(cos theta) in theta, with P_N and
    P_{N-1} from the three-term recurrence.  Seeds: while max(|a|, |b|) <=
    _ASYMPTOTIC_SEED_MAX, the interior asymptotic formula, in O(N) memory,
    theta_k ~ phi_k + [(1/4 - a^2) cot(phi_k/2) - (1/4 - b^2)
    tan(phi_k/2)] / (2N + a + b + 1)^2 with phi_k = (2k + a - 1/2) pi /
    (2N + a + b + 1); a rule with a == b takes it on the nodes x > 0 only
    (the rest by symmetry, the middle one of odd N exactly 0).  Larger
    exponents take the eigenvalues of the dense N x N Jacobi matrix.  A
    rule whose nodes come out not ascending and separated (two nodes on
    one root, as the formula gives far past its range) raises
    NonConvergent, as does one that Newton does not settle.  The weights
    are 1 / (dP_N/dtheta)^2, which keeps the 1 - x^2 factor of the usual
    formula out of the arithmetic, scaled to the exact mass 2^(a+b+1)
    B(a+1, b+1).  A rule's Newton passes stop once its step is too small
    to matter, |step| (|g| + N) <= 1e-8 with g = P''/P' at a node (theta
    form of the Jacobi ODE); the weights take that last step into account
    through the same ODE, so no further pass is made.

    The distinct keys are built in one loop: their nodes are stacked
    longest rule first, each Newton pass steps the recurrence once for
    all of them, rules with equal (a, b) share its coefficients, and each
    rule leaves the loop on its own test.  Every node and weight repeats
    the operations of building its rule alone, so its bits do not depend
    on the other keys; a repeated key is served the same arrays.
    """
    todo = sorted(set(keys), reverse=True)
    rules = dict(zip(todo, _newton(todo))) if todo else {}
    return [rules[key] for key in keys]


def _newton(todo):
    """The rules of the distinct keys ``todo``, longest first."""
    families = {}                  # (a, b) -> (column of c and d, longest N)
    for npts, a, b in todo:
        families.setdefault((a, b), (len(families), npts))
    c, d = np.empty((2, todo[0][0], len(families)))
    for (a, b), (col, npts) in families.items():
        c[:npts, col], d[:npts, col] = _jacobi_recurrence(npts, a, b)
    rows, theta = [], []
    for npts, a, b in todo:
        s = 2.0 * npts + a + b
        # P_N / P_{N-1} in the scaling of p, folded into the derivative
        # formula (s (1-x^2) dP_N/dx = N ((a-b) - s x) P_N
        # + 2 (N+a)(N+b) P_{N-1})
        e = (8.0 * npts * (npts + a) * (npts + b) * (npts + a + b)
             / (s * (s - 1.0)) if npts > 1
             else 8.0 * (1.0 + a) * (1.0 + b) / (a + b + 2.0))
        col = families[a, b][0]
        seeded = max(abs(a), abs(b)) <= _ASYMPTOTIC_SEED_MAX
        symmetric = seeded and a == b
        if seeded:
            # theta descends so that x = cos(theta) ascends; a symmetric
            # rule seeds its nodes x >= 0 only, largest first
            k = (np.arange(1, npts - npts // 2 + 1) if symmetric
                 else np.arange(npts, 0, -1))
            phi = (2.0 * k + a - 0.5) * (math.pi / (s + 1.0))
            tan = np.tan(0.5 * phi)
            # (1/4 - a^2) cot - (1/4 - b^2) tan, written so that a == b
            # adds an exact zero to the symmetric form
            theta.append(phi + ((0.25 - a * a) * (1.0 / tan - tan)
                                + (b * b - a * a) * tan) / (s + 1.0) ** 2)
        else:
            jacobi = (np.diag(0.5 * c[:npts, col])
                      + np.diag(0.5 * np.sqrt(d[1:npts, col]), 1))
            x = np.linalg.eigvalsh(jacobi, UPLO="U")
            theta.append(np.arccos(np.clip(x, -1.0, 1.0)))
        rows.append((npts, a, b, s, e, col, theta[-1].size, symmetric))
    theta = np.concatenate(theta)
    n, a, b, s, e, col, size, mirror = map(np.array, zip(*rows))
    live = np.arange(len(todo))    # rules still in Newton, longest first
    rule = np.repeat(live, size)   # the rule of each stacked node
    rules = [None] * len(todo)
    for _ in range(_NEWTON_PASSES):
        x = np.cos(theta)
        sin = np.sin(theta)
        n_i, s_i, a_i, b_i = n[rule], s[rule], a[rule], b[rule]
        pn, pm, log_scale = _jacobi_values(x, n_i, col[rule], c, d)
        # -s sin(theta) dP_N/dtheta, in the scaling of p
        dpn = n_i * ((a_i - b_i) - s_i * x) * pn + e[rule] * pm
        step = s_i * sin * pn / dpn
        theta = theta + step
        g = ((b_i - a_i) - (a_i + b_i + 1.0) * x) / sin
        ends = np.cumsum(size[live])
        done = np.maximum.reduceat(np.abs(step) * (np.abs(g) + n_i),
                                   ends - size[live]) <= 1e-8
        for i, end in zip(live[done], ends[done]):
            at = slice(end - size[i], end)
            x_i = np.cos(theta[at])
            if mirror[i]:          # a symmetric rule: nodes x > 0 built
                half = n[i] // 2
                if n[i] % 2:
                    x_i[-1] = 0.0
                x_i = np.concatenate([-x_i[:half], x_i[::-1]])
            # Newton can converge to a root that another node holds, or
            # past an end of [0, pi]; true nodes lie about 2 pi / (s + 1)
            # apart in theta, never below 6 / (s + 1)
            if not (np.all((theta[at] > 0.0) & (theta[at] < math.pi))
                    and np.all(np.diff(np.arccos(x_i)) < -1.0 / (s[i] + 1.0))):
                npts, a_i, b_i = todo[i]
                raise NonConvergent(
                    f"Gauss-Jacobi nodes for N = {npts}, (a, b) = ({a_i}, "
                    f"{b_i}) converged to a wrong rule: its nodes are not "
                    f"ascending and separated")
            # dP_N/dtheta at the new nodes: P'' = g P' - N (N+a+b+1) P in
            # theta, and P = -step P' here; the stopping rule puts every
            # term past the first order below 1e-16 relative
            dpn_i = dpn[at] * (1.0 + step[at] * g[at])
            log_w = 2.0 * (np.log(sin[at]) - np.log(np.abs(dpn_i))
                           - log_scale[at])
            w = np.exp(log_w - log_w.max())
            if mirror[i]:
                w = np.concatenate([w[:half], w[::-1]])
            w *= jacobi_mass(*todo[i][1:]) / w.sum()
            x_i.flags.writeable = w.flags.writeable = False
            rules[i] = x_i, w
        keep = ~done[np.searchsorted(live, rule)]
        live, theta, rule = live[~done], theta[keep], rule[keep]
        if not live.size:
            return rules
    npts, a, b = todo[live[0]]
    raise NonConvergent(
        f"Gauss-Jacobi nodes for N = {npts}, (a, b) = ({a}, {b}) did not "
        f"converge in {_NEWTON_PASSES} Newton passes")
