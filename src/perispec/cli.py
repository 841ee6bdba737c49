"""Command-line interface: figure data, verification sweep, spectrum tables.

Subcommands
-----------
figure
    Eigenvalue curves lambda1(|nu|), lambda2(|nu|) as long-format CSV,
    either for one (delta, beta) panel or for the default 12-panel grid.
spectrum
    Torus eigenvalue table as CSV, lexicographic in the mode index.
verify
    Random dual-path sweep (closed forms vs quadrature oracle) with a JSON
    report; exit code 0 only if every tuple agrees within tolerance.

All numeric CSV fields carry 17 significant digits so values round-trip
exactly; identical invocations produce byte-identical files.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import multipliers as mt
from .errors import InvalidParams, PerispecError
from .multipliers import Material, NonlocalParams
from .spectrum import TorusSpec, spectrum_table

#: Material curves of the reference figure: mu = 1, lambda* sweep.
FIGURE_LAMBDA_STARS = (-1.9, -1.0, 0.0, 1.0, 2.0)

#: Default (delta, beta) panel grid.  The kernel exponent column covers the
#: four qualitative regimes (near-local, asymptotically linear, logarithmic,
#: bounded); the horizon column covers near-zero and order-one nonlocality.
#: These values approximate the regimes rather than any published table.
FIGURE_DELTAS = (1e-3, 1.0, 2.0)


def figure_betas(n):
    return (n + 2 - 1e-3, n + 1.0, float(n), n - 1.0)


#: Absolute floor used by the verification pass criterion
#: |closed - quad| <= max(tol * |quad|, VERIFY_ABS_FLOOR).
VERIFY_ABS_FLOOR = 1e-8


def _fmt(x):
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class FigureJob:
    """One figure panel: eigenvalues on an equispaced |nu| grid."""

    n: int
    mu: float
    lambda_star_list: tuple
    delta: float
    beta: float
    nu_norm_min: float
    nu_norm_max: float
    samples: int

    def __post_init__(self):
        reals = (self.mu, self.delta, self.beta, self.nu_norm_min,
                 self.nu_norm_max) + tuple(self.lambda_star_list)
        if not all(math.isfinite(x) for x in reals):
            raise InvalidParams(f"figure parameters must be finite, got {reals}")
        if self.samples < 2:
            raise InvalidParams(f"samples must be >= 2, got {self.samples}")
        if not (0.0 <= self.nu_norm_min < self.nu_norm_max):
            raise InvalidParams(
                f"need 0 <= nu_norm_min < nu_norm_max, got "
                f"[{self.nu_norm_min}, {self.nu_norm_max}]")


FIGURE_HEADER = "n,delta,beta,mu,lambda_star,nu_norm,lambda1,lambda2"


def figure_rows(job):
    """Yield CSV rows for one panel.

    One lambda1 row per (lambda_star, sample); since lambda2 does not
    depend on lambda*, it is emitted once per sample in a trailing row
    whose lambda_star field is the sentinel NA.  The frequency is taken
    along the first axis (rotation invariance makes the direction
    immaterial); the series are evaluated once over the whole grid and
    combined per lambda*.
    """
    params = NonlocalParams(job.n, job.delta, job.beta)
    grid = np.linspace(job.nu_norm_min, job.nu_norm_max, job.samples)
    nu = np.zeros((job.samples, job.n))
    nu[:, 0] = grid
    prefix = f"{job.n},{_fmt(job.delta)},{_fmt(job.beta)},{_fmt(job.mu)}"
    heads = [f"{prefix},{_fmt(s)}" for s in job.lambda_star_list]
    materials = [Material(job.mu, s) for s in job.lambda_star_list]
    # lambda2 comes from the first pair; lambda* = 0 stands in for no curves
    lams = mt.eigenvalues_by_material(
        params, materials or [Material(job.mu, 0.0)], nu)
    lam1 = [l1.tolist() for l1, _ in lams]
    lam2 = lams[0][1].tolist()
    for i, nu_norm in enumerate(grid):
        nu_cell = _fmt(nu_norm)
        for head, col in zip(heads, lam1):
            yield f"{head},{nu_cell},{_fmt(col[i])},NA"
        yield f"{prefix},NA,{nu_cell},NA,{_fmt(lam2[i])}"


def _write_lines(path, lines):
    """Write atomically: no partial file survives an evaluation failure."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_figure_csv(job, path):
    _write_lines(path, [FIGURE_HEADER] + list(figure_rows(job)))


def _cmd_figure(args):
    base = dict(n=args.n, mu=args.mu,
                lambda_star_list=tuple(args.lambda_star or FIGURE_LAMBDA_STARS),
                nu_norm_min=args.nu_min, nu_norm_max=args.nu_max,
                samples=args.samples)
    if (args.delta is None) != (args.beta is None):
        raise InvalidParams("give both --delta and --beta, or neither")
    if args.delta is not None:
        write_figure_csv(FigureJob(delta=args.delta, beta=args.beta, **base),
                         args.out)
        return 0
    # validate every panel before creating the output directory
    jobs = [FigureJob(delta=delta, beta=beta, **base)
            for delta in FIGURE_DELTAS for beta in figure_betas(args.n)]
    os.makedirs(args.out, exist_ok=True)
    for job in jobs:
        name = f"figure_delta{job.delta:g}_beta{job.beta:g}.csv"
        write_figure_csv(job, os.path.join(args.out, name))
    return 0


def _cmd_spectrum(args):
    params = NonlocalParams(args.n, args.delta, args.beta)
    material = Material(args.mu, args.lambda_star)
    lengths = args.lengths or [2.0 * math.pi] * args.n
    torus = TorusSpec(tuple(lengths))
    records = spectrum_table(params, material, torus, args.k_max)
    header = ",".join(f"k{i + 1}" for i in range(args.n))
    header += ",nu_norm,lambda1,lambda2,multiplicity2"
    lines = [header]
    for rec in records:
        cells = [str(ki) for ki in rec.k]
        cells += [_fmt(np.linalg.norm(rec.nu_k)), _fmt(rec.lambda1),
                  _fmt(rec.lambda2), str(rec.multiplicity2)]
        lines.append(",".join(cells))
    _write_lines(args.out, lines)
    return 0


#: Closed-form twin of each quadrature bundle entry, as f(params, material, nu).
_CLOSED_FORMS = {
    "scalar": lambda p, m, nu: mt.scalar_multiplier(p, nu),
    "bond": lambda p, m, nu: mt.tensor_multiplier_bond(p, m, nu).matrix,
    "state": lambda p, m, nu: mt.tensor_multiplier_state(p, m, nu).matrix,
    "lambda1": mt.eigenvalue_parallel,
    "lambda2": mt.eigenvalue_transverse,
}


def _passes(closed, quad, tol):
    dev = np.abs(closed - quad)
    allow = np.maximum(tol * np.abs(quad), VERIFY_ABS_FLOOR)
    return bool(np.all(dev <= allow))


def _check_pinned(overrides, max_dim):
    """Reject a bad pinned tuple component before any draw uses it.

    A pinned n sizes the random direction and a pinned mu bounds the
    lambda* draw on [-2 mu, 3], so both are checked here rather than when
    their tuple is assembled.
    """
    for name, value in overrides.items():
        if not math.isfinite(value):
            raise InvalidParams(f"pinned {name} must be finite, got {value}")
    if "n" in overrides and not 1 <= overrides["n"] <= max_dim:
        raise InvalidParams(
            f"pinned n must satisfy 1 <= n <= {max_dim}, got {overrides['n']}")
    if "mu" in overrides:
        mu = Material(overrides["mu"], 0.0).mu
        if not math.isfinite(3.0 + 2.0 * mu):
            raise InvalidParams(
                f"pinned mu = {mu} overflows the lambda* sampling range "
                f"[-2 mu, 3]")


def run_verification(seed, count, tol, overrides=None):
    """Dual-path sweep over ``count`` random parameter tuples.

    Samples n in {1,2,3}, delta in [0.1, 4], beta in [-2, n+2-0.05],
    mu in [0.5, 3], lambda* in [-2 mu, 3], |nu| in [0, 20] with a random
    direction, and compares every closed-form quantity against its
    quadrature counterpart from one :func:`oracle.quadrature_bundle` call
    per tuple; each check also records the oracle's error estimate as
    ``quad_err``.  ``tol`` must be finite and >= 0 (0 leaves only the
    absolute floor).  ``overrides`` pins named tuple components (n, delta,
    beta, mu, lambda_star) to fixed values instead of sampling; a pinned n
    may be any n <= oracle.MAX_DIM = 8, a larger one raises InvalidParams.
    Pinned values are checked before any draw uses them.  A tuple whose
    |nu| delta exceeds oracle.MAX_PHASE = 400 raises InvalidParams.
    Returns the report dict.
    """
    from . import oracle   # imported here: scipy loads only for verify

    if count < 1:
        raise InvalidParams(f"count must be >= 1, got {count}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidParams(f"tol must be finite and >= 0, got {tol}")
    overrides = overrides or {}
    _check_pinned(overrides, oracle.MAX_DIM)
    rng = np.random.default_rng(seed)
    entries = []
    failures = 0
    for _ in range(count):
        n = int(overrides.get("n", rng.integers(1, 4)))
        params = NonlocalParams(
            n,
            overrides.get("delta", rng.uniform(0.1, 4.0)),
            overrides.get("beta", rng.uniform(-2.0, n + 2 - 0.05)))
        mu = overrides.get("mu", rng.uniform(0.5, 3.0))
        material = Material(
            mu, overrides.get("lambda_star", rng.uniform(-2.0 * mu, 3.0)))
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        nu = rng.uniform(0.0, 20.0) * direction

        checks = {}
        for name, (quad, err) in oracle.quadrature_bundle(
                params, material, nu).items():
            closed = np.asarray(_CLOSED_FORMS[name](params, material, nu),
                                dtype=float)
            quad = np.asarray(quad, dtype=float)
            checks[name] = {"closed": closed.tolist(), "quad": quad.tolist(),
                            "deviation": float(np.max(np.abs(closed - quad))),
                            "pass": _passes(closed, quad, tol),
                            "quad_err": err}
        ok = all(chk["pass"] for chk in checks.values())
        failures += 0 if ok else 1
        entries.append({
            "n": n, "delta": params.delta, "beta": params.beta,
            "mu": material.mu, "lambda_star": material.lambda_star,
            "nu": nu.tolist(), "checks": checks, "pass": ok,
        })
    return {
        "seed": seed, "count": count, "tol": tol,
        "abs_floor": VERIFY_ABS_FLOOR,
        "entries": entries, "failures": failures,
        "all_pass": failures == 0,
    }


def _cmd_verify(args):
    overrides = {name: getattr(args, name)
                 for name in ("n", "delta", "beta", "mu", "lambda_star")
                 if getattr(args, name) is not None}
    report = run_verification(args.seed, args.count, args.tol, overrides)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        _write_lines(args.out, [text])
    else:
        print(text)
    return 0 if report["all_pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="perispec",
        description="Fourier multipliers and spectra of linear peridynamic "
                    "operators: figure data, verification, spectrum tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser(
        "figure",
        help="eigenvalue curves as CSV; one panel with --delta/--beta, "
             "else the default 12-panel (delta, beta) grid")
    fig.add_argument("--n", type=int, default=3)
    fig.add_argument("--mu", type=float, default=1.0)
    fig.add_argument("--lambda-star", type=float, action="append",
                     help="repeatable; default " + repr(list(FIGURE_LAMBDA_STARS)))
    fig.add_argument("--delta", type=float, default=None)
    fig.add_argument("--beta", type=float, default=None)
    fig.add_argument("--nu-min", type=float, default=0.0)
    fig.add_argument("--nu-max", type=float, default=15.0)
    fig.add_argument("--samples", type=int, default=1000)
    fig.add_argument("--out", required=True,
                     help="output CSV path (single panel) or directory (grid)")
    fig.set_defaults(func=_cmd_figure)

    ver = sub.add_parser(
        "verify",
        help="random closed-form vs quadrature sweep; JSON report; "
             "exit 1 on any disagreement")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--count", type=int, default=100)
    ver.add_argument("--tol", type=float, default=1e-6,
                     help="relative tolerance, finite and >= 0 "
                          "(absolute floor 1e-8)")
    ver.add_argument("--n", type=int, default=None,
                     help="pin the dimension (any n <= 8) instead of "
                          "sampling it from {1, 2, 3}")
    ver.add_argument("--delta", type=float, default=None,
                     help="pin the horizon instead of sampling it")
    ver.add_argument("--beta", type=float, default=None,
                     help="pin the kernel exponent instead of sampling it")
    ver.add_argument("--mu", type=float, default=None,
                     help="pin the shear modulus instead of sampling it")
    ver.add_argument("--lambda-star", type=float, default=None,
                     help="pin the second Lame parameter instead of sampling it")
    ver.add_argument("--out", default=None, help="report path; default stdout")
    ver.set_defaults(func=_cmd_verify)

    spec = sub.add_parser("spectrum", help="torus eigenvalue table as CSV")
    spec.add_argument("--n", type=int, default=3)
    spec.add_argument("--delta", type=float, required=True)
    spec.add_argument("--beta", type=float, required=True)
    spec.add_argument("--mu", type=float, default=1.0)
    spec.add_argument("--lambda-star", type=float, default=0.0)
    spec.add_argument("--lengths", type=float, nargs="+", default=None,
                      help="edge lengths; default 2*pi per axis")
    spec.add_argument("--k-max", type=int, default=4)
    spec.add_argument("--out", required=True)
    spec.set_defaults(func=_cmd_spectrum)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PerispecError, OSError) as exc:
        print(f"perispec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
