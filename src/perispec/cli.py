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
import contextlib
import itertools
import json
import math
import os
import random
import stat
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import multipliers as mt
from .errors import InvalidParams, PerispecError
from .multipliers import Material, NonlocalParams, _check_phase
from .spectrum import TorusSpec, _box_spectrum, _rows

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

#: Most |nu| samples a figure panel accepts: its stated size reach.  A grid
#: holds every panel's values before it writes, and peaks at ~185 MB
#: resident at the cap; larger counts are rejected before any array is
#: built.
MAX_SAMPLES = 100_000

#: Most tuples a verify sweep accepts: its stated size reach.  A sweep
#: draws every tuple before it builds a rule and holds every entry of its
#: report; larger counts are rejected before any draw.
MAX_COUNT = 10_000


#: Samples whose figure rows are formatted as one piece of text.
_ROW_BLOCK = 256


def _fmt(x):
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class FigureJob:
    """One figure panel: eigenvalues on an equispaced |nu| grid.

    Checked before any array is built; NonlocalParams and Material check
    n, delta, beta, mu and each lambda*."""

    n: int
    mu: float
    lambda_star_list: tuple
    delta: float
    beta: float
    nu_norm_min: float
    nu_norm_max: float
    samples: int

    def __post_init__(self):
        params = NonlocalParams(self.n, self.delta, self.beta)
        for lambda_star in self.lambda_star_list or (0.0,):
            Material(self.mu, lambda_star)
        if not 2 <= self.samples <= MAX_SAMPLES:
            raise InvalidParams(
                f"samples must lie in [2, MAX_SAMPLES = {MAX_SAMPLES}], got "
                f"{self.samples}")
        if not (0.0 <= self.nu_norm_min < self.nu_norm_max):
            raise InvalidParams(
                f"need 0 <= nu_norm_min < nu_norm_max, got "
                f"[{self.nu_norm_min}, {self.nu_norm_max}]")
        _check_phase(params.delta, self.nu_norm_max)


FIGURE_HEADER = "n,delta,beta,mu,lambda_star,nu_norm,lambda1,lambda2"


def figure_values(jobs):
    """Evaluate panels: per job, (|nu| grid, lambda1 per lambda*, lambda2).

    The frequency is taken along the first axis (rotation invariance makes
    the direction immaterial), so its |nu|^2 is grid * grid, the bits
    ``multipliers._frequencies``' matmul forms for (|nu|, 0, ..., 0);
    FigureJob has checked the reach, and the closed forms check |nu|^2.
    Every series of every panel is summed in one array pass over all their
    |nu| grids; each panel forms lambda1 once per lambda* and lambda2,
    which reads only mu, once.  A panel's values do not depend on the
    panels it is evaluated with.
    """
    requests, grids = [], []
    for job in jobs:
        grid = np.linspace(job.nu_norm_min, job.nu_norm_max, job.samples)
        with np.errstate(over="ignore"):   # _closed reports an overflow
            nn2 = grid * grid
        requests.append((NonlocalParams(job.n, job.delta, job.beta), nn2, [
            *[(Material(job.mu, s), "lambda1") for s in job.lambda_star_list],
            (Material(job.mu, 0.0), "lambda2")]))   # lambda2 reads only mu
        grids.append(grid)
    return [(grid, lams[:-1], lams[-1])
            for grid, lams in zip(grids, mt._closed(requests))]


def figure_rows(job, values):
    """Yield CSV text for one panel, from ``values`` = figure_values([job])[0].

    One lambda1 row per (lambda_star, sample); since lambda2 does not
    depend on lambda*, it is emitted once per sample in a trailing row
    whose lambda_star field is the sentinel NA.  Each item holds the rows
    of up to ``_ROW_BLOCK`` samples, joined by newlines without a trailing
    one, formatted with one ``%`` over a per-sample template.
    """
    grid, lam1, lam2 = values
    prefix = f"{job.n},{_fmt(job.delta)},{_fmt(job.beta)},{_fmt(job.mu)}"
    rows = [f"{prefix},{_fmt(s)},%s,%.17g,NA" for s in job.lambda_star_list]
    rows.append(f"{prefix},NA,%s,NA,%.17g")
    for i in range(0, grid.size, _ROW_BLOCK):
        nu_cells = [_fmt(x) for x in grid[i:i + _ROW_BLOCK].tolist()]
        # per sample: (|nu| cell, value) for each row, as the template reads
        columns = [c for col in [*lam1, lam2]
                   for c in (nu_cells, col[i:i + _ROW_BLOCK].tolist())]
        template = "\n".join(rows * len(nu_cells))
        yield template % tuple(itertools.chain.from_iterable(zip(*columns)))


def _check_out(path, directory=False):
    """Refuse an existing ``path`` that is not a regular file (a directory
    when ``directory``): writing would replace it, and a device, pipe or
    socket must be left as it is."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return
    if not (stat.S_ISDIR(mode) if directory else stat.S_ISREG(mode)):
        kind = "directory" if directory else "regular file"
        raise InvalidParams(f"--out {path} exists and is not a {kind}")


def _missing_dirs(path):
    """The directories os.makedirs(path) would create, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _umask():
    """The process umask: reading it means setting it, so it is set back."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _commit(files, directory=None):
    """Write every (path, lines) of ``files``, or leave every target as it was.

    Each target is checked with :func:`_check_out` and its lines are
    written to a new temporary file beside it (``tempfile.mkstemp``, so no
    existing file is opened), with the mode ``open`` gives a new file; the
    temporaries replace their targets only once every one of them is
    complete.  ``directory``, if given, is created first.  On any
    exception, KeyboardInterrupt included, the temporaries and the
    directories this call created are removed before it propagates.  The
    renames themselves are the one step that, failing part-way, would leave
    the earlier targets replaced.
    """
    new_dirs = _missing_dirs(directory) if directory else []
    mode = 0o666 & ~_umask()
    written = []                     # (temporary, target)
    try:
        if directory:
            os.makedirs(directory, exist_ok=True)
        for path, lines in files:
            _check_out(path)
            fd, tmp = tempfile.mkstemp(
                prefix=os.path.basename(path) + ".", suffix=".tmp",
                dir=os.path.dirname(path) or ".")
            written.append((tmp, path))
            with os.fdopen(fd, "w", newline="\n") as fh:
                os.fchmod(fd, mode)
                for line in lines:
                    fh.write(line + "\n")
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        for path in new_dirs:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _cmd_figure(args):
    base = dict(n=args.n, mu=args.mu,
                lambda_star_list=tuple(args.lambda_star or FIGURE_LAMBDA_STARS),
                nu_norm_min=args.nu_min, nu_norm_max=args.nu_max,
                samples=args.samples)
    if (args.delta is None) != (args.beta is None):
        raise InvalidParams("give both --delta and --beta, or neither")
    # validate every panel and its target, and evaluate them all, before
    # anything is written
    if args.delta is not None:
        jobs = [FigureJob(delta=args.delta, beta=args.beta, **base)]
        directory, paths = None, [args.out]
    else:
        jobs = [FigureJob(delta=delta, beta=beta, **base)
                for delta in FIGURE_DELTAS for beta in figure_betas(args.n)]
        directory = args.out
        _check_out(directory, directory=True)
        paths = [os.path.join(directory, f"figure_delta{job.delta:g}"
                              f"_beta{job.beta:g}.csv") for job in jobs]
    for path in paths:
        _check_out(path)
    values = figure_values(jobs)
    _commit([(path, itertools.chain([FIGURE_HEADER], figure_rows(job, vals)))
             for job, vals, path in zip(jobs, values, paths)], directory)
    return 0


def _cmd_spectrum(args):
    _check_out(args.out)
    params = NonlocalParams(args.n, args.delta, args.beta)
    material = Material(args.mu, args.lambda_star)
    lengths = args.lengths or [2.0 * math.pi] * args.n
    torus = TorusSpec(tuple(lengths))
    modes, _, nn2, lam1, lam2 = _box_spectrum(params, material, torus,
                                              args.k_max)
    nu_norm = np.sqrt(nn2)    # |nu|^2 as _frequencies formed it
    header = ",".join(f"k{i + 1}" for i in range(args.n))
    header += ",nu_norm,lambda1,lambda2,multiplicity2"
    row = ",".join(["%d"] * args.n + ["%.17g"] * 3 + [str(args.n - 1)])
    cells = _rows(*modes.T, nu_norm, lam1, lam2)
    _commit([(args.out, itertools.chain([header], (row % r for r in cells)))])
    return 0


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


def _draw_tuples(seed, count, overrides):
    """Draw ``count`` verify tuples (params, material, nu) from ``seed``.

    Per tuple, in this order: n, delta, beta, mu, lambda*, the n normal
    components of the direction, then |nu|.  A pinned component still
    consumes its draw, so pinning one leaves the draws of the others as
    they are (a pinned n changes how many direction components follow).
    """
    rng = random.Random(seed)
    tuples = []
    for _ in range(count):
        n = int(overrides.get("n", rng.randrange(1, 4)))
        params = NonlocalParams(
            n,
            overrides.get("delta", rng.uniform(0.1, 4.0)),
            overrides.get("beta", rng.uniform(-2.0, n + 2 - 0.05)))
        mu = overrides.get("mu", rng.uniform(0.5, 3.0))
        material = Material(
            mu, overrides.get("lambda_star", rng.uniform(-2.0 * mu, 3.0)))
        direction = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        direction /= np.linalg.norm(direction)
        tuples.append((params, material, rng.uniform(0.0, 20.0) * direction))
    return tuples


def run_verification(seed, count, tol, overrides=None, encode=None):
    """Dual-path sweep over ``count`` random parameter tuples.

    Samples n in {1,2,3}, delta in [0.1, 4], beta in [-2, n+2-0.05],
    mu in [0.5, 3], lambda* in [-2 mu, 3], |nu| in [0, 20] with a random
    direction, and compares each quantity of one
    :func:`multipliers.closed_bundle` call per tuple against its twin from
    one :func:`oracle.quadrature_bundles` call over every tuple, drawn
    first; each check also records the oracle's error estimate as
    ``quad_err``.  The tuples come from Python's ``random.Random(seed)``,
    so identical calls draw identical tuples within one Python version
    (Python does not promise its streams across versions).  ``seed`` must
    be >= 0 and ``count`` in [1, MAX_COUNT].  ``tol`` must be finite and
    >= 0 (0 leaves only the absolute floor).  ``overrides`` pins named
    tuple components (n, delta, beta, mu, lambda_star) to fixed values
    instead of sampling; a pinned n may be any n <= oracle.MAX_DIM = 8, a
    larger one raises InvalidParams.  Pinned values are checked before any
    draw uses them.  A tuple past the oracle's reach (|nu| delta above
    oracle.MAX_PHASE = 400, or a kernel scale too large or small for a
    double) raises InvalidParams.  Returns the report dict.  ``encode``, if
    given, is applied to each entry as its tuple finishes, and the report
    holds what it returns in place of the entry.
    """
    from . import oracle   # imported here: only verify needs the oracle

    if not 1 <= count <= MAX_COUNT:
        raise InvalidParams(
            f"count must lie in [1, MAX_COUNT = {MAX_COUNT}], got {count}")
    if seed < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidParams(f"tol must be finite and >= 0, got {tol}")
    overrides = overrides or {}
    _check_pinned(overrides, oracle.MAX_DIM)
    tuples = _draw_tuples(seed, count, overrides)
    entries = []
    failures = 0
    for (params, material, nu), quads in zip(
            tuples, oracle.quadrature_bundles(tuples)):
        closed_values = mt.closed_bundle(params, material, nu)
        checks = {}
        for name, (quad, err) in quads.items():
            closed = np.asarray(closed_values[name], dtype=float)
            quad = np.asarray(quad, dtype=float)
            checks[name] = {"closed": closed.tolist(), "quad": quad.tolist(),
                            "deviation": float(np.max(np.abs(closed - quad))),
                            "pass": _passes(closed, quad, tol),
                            "quad_err": err}
        ok = all(chk["pass"] for chk in checks.values())
        failures += 0 if ok else 1
        entry = {
            "n": params.n, "delta": params.delta, "beta": params.beta,
            "mu": material.mu, "lambda_star": material.lambda_star,
            "nu": nu.tolist(), "checks": checks, "pass": ok,
        }
        entries.append(entry if encode is None else encode(entry))
    return {
        "seed": seed, "count": count, "tol": tol,
        "abs_floor": VERIFY_ABS_FLOOR,
        "entries": entries, "failures": failures,
        "all_pass": failures == 0,
    }


def _entry_text(entry):
    """A report entry's JSON text, indented to its depth in the report."""
    text = json.dumps(entry, indent=2, sort_keys=True)
    return "    " + text.replace("\n", "\n    ")


def _report_lines(report):
    """The text of json.dumps(report, indent=2, sort_keys=True) in pieces,
    for a report whose entries are already their :func:`_entry_text`; no
    piece holds more than one entry."""
    # the only null of the summary marks where the entries go
    head, _, tail = json.dumps({**report, "entries": None}, indent=2,
                               sort_keys=True).partition("null")
    entries = report["entries"]
    yield head + "["
    for i, text in enumerate(entries, 1):
        yield text + "," if i < len(entries) else text
    yield "  ]" + tail


def _cmd_verify(args):
    if args.out:
        _check_out(args.out)
    overrides = {name: getattr(args, name)
                 for name in ("n", "delta", "beta", "mu", "lambda_star")
                 if getattr(args, name) is not None}
    # each entry becomes its text as its tuple finishes, so the sweep never
    # holds every entry's values; the head waits for all_pass
    report = run_verification(args.seed, args.count, args.tol, overrides,
                              encode=_entry_text)
    if args.out:
        _commit([(args.out, _report_lines(report))])
    else:
        for line in _report_lines(report):
            print(line)
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


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv):
    """Join ``--opt VALUE`` into ``--opt=VALUE`` when VALUE is a negative float.

    argparse reads a token that starts with '-' as an option unless it
    looks like a plain negative number such as ``-1`` or ``-.5``, so
    ``--lambda-star -1e-3`` (``repr`` writes floats below 1e-4 in
    e-notation) would be refused without the ``=``.
    """
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and len(prev) > 2 and "=" not in prev
                and token.startswith("-") and _is_float(token)):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    try:
        return args.func(args)
    except (PerispecError, OSError) as exc:
        print(f"perispec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
