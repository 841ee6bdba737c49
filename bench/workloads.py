"""The benchmark's workloads: seeded inputs, program command lines, checks.

A workload turns (seed, invocation index) into the inputs of one program
run, writes any input files, and returns the program's command line after
the interpreter.  The program sees only those generated inputs, never the
seed.  After the run, outside the timed region, ``check`` reads the outputs,
counts the items processed and lists every problem it finds.

Why each workload exists (see also README.md):

figure-grid
    The default 12-panel ``perispec figure`` grid.  Deep-cancellation series
    at delta = 2 escalate to big floats, so the escalated ``hypergeom`` pass
    dominates; the quadrature oracle is never called.
verify-sweep
    ``perispec verify``: the oracle's quadrature rules and refinement levels
    dominate; closed-form series work is a few percent.
torus-roundtrip
    A library script on ~10^4 lattice modes: many cheap, heavily repeated
    float-path series calls and per-mode work in ``multipliers`` and
    ``spectrum``; no escalation and no oracle.
"""

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

#: verify's pass rule: |closed - quad| <= max(VERIFY_TOL |quad|, VERIFY_ABS_FLOOR)
VERIFY_TOL = 1e-6
VERIFY_ABS_FLOOR = 1e-8

#: Largest relative per-mode residual of solve_periodic(apply_operator(f)) - f.
ROUNDTRIP_TOL = 1e-10

#: Golden-ratio step between the jitter draws of successive program runs.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class CheckResult:
    items: int = 0
    problems: list = field(default_factory=list)


def digests(out_dir):
    """sha256 of every output file, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _oracle_validated(n, delta, beta, nu_norm):
    """Inside the parameter box that ``perispec verify`` samples."""
    return (n in (1, 2, 3) and 0.1 <= delta <= 4.0
            and -2.0 <= beta <= n + 2 - 0.05 and 0.0 < nu_norm <= 20.0)


def _oracle_mismatch(label, n, delta, beta, mu, lambda_star, nu, which, closed):
    """Compare a closed-form eigenvalue with its quadrature twin.

    Returns a problem string, or None when verify's pass rule holds.
    """
    from perispec import Material, NonlocalParams, lambda1_quad, lambda2_quad

    params = NonlocalParams(n, delta, beta)
    quad_fn = lambda1_quad if which == "lambda1" else lambda2_quad
    quad, _ = quad_fn(params, Material(mu, lambda_star), np.asarray(nu))
    if abs(closed - quad) <= max(VERIFY_TOL * abs(quad), VERIFY_ABS_FLOOR):
        return None
    return f"{label}: {which} closed {closed!r} vs quadrature {float(quad)!r}"


def _jitter(seed, i):
    """Position in [0, 1) of program run ``i``'s jittered input.

    Runs come in antithetic pairs (x, 1 - x) and the pairs step by the
    golden ratio, so every run of the benchmark covers the interval evenly
    and its median does not hang on one draw.
    """
    x = (np.random.default_rng(seed).random() + (i // 2) * _GOLDEN) % 1.0
    return 1.0 - x if i % 2 else x


def _finite_or_na(cell):
    if cell == "NA":
        return True
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


class FigureGrid:
    name = "figure-grid"
    samples = 1000
    panels = 12
    header = "n,delta,beta,mu,lambda_star,nu_norm,lambda1,lambda2"

    def inputs(self, seed, i):
        rng = np.random.default_rng([seed, i])
        return {"nu_max": 14.0 + 2.0 * _jitter(seed, i),
                "lambda_stars": rng.uniform(-1.9, 2.0, 5).tolist()}

    def program(self, inputs, in_dir, out_dir):
        argv = ["-m", "perispec.cli", "figure", "--samples", str(self.samples),
                "--nu-max", repr(inputs["nu_max"]), "--out", out_dir]
        for value in inputs["lambda_stars"]:
            argv += ["--lambda-star", repr(value)]
        return argv

    def check(self, inputs, out_dir, rng):
        result = CheckResult()
        names = sorted(os.listdir(out_dir))
        if len(names) != self.panels:
            result.problems.append(f"{len(names)} panels, expected {self.panels}")
        rows_per_panel = self.samples * (len(inputs["lambda_stars"]) + 1)
        for name in names:
            with open(os.path.join(out_dir, name)) as fh:
                lines = fh.read().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            result.items += len(rows)
            if not lines or lines[0] != self.header:
                result.problems.append(f"{name}: bad header")
            if len(rows) != rows_per_panel:
                result.problems.append(
                    f"{name}: {len(rows)} rows, expected {rows_per_panel}")
            if not rows or not all(len(row) == 8 and all(map(_finite_or_na, row))
                                   for row in rows):
                result.problems.append(f"{name}: malformed or non-finite row")
                continue
            # one seeded row per panel inside the oracle's validated box
            n, delta, beta = int(rows[0][0]), float(rows[0][1]), float(rows[0][2])
            candidates = [row for row in rows
                          if _oracle_validated(n, delta, beta, float(row[5]))]
            if not candidates:
                continue
            row = candidates[int(rng.integers(len(candidates)))]
            nu = [float(row[5])] + [0.0] * (n - 1)
            if row[4] == "NA":
                problem = _oracle_mismatch(name, n, delta, beta, float(row[3]),
                                           0.0, nu, "lambda2", float(row[7]))
            else:
                problem = _oracle_mismatch(name, n, delta, beta, float(row[3]),
                                           float(row[4]), nu, "lambda1",
                                           float(row[6]))
            if problem:
                result.problems.append(problem)
        return result


class VerifySweep:
    name = "verify-sweep"
    count = 40

    def inputs(self, seed, i):
        return {"seed": int(np.random.default_rng([seed, i]).integers(2**31))}

    def program(self, inputs, in_dir, out_dir):
        return ["-m", "perispec.cli", "verify", "--seed", str(inputs["seed"]),
                "--count", str(self.count),
                "--out", os.path.join(out_dir, "report.json")]

    def check(self, inputs, out_dir, rng):
        result = CheckResult()
        try:
            with open(os.path.join(out_dir, "report.json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            result.problems.append(f"no readable report: {exc}")
            return result
        entries = report.get("entries", [])
        result.items = len(entries)
        if len(entries) != self.count:
            result.problems.append(f"{len(entries)} tuples, expected {self.count}")
        if report.get("all_pass") is not True or report.get("failures") != 0:
            result.problems.append(
                f"verify reports {report.get('failures')} failing tuples")
        return result


class TorusRoundtrip:
    name = "torus-roundtrip"
    n = 3
    k_max = 10
    delta = 0.5
    beta = 3.0
    mu = 1.0
    oracle_samples = 2

    def _box(self):
        return list(itertools.product(range(-self.k_max, self.k_max + 1),
                                      repeat=self.n))

    def inputs(self, seed, i):
        rng = np.random.default_rng([seed, i])
        lengths = rng.uniform(4.0, 8.0, self.n).tolist()
        lambda_star = float(rng.uniform(-1.9, 2.0))
        half = [k for k in self._box() if k >= tuple(-x for x in k)]
        coeffs = (rng.standard_normal((len(half), self.n))
                  + 1j * rng.standard_normal((len(half), self.n)))
        coeffs[half.index((0,) * self.n)] = 0.0   # the zero mode is not solvable
        return {"lengths": lengths, "lambda_star": lambda_star,
                "modes": np.array(half), "coeffs": coeffs}

    def program(self, inputs, in_dir, out_dir):
        problem = {"n": self.n, "delta": self.delta, "beta": self.beta,
                   "mu": self.mu, "lambda_star": inputs["lambda_star"],
                   "lengths": inputs["lengths"], "k_max": self.k_max}
        with open(os.path.join(in_dir, "problem.json"), "w") as fh:
            json.dump(problem, fh)
        np.savez(os.path.join(in_dir, "field.npz"), modes=inputs["modes"],
                 coeffs=inputs["coeffs"])
        return [os.path.join(_BENCH_DIR, "torus.py"), in_dir, out_dir]

    def check(self, inputs, out_dir, rng):
        result = CheckResult()
        box = np.array(self._box())
        try:
            table = np.load(os.path.join(out_dir, "spectrum.npy"))
            keys = np.load(os.path.join(out_dir, "roundtrip_modes.npy"))
            back = np.load(os.path.join(out_dir, "roundtrip_coeffs.npy"))
        except (OSError, ValueError) as exc:
            result.problems.append(f"missing output: {exc}")
            return result
        result.items = len(table)
        if table.shape != (len(box), self.n + 2) or not np.array_equal(
                table[:, :self.n], box):
            result.problems.append("spectrum table does not cover the mode box in order")
            return result
        if not np.all(np.isfinite(table)):
            result.problems.append("non-finite eigenvalue in the spectrum table")

        expected = {}
        for k, c in zip(map(tuple, inputs["modes"].tolist()), inputs["coeffs"]):
            expected[k] = c
            expected[tuple(-x for x in k)] = np.conj(c)
        if back.shape != (len(expected), self.n) or set(
                map(tuple, keys.tolist())) != set(expected):
            result.problems.append("round trip does not return every mode")
            return result
        want = np.array([expected[k] for k in map(tuple, keys.tolist())])
        err = np.linalg.norm(back - want, axis=1)
        scale = np.linalg.norm(want, axis=1)
        bad = err > ROUNDTRIP_TOL * scale
        if np.any(bad):
            worst = float(np.max(err / np.where(scale > 0, scale, 1.0)))
            result.problems.append(
                f"round trip: {int(bad.sum())} modes exceed {ROUNDTRIP_TOL} "
                f"relative residual (worst {worst:.3e})")

        nus = 2.0 * math.pi * box / np.asarray(inputs["lengths"])
        norms = np.linalg.norm(nus, axis=1)
        usable = np.flatnonzero(
            [_oracle_validated(self.n, self.delta, self.beta, x) for x in norms])
        for row in rng.choice(usable, self.oracle_samples, replace=False):
            for which, col in (("lambda1", self.n), ("lambda2", self.n + 1)):
                problem = _oracle_mismatch(
                    f"mode {tuple(box[row].tolist())}", self.n, self.delta, self.beta,
                    self.mu, inputs["lambda_star"], nus[row], which,
                    float(table[row, col]))
                if problem:
                    result.problems.append(problem)
        return result


WORKLOADS = {w.name: w for w in (FigureGrid(), VerifySweep(), TorusRoundtrip())}
