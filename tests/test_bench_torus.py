"""The benchmark's library program, bench/torus.py, against the public API.

The program is run unchanged, in its own interpreter, on a small input, so
a change to what the torus functions return that breaks the benchmark
program fails here too.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import perispec

ROOT = Path(__file__).resolve().parents[1]


def test_torus_program_matches_the_api(tmp_path):
    problem = {"n": 3, "delta": 0.5, "beta": 3.0, "mu": 1.0,
               "lambda_star": 0.4, "lengths": [4.5, 5.2, 7.1], "k_max": 2}
    rng = np.random.default_rng(3)
    half = np.array([k for k in itertools.product(range(-2, 3), repeat=3)
                     if k > (0, 0, 0)])
    coeffs = rng.standard_normal(half.shape) + 1j * rng.standard_normal(half.shape)
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    (in_dir / "problem.json").write_text(json.dumps(problem))
    np.savez(in_dir / "field.npz", modes=half, coeffs=coeffs)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(ROOT / "bench" / "torus.py"),
                    str(in_dir), str(out_dir)], env=env, check=True,
                   timeout=120)

    params = perispec.NonlocalParams(3, 0.5, 3.0)
    material = perispec.Material(1.0, 0.4)
    torus = perispec.TorusSpec(tuple(problem["lengths"]))
    table = perispec.spectrum_table(params, material, torus, 2)
    want_table = np.column_stack([table.modes, table.lambda1, table.lambda2])
    field = perispec.FourierField.from_half_spectrum(
        3, dict(zip(map(tuple, half.tolist()), coeffs)))
    back = perispec.solve_periodic(
        perispec.apply_operator(field, params, material, torus),
        params, material, torus)

    got_table = np.load(out_dir / "spectrum.npy")
    assert got_table.shape == (125, 5)
    assert got_table.tobytes() == want_table.tobytes()
    modes = np.load(out_dir / "roundtrip_modes.npy")
    assert modes.tolist() == [list(k) for k in back.coeffs]
    got_coeffs = np.load(out_dir / "roundtrip_coeffs.npy")
    assert got_coeffs.tobytes() == np.array(list(back.coeffs.values())).tobytes()
    assert np.max(np.abs(got_coeffs - np.array(
        [field.coeffs[k] for k in back.coeffs]))) <= 1e-10
