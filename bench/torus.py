"""Library workload: a torus spectrum table plus an apply/solve round trip.

This is the program the ``torus-roundtrip`` workload times; it uses only the
public perispec API, the way a researcher's script would.

Usage::

    python3 bench/torus.py INPUT_DIR OUTPUT_DIR

INPUT_DIR holds ``problem.json`` (n, delta, beta, mu, lambda_star, lengths,
k_max) and ``field.npz`` (``modes``, ``coeffs``: one half-spectrum of a real
vector field).  OUTPUT_DIR receives ``spectrum.npy`` (one row per mode:
k_1..k_n, lambda1, lambda2, in table order) and ``roundtrip_modes.npy`` /
``roundtrip_coeffs.npy`` (the field after ``solve_periodic(apply_operator(f))``).
"""

import json
import os
import sys

import numpy as np

import perispec


def main(argv):
    in_dir, out_dir = argv
    with open(os.path.join(in_dir, "problem.json")) as fh:
        prob = json.load(fh)
    with np.load(os.path.join(in_dir, "field.npz")) as half:
        modes, coeffs = half["modes"], half["coeffs"]

    params = perispec.NonlocalParams(prob["n"], prob["delta"], prob["beta"])
    material = perispec.Material(prob["mu"], prob["lambda_star"])
    torus = perispec.TorusSpec(tuple(prob["lengths"]))
    table = perispec.spectrum_table(params, material, torus, prob["k_max"])
    field = perispec.FourierField.from_half_spectrum(
        prob["n"], {tuple(k): c for k, c in zip(modes.tolist(), coeffs)})
    image = perispec.apply_operator(field, params, material, torus)
    back = perispec.solve_periodic(image, params, material, torus)

    np.save(os.path.join(out_dir, "spectrum.npy"),
            np.array([[*rec.k, rec.lambda1, rec.lambda2] for rec in table]))
    keys = list(back.coeffs)
    np.save(os.path.join(out_dir, "roundtrip_modes.npy"), np.array(keys))
    np.save(os.path.join(out_dir, "roundtrip_coeffs.npy"),
            np.array([back.coeffs[k] for k in keys]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
