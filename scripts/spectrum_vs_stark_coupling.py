#!/usr/bin/env python3
"""Energy spectrum of the Rabi-Stark model vs the Stark coupling.

Sweeps u through the collapse point at fixed delta = omega, g = 0.2 omega,
writing numeric levels alongside the analytic JC-like branches.  Past
u = 2 omega the classification column flips to UnboundedBelow: the lowest
truncated eigenvalue keeps diving as the cutoff doubles.  At u = 2 omega
itself the levels converge too slowly for the cutoff budget: Undetermined.
"""

import os

from rabistark.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")
OUT = os.path.join(ROOT, "out")

if __name__ == "__main__":
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, "spectrum_vs_u.csv")
    code = main(
        [
            "spectrum",
            "--model", "stark",
            "--delta", "1",
            "--g", "0.2",
            "--scan", "u=0:2.2:0.02",
            "--levels", "30",
            "--tol", "1e-8",
            "--out", out_path,
        ]
    )
    print(f"wrote {os.path.relpath(out_path, ROOT)} (exit {code})")
