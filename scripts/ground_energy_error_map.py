#!/usr/bin/env python3
"""Ground-state error of the analytic reduction over the (g, u) plane.

delta_e = |E_analytic - E_numeric| where the analytic candidate is the
displaced-vacuum energy in region I and the minimum block eigenvalue in
region II.  Points flagged crossing=1 trace the region boundary (the
ground state becomes twofold degenerate there).
"""

import csv
import os

from rabistark import ModelParams, Variant, error_map

ROOT = os.path.join(os.path.dirname(__file__), "..")
OUT = os.path.join(ROOT, "out")

G_GRID = [0.05 * i for i in range(1, 13)]   # 0.05 .. 0.60
U_GRID = [0.1 * i for i in range(0, 21)]    # 0.0 .. 2.0

if __name__ == "__main__":
    os.makedirs(OUT, exist_ok=True)
    base = ModelParams(delta=1.0, variant=Variant.RABI_STARK)
    points = error_map(base, G_GRID, U_GRID)
    out_path = os.path.join(OUT, "error_map.csv")
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["g", "u", "e_analytic", "e_numeric", "delta_e", "region", "crossing_flag"])
        for pt in points:
            writer.writerow([pt.g, pt.u, pt.e_analytic, pt.e_numeric,
                             pt.delta_e, pt.region, int(pt.crossing)])
    boundary = [(pt.g, pt.u) for pt in points if pt.crossing]
    print(f"wrote {os.path.relpath(out_path, ROOT)} ({len(points)} points)")
    print("region I/II boundary points (g, u):")
    for g, u in boundary:
        print(f"    ({g:.2f}, {u:.2f})")
