#!/usr/bin/env python3
"""Single positive bubble at the disk center: continuation in rho.

Prints norms, peak heights, far-field agreement and kernel coefficients per
rho, and writes the CSV artifacts under out/single_sweep/.
"""

import math
import pathlib
import sys

from sinhpierce.coeffs import BlowupConfig, constant_potential
from sinhpierce.corrector import Run, continuation_sweep, farfield_error
from sinhpierce.geometry import DomainSpec, MeshPolicy


def main():
    rho_list = [1e-2, 1e-3, 1e-4]
    disk = DomainSpec()
    cfg = BlowupConfig(domain=disk, centers=[[0.0, 0.0]], alphas=[3.0], m1=1, tau=1.0,
                       V1=constant_potential(1.0), V2=constant_potential(1.0))
    run = Run(cfg, MeshPolicy(h=0.02))
    gp = run.gp
    sweep = continuation_sweep(run, rho_list)

    target = 10 * math.pi * gp.green((0.5, 0.0), (0.0, 0.0))
    print(f"far-field target at (0.5, 0): {target:.6f}")
    for rep, sol in zip(sweep.reports, sweep.solutions):
        ff = farfield_error(run, sol.u, [(0.5, 0.0)]) if sol else float("nan")
        print(f"rho={rep.rho:8.1e}  iters={rep.iterations:2d} "
              f"factor={rep.max_contraction_factor:.4f}  phi_sup={rep.phi_sup:.3e}  "
              f"peak={rep.peaks[0]:7.3f}  |u-target|={ff:.3e}  "
              f"a1={rep.kernel_coefficients[0]:+.3e}")
    print("fitted residual decay slopes:", sweep.sigma_fits)

    out = pathlib.Path("out/single_sweep")
    out.mkdir(parents=True, exist_ok=True)
    sweep.write_csv(out / "sweep.csv")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
