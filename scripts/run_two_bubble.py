#!/usr/bin/env python3
"""Mixed-sign pair: positive bubble at (-0.4, 0), negative at (0.4, 0).

Sweeps rho, reporting the sign structure, peaks and kernel coefficients.
"""

import pathlib
import sys

from sinhpierce.coeffs import BlowupConfig, constant_potential
from sinhpierce.corrector import Run, continuation_sweep
from sinhpierce.geometry import DomainSpec, MeshPolicy


def main():
    rho_list = [1e-2, 1e-3, 1e-4]
    disk = DomainSpec()
    cfg = BlowupConfig(domain=disk, centers=[[-0.4, 0.0], [0.4, 0.0]],
                       alphas=[3.0, 3.0], m1=1, tau=1.0,
                       V1=constant_potential(1.0), V2=constant_potential(1.0))
    sweep = continuation_sweep(Run(cfg, MeshPolicy(h=0.02)), rho_list)
    for rep in sweep.reports:
        print(f"rho={rep.rho:8.1e}  status={rep.status:9s} "
              f"peaks=({rep.peaks[0]:6.2f}, {rep.peaks[1]:6.2f})  "
              f"signs_ok={rep.inner_sign_ok}  "
              f"a=({rep.kernel_coefficients[0]:+.2e}, {rep.kernel_coefficients[1]:+.2e})")
    print("fitted residual decay slopes:", sweep.sigma_fits)

    out = pathlib.Path("out/two_sweep")
    out.mkdir(parents=True, exist_ok=True)
    sweep.write_csv(out / "sweep.csv")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
