"""Command line front end: construct, sweep, verify, green-check.

Every run writes CSV artifacts plus a manifest with one record per file
listing the check it belongs to and the quantitative claim it traces to.
Identical configuration and seed give byte-identical outputs.

Exit codes: 0 success, 1 validation failure, 2 solver failure, 3 check failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import verify
from .coeffs import choose_scales, constraint_deviation, dump_csv, solve_beta
from .corrector import Run, construct_solution, continuation_sweep
from .errors import ConstraintViolation, NonpositiveSampled, SchemaError, SinhPierceError
from .geometry import format_17g
from .greens import AnalyticDiskGreen, NumericGreen
from .runconfig import COMMANDS, RunConfig, parse_config

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3


class Manifest:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.entries = []

    def add(self, path, check_id, claim):
        self.entries.append((os.path.relpath(path, self.out_dir), check_id, claim))

    def write(self):
        path = os.path.join(self.out_dir, "manifest.txt")
        with open(path, "w") as f:
            for rel, check_id, claim in self.entries:
                f.write(f"file {rel} check {check_id} claim {claim}\n")
        return path


def write_field_csv(field, path, coords=None):
    """node_id,x,y,value rows with CRLF line ends, as csv.writer writes them.

    coords, if given, is the mesh's `coordinate_text()`. Returns the
    coordinate strings used, for the next writer of the same mesh.
    """
    xs, ys = field.mesh.coordinate_text() if coords is None else coords
    vs = format_17g(field.values)
    with open(path, "w", newline="") as f:
        f.write("node_id,x,y,value\r\n")
        f.write("".join([f"{i},{x},{y},{v}\r\n" for i, (x, y, v) in enumerate(zip(xs, ys, vs))]))
    return xs, ys


def _cmd_construct(rc: RunConfig, man: Manifest):
    sol = construct_solution(Run(rc.problem, rc.policy), rc.rho_list[0], tol=rc.tol,
                             maxiter=rc.maxiter, p_norms=tuple(rc.p_list))
    out = man.out_dir
    sol.report.write(os.path.join(out, "report"))
    man.add(os.path.join(out, "report.txt"), "construct",
            "converged correction and blow-up profile data")
    man.add(os.path.join(out, "report_iterations.csv"), "construct",
            "per-iteration contraction history")
    # u, phi and the mesh share one mesh: format its coordinates once
    coords = write_field_csv(sol.u, os.path.join(out, "solution.csv"))
    man.add(os.path.join(out, "solution.csv"), "construct", "solution field u = U + phi")
    write_field_csv(sol.phi, os.path.join(out, "correction.csv"), coords)
    man.add(os.path.join(out, "correction.csv"), "construct", "correction field phi")
    for p in dump_csv(sol.coeffs, os.path.join(out, "coeffs")):
        man.add(p, "construct", "matching-system coefficients")
    sol.mesh.export(os.path.join(out, "mesh.txt"), coords)
    man.add(os.path.join(out, "mesh.txt"), "construct", "pierced-domain mesh")
    return EXIT_OK


def _cmd_sweep(rc: RunConfig, man: Manifest):
    sw = continuation_sweep(Run(rc.problem, rc.policy), rc.rho_list, tol=rc.tol,
                            maxiter=rc.maxiter, p_norms=tuple(rc.p_list))
    out = man.out_dir
    path = os.path.join(out, "sweep.csv")
    sw.write_csv(path)
    man.add(path, "sweep", "continuation run: norms, peaks, contraction per rho")
    with open(os.path.join(out, "sweep_slopes.txt"), "w") as f:
        if sw.insufficient_data:
            f.write("sigma_fit insufficient-data\n")
        for p, s in sorted(sw.sigma_fits.items()):
            f.write(f"sigma_fit_p{p} {s:.17g}\n")
    man.add(os.path.join(out, "sweep_slopes.txt"), "residual-lp-scaling",
            "fitted decay exponents of the ansatz defect")
    for rep in sw.reports:
        prefix = os.path.join(out, f"report_rho{rep.rho:.3e}")
        rep.write(prefix)
        man.add(prefix + ".txt", "sweep", "per-rho correction report")
    failures = [r for r in sw.reports if r.status != "converged"]
    return EXIT_SOLVER if len(failures) == len(sw.reports) else EXIT_OK


def _cmd_green_check(rc: RunConfig, man: Manifest, trials=60):
    domain = rc.problem.domain
    results = []
    rng = np.random.default_rng(rc.seed)
    if domain.kind == "unit-disk":
        an = AnalyticDiskGreen(domain)
        num = NumericGreen(domain, h=rc.policy.h)
        pairs = []
        while len(pairs) < trials:
            x = rng.uniform(-0.8, 0.8, 2)
            y = rng.uniform(-0.8, 0.8, 2)
            if np.hypot(*x) < 0.8 and np.hypot(*y) < 0.8 and np.hypot(*(x - y)) > 0.05:
                pairs.append((x, y))
        errs = [abs(num.green(x, y) - an.green(x, y)) for x, y in pairs]
        results.append(verify.CheckResult(
            check_id="green-numeric-vs-analytic", measured=float(max(errs)),
            threshold=1e-3, passed=max(errs) <= 1e-3,
            claim="numeric backend reproduces the disk image formula"))
        sym = [abs(an.green(x, y) - an.green(y, x)) for x, y in pairs]
        results.append(verify.CheckResult(
            check_id="green-symmetry", measured=float(max(sym)), threshold=1e-8,
            passed=max(sym) <= 1e-8, claim="Green function symmetry"))
        bvals = [abs(an.green((math.cos(t), math.sin(t)), (0.3, 0.1)))
                 for t in np.linspace(0, 2 * math.pi, 37)]
        results.append(verify.CheckResult(
            check_id="green-boundary-vanishing", measured=float(max(bvals)),
            threshold=1e-8, passed=max(bvals) <= 1e-8,
            claim="Green function vanishes on the outer boundary"))
    else:
        num = NumericGreen(domain, h=rc.policy.h)
        from .runconfig import domain_sample_points

        cloud = domain_sample_points(domain, n=200, seed=rc.seed)
        pairs = [(cloud[2 * i], cloud[2 * i + 1]) for i in range(trials // 2)]
        sym = [abs(num.green(x, y) - num.green(y, x)) for x, y in pairs
               if np.hypot(*(x - y)) > 0.05]
        results.append(verify.CheckResult(
            check_id="green-symmetry", measured=float(max(sym)),
            threshold=50 * rc.policy.h ** 2, passed=max(sym) <= 50 * rc.policy.h ** 2,
            claim="Green function symmetry within mesh tolerance"))
    path = os.path.join(man.out_dir, "green_checks.csv")
    verify.write_check_csv(results, path)
    man.add(path, "green-check", "Dirichlet Green function fidelity")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK


def _cmd_verify(rc: RunConfig, man: Manifest):
    cfg = rc.problem
    out = man.out_dir
    # the quadrature loads scipy.integrate: do it before Run starts the
    # background mesh on the helper thread, not while that thread works
    results = verify.check_integral_identities(alphas=sorted(set(cfg.alphas.tolist())))
    run = Run(cfg, rc.policy)
    for a in sorted(set(cfg.alphas.tolist())):
        results.append(verify.check_kernel_annihilation(a))

    rho_list = rc.rho_list if len(rc.rho_list) >= 3 else [1e-2, 1e-3, 1e-4]

    # diagonal dominance of the matching systems: log the threshold
    from .coeffs import dominance_threshold

    thr = dominance_threshold(cfg, run.gp)
    results.append(verify.CheckResult(
        check_id="diagonal-dominance-threshold",
        claim="matching systems are row diagonally dominant below this rho",
        measured=thr, threshold=min(rho_list), passed=thr >= min(rho_list),
        detail="runs above the threshold are outside the asymptotic regime"))

    # matching-constraint decay
    devs = []
    for rho in rho_list + [rho_list[-1] / 10]:
        beta = solve_beta(cfg, choose_scales(cfg, rho, run.gp), run.gp)
        devs.append(float(constraint_deviation(cfg, beta).max()))
    results.append(verify.CheckResult(
        check_id="matching-constraint-decay",
        claim="weighted column sums of the matching system approach 2 pi (alpha-2)",
        measured=devs[-1], threshold=1e-2, passed=devs[-1] <= 1e-2
        and verify.decreasing(devs, floor=1e-12),
        detail=" ".join(f"{d:.3e}" for d in devs)))

    st = verify.check_expansion(run, rho_list)
    results.append(verify.CheckResult(
        check_id="projection-expansion-agreement",
        claim="numeric projection approaches its Green-function expansion",
        measured=st.slope, threshold=0.0, passed=st.slope > 0,
        detail=f"errors {['%.3e' % v for v in st.values]}"))

    studies = verify.check_residual_scaling(run, rho_list, p_list=rc.p_list)
    sigma_floor = 0.5 * min(1.0 / a for a in cfg.alphas)
    for p, study in sorted(studies.items()):
        results.append(verify.CheckResult(
            check_id=f"residual-lp-scaling-p{p}",
            claim="ansatz defect decays with a positive power of rho",
            measured=study.slope, threshold=sigma_floor,
            passed=study.slope >= sigma_floor, p=p,
            threshold_origin="half the derived exponent min(1/alpha)"))

    # the solver-bound trials at each rho run right after its correction, on
    # the fixed point's own Lap + W factor
    bounds = []

    def bound_at(rho):
        bounds.append(verify.check_operator_bound(run, [rho], trials=10, p=min(rc.p_list),
                                                  seed=rc.seed))

    sw = continuation_sweep(run, rho_list, tol=rc.tol, maxiter=rc.maxiter,
                            p_norms=tuple(rc.p_list), after_rho=bound_at)
    ob = verify.merge_operator_bounds(bounds)
    results.append(verify.CheckResult(
        check_id="linear-solver-log-bound",
        claim="solver amplification grows no faster than |log rho|",
        measured=ob["spread"], threshold=10.0, passed=ob["spread"] <= 10.0,
        detail=" ".join(f"{a:.4g}" for a in ob["per_log_rho"])))

    conv = [r for r in sw.reports if r.status == "converged"]
    results.append(verify.CheckResult(
        check_id="contraction-convergence",
        claim="fixed-point correction converges with contraction factor below one",
        measured=max((r.max_contraction_factor for r in conv), default=float("inf")),
        threshold=1.0,
        passed=len(conv) == len(sw.reports)
        and all(r.max_contraction_factor < 1 for r in conv)))
    if conv:
        ff = [r.farfield_error for r in conv]
        results.append(verify.CheckResult(
            check_id="far-field-green-profile",
            claim="solution approaches the signed Green combination away from the holes",
            measured=ff[-1], threshold=0.2,
            passed=verify.decreasing(ff, floor=1e-6) and ff[-1] <= 0.2))
        peaks = [max(r.peaks) for r in conv]
        results.append(verify.CheckResult(
            check_id="peak-growth",
            claim="annulus peak heights grow as rho decreases",
            measured=peaks[-1], threshold=peaks[0],
            passed=all(b > a for a, b in zip(peaks, peaks[1:]))))
        for j in range(cfg.m):
            aj = [abs(r.kernel_coefficients[j]) for r in conv]
            results.append(verify.CheckResult(
                check_id=f"kernel-coefficient-vanishing-{j + 1}",
                claim="rescaled kernel coefficient of the correction vanishes",
                measured=aj[-1], threshold=aj[0],
                passed=verify.decreasing(aj, floor=1e-9),
                detail=" ".join(f"{v:.3e}" for v in aj)))
        signs = all(r.inner_sign_ok for r in conv)
        results.append(verify.CheckResult(
            check_id="blow-up-sign-structure",
            claim="solution is positive near positive-group holes and negative near the rest",
            measured=float(signs), threshold=1.0, passed=signs))

    path = os.path.join(out, "checks.csv")
    verify.write_check_csv(results, path)
    man.add(path, "verify", "full measurable-check suite")
    spath = os.path.join(out, "verify_sweep.csv")
    sw.write_csv(spath)
    man.add(spath, "verify", "sweep data backing the checks")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK


def run(rc: RunConfig) -> int:
    """Dispatch a parsed run configuration; artifacts land in rc.out_dir."""
    os.makedirs(rc.out_dir, exist_ok=True)
    man = Manifest(rc.out_dir)
    try:
        if rc.command == "construct":
            code = _cmd_construct(rc, man)
        elif rc.command == "sweep":
            code = _cmd_sweep(rc, man)
        elif rc.command == "verify":
            code = _cmd_verify(rc, man)
        elif rc.command == "green-check":
            code = _cmd_green_check(rc, man)
        else:
            raise SchemaError([f"unknown command {rc.command!r}"])
    except (SchemaError, ConstraintViolation, NonpositiveSampled):
        raise
    except SinhPierceError as exc:
        man.entries.append(("-", "error", str(exc)))
        man.write()
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    man.write()
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sinhpierce",
        description="Blow-up solutions of sinh-Poisson type equations on pierced "
                    "domains: construction, continuation, and verification. "
                    "Meshed experiments need hole radii above 1e-13, which for "
                    "the default configurations means rho of roughly 2e-5 or "
                    "larger; the coefficient-level routines go further down.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the INI config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--rho", default=None, help="space/comma separated list")
    parser.add_argument("--p", default=None, help="space/comma separated list")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as f:
            text = f.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        rc = parse_config(text)
        rc.command = args.command
        if args.out is not None:
            rc.out_dir = args.out
        if args.seed is not None:
            rc.seed = args.seed
        if args.rho is not None:
            rc.rho_list = [float(t) for t in args.rho.replace(",", " ").split()]
        if args.p is not None:
            rc.p_list = [float(t) for t in args.p.replace(",", " ").split()]
    except (SchemaError, ConstraintViolation, NonpositiveSampled) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        return run(rc)
    except (SchemaError, ConstraintViolation, NonpositiveSampled) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
