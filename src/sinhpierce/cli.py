"""Command line front end: construct, sweep, verify, green-check.

Every run writes CSV artifacts plus a manifest with one record per file
listing the check it belongs to and the quantitative claim it traces to.
Identical configuration and seed give byte-identical outputs. The check
suites are verify's; this module only writes files and maps outcomes to exit
codes.

Exit codes: 0 success, 1 validation failure, 2 solver failure, 3 check failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import verify
from .coeffs import dump_csv
from .corrector import construct_solution, continuation_sweep
from .errors import (
    ConstraintViolation,
    Diverged,
    NearSingular,
    NonpositiveSampled,
    SchemaError,
    SinhPierceError,
)
from .geometry import MIN_HOLE_RADIUS, format_17g
from .runconfig import COMMANDS, KEYS, SWEEP_REPORT, RunConfig, parse_config

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3
# the errors that reject the config itself: exit 1, wherever they are raised
VALIDATION_ERRORS = (SchemaError, ConstraintViolation, NonpositiveSampled)


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


def _write_report(report, man: Manifest, claim):
    out = man.out_dir
    report.write(os.path.join(out, "report"))
    man.add(os.path.join(out, "report.txt"), "construct", claim)
    man.add(os.path.join(out, "report_iterations.csv"), "construct",
            "per-iteration contraction history")


def _cmd_construct(rc: RunConfig, man: Manifest):
    # the Run is not kept, so its Lap + W factor is freed before the files are written
    try:
        sol = construct_solution(rc.new_run(), rc.rho_list[0])
    except (Diverged, NearSingular) as exc:
        _write_report(exc.report, man, "failed correction: status and history so far")
        raise
    out = man.out_dir
    _write_report(sol.report, man, "converged correction and blow-up profile data")
    # u, phi and the mesh share one mesh: format its coordinates once
    coords = write_field_csv(sol.u, os.path.join(out, "solution.csv"))
    man.add(os.path.join(out, "solution.csv"), "construct", "solution field u = U + phi")
    write_field_csv(sol.phi, os.path.join(out, "correction.csv"), coords)
    man.add(os.path.join(out, "correction.csv"), "construct", "correction field phi")
    for p in dump_csv(sol.stage.coeffs, os.path.join(out, "coeffs")):
        man.add(p, "construct", "matching-system coefficients")
    sol.stage.mesh.export(os.path.join(out, "mesh.txt"), coords)
    man.add(os.path.join(out, "mesh.txt"), "construct", "pierced-domain mesh")
    return EXIT_OK


def _cmd_sweep(rc: RunConfig, man: Manifest):
    sw = continuation_sweep(rc.new_run(), rc.rho_list)
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
        prefix = os.path.join(out, SWEEP_REPORT.format(rep.rho))
        rep.write(prefix)
        man.add(prefix + ".txt", "sweep", "per-rho correction report")
    failures = [r for r in sw.reports if r.status != "converged"]
    return EXIT_SOLVER if len(failures) == len(sw.reports) else EXIT_OK


def _cmd_green_check(rc: RunConfig, man: Manifest):
    results = verify.green_suite(rc)
    path = os.path.join(man.out_dir, "green_checks.csv")
    verify.write_check_csv(results, path)
    man.add(path, "green-check", "Dirichlet Green function fidelity")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK


def _cmd_verify(rc: RunConfig, man: Manifest):
    results, sw = verify.suite(rc)
    path = os.path.join(man.out_dir, "checks.csv")
    verify.write_check_csv(results, path)
    man.add(path, "verify", "full measurable-check suite")
    spath = os.path.join(man.out_dir, "verify_sweep.csv")
    sw.write_csv(spath)
    man.add(spath, "verify", "sweep data backing the checks")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK


def run(rc: RunConfig) -> int:
    """Dispatch a parsed run configuration; artifacts land in rc.out_dir,
    and one that cannot be created is exit 1 before anything is solved."""
    try:
        os.makedirs(rc.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
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
    except VALIDATION_ERRORS:
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
                    f"Meshed experiments need hole radii above {MIN_HOLE_RADIUS:g}, "
                    "which means rho >= 5.7e-6 for configs/single_bubble.cfg and "
                    "rho >= 2.2e-5 for configs/two_bubble.cfg; the coefficient-level "
                    "routines go further down.",
        epilog="Config sections and keys: "
               + "; ".join(f"[{s}] " + ", ".join(keys) for s, keys in KEYS.items())
               + ". The positional command replaces [run] command. "
               "Exit codes: 0 success; 1 validation failure (the config or a flag "
               "value is rejected before any solve: unparseable, missing or unknown "
               "sections and keys, rho not positive or not descending, construct "
               "with more than one rho, p < 1, tol <= 0, maxiter < 1, seed < 0, ...; "
               "or V1 or V2 not positive where the sign split uses it, negative where it "
               "does not, or not finite, at a sampled point or, later, at a hole center or "
               "a mesh node, which the message names; or an output directory that cannot "
               "be created); 2 solver failure; 3 check failure.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the INI config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", default=None)
    parser.add_argument("--rho", default=None,
                        help="space/comma separated list, descending and positive; construct "
                             "takes exactly one value; verify checks at 1e-2 1e-3 1e-4 "
                             "when given fewer than three values")
    parser.add_argument("--p", default=None, help="space/comma separated list, each >= 1")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as f:
            text = f.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    # the overrides take the place of the file's [run] values before any check
    overrides = {key: value for key, value in (("command", args.command), ("out", args.out),
                                               ("seed", args.seed), ("rho", args.rho),
                                               ("p", args.p))
                 if value is not None}
    try:
        return run(parse_config(text, overrides))
    except VALIDATION_ERRORS as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
