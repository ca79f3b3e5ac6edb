"""Run configuration: INI-style text with nested sections, validated up front.

Structural problems are aggregated into a single SchemaError so a bad file
reports everything at once. It also holds a negative seed and what the rules
on the rho list (coeffs.rho_problems) and on the solver settings
(corrector.setting_problems) yield. BlowupConfig then checks the hole count
and the standing assumptions of the construction (exponents, sign split,
tau), each a ConstraintViolation naming what fails.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .coeffs import BlowupConfig, rho_problems
from .corrector import MAXITER, P_NORMS, TOL, Run, setting_problems
from .errors import ParseError, SchemaError
from .geometry import DomainSpec, MeshPolicy, domain_sample_points
from .potentials import parse_potential

COMMANDS = ("construct", "sweep", "verify", "green-check")
# every section and key a config may hold; anything else is a SchemaError
KEYS = MappingProxyType({
    "problem": ("domain", "boundary", "centers", "alphas", "m1", "tau", "v1", "v2"),
    "mesh": ("h", "q"),
    "run": ("command", "rho", "p", "tol", "maxiter", "seed", "out")})
SWEEP_REPORT = "report_rho{:.3e}"   # the prefix of each rho's report in a sweep


@dataclass
class RunConfig:
    command: str
    problem: BlowupConfig
    policy: MeshPolicy
    rho_list: list
    p_list: list
    tol: float
    maxiter: int
    seed: int
    out_dir: str

    def new_run(self) -> Run:
        """A Run of this problem with this mesh policy and these solver settings."""
        return Run(self.problem, self.policy, tol=self.tol, maxiter=self.maxiter,
                   p_norms=self.p_list)


def _parse_floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_points(text):
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vals = _parse_floats(chunk)
        if len(vals) != 2:
            raise ValueError(f"point needs two coordinates, got {chunk!r}")
        pts.append(vals)
    return np.asarray(pts, dtype=float)


def parse_config(text: str, run_overrides=None) -> RunConfig:
    """Parse and validate a full run configuration document.

    run_overrides maps [run] keys to text that takes the place of the
    document's value (the command line's command, --rho, --p, --seed, --out),
    so an override passes the same checks as the file. A rho list is checked
    by coeffs.rho_problems, the rule choose_scales and continuation_sweep
    apply; construct's one rho and the sweep report names are checked here.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise SchemaError([f"unparseable config: {exc}"])

    problems = []
    for section in cp.sections():
        if section not in KEYS:
            problems.append(f"unknown section [{section}]; expected one of "
                            + ", ".join(f"[{s}]" for s in KEYS))
            continue
        for key in cp.options(section):
            if key not in KEYS[section]:
                problems.append(f"unknown key [{section}] {key}; [{section}] takes "
                                + ", ".join(KEYS[section]))
    run_overrides = run_overrides or {}

    def get(section, key, default=None, required=False):
        if section == "run" and key in run_overrides:
            return run_overrides[key]
        if cp.has_option(section, key):
            return cp.get(section, key)
        if required:
            problems.append(f"missing [{section}] {key}")
        return default

    missing = [f"missing [{s}] section" for s in ("problem", "run") if not cp.has_section(s)]
    if missing:
        raise SchemaError(problems + missing)

    command = get("run", "command", required=True)
    if command is not None and command not in COMMANDS:
        problems.append(f"unknown command {command!r}; expected one of {COMMANDS}")

    domain_kind = get("problem", "domain", default="unit-disk")
    domain = None
    if domain_kind == "boundary-curve":
        btxt = get("problem", "boundary", required=True)
        if btxt is not None:
            try:
                domain = DomainSpec(kind=domain_kind, boundary=_parse_points(btxt))
            except ValueError as exc:
                problems.append(str(exc))
    elif domain_kind == "unit-disk":
        domain = DomainSpec()
    else:
        problems.append(f"unknown domain kind {domain_kind!r}")

    centers = alphas = None
    try:
        centers = _parse_points(get("problem", "centers", required=True) or "")
    except ValueError as exc:
        problems.append(f"centers: {exc}")
    else:
        if not len(centers) and cp.has_option("problem", "centers"):
            problems.append("centers: no points")
    try:
        alphas = np.asarray(_parse_floats(get("problem", "alphas", required=True) or ""))
    except ValueError as exc:
        problems.append(f"alphas: {exc}")

    def get_number(section, key, default, cast=float, required=False):
        txt = get(section, key, default=None, required=required)
        if txt is None:
            return default
        try:
            return cast(txt)
        except ValueError:
            problems.append(f"[{section}] {key}: not a number: {txt!r}")
            return default

    m1 = get_number("problem", "m1", None, int, required=True)
    tau = get_number("problem", "tau", 1.0)

    v1_expr = v2_expr = None
    v1_txt = get("problem", "v1", default="1")
    v2_txt = get("problem", "v2", default="1")
    try:
        v1_expr = parse_potential(v1_txt)
    except ParseError as exc:
        problems.append(f"v1: {exc}")
    try:
        v2_expr = parse_potential(v2_txt)
    except ParseError as exc:
        problems.append(f"v2: {exc}")

    h = get_number("mesh", "h", MeshPolicy.h)
    q = get_number("mesh", "q", MeshPolicy.q)
    try:
        policy = MeshPolicy(h=h, q=q)
    except ValueError as exc:
        problems.append(f"mesh policy: {exc}")
        policy = MeshPolicy()

    def get_list(key, default):
        txt = get("run", key)
        try:
            return list(default) if txt is None else _parse_floats(txt)
        except ValueError:
            problems.append(f"{key}: not numbers: {txt!r}")
            return list(default)

    rho_list = get_list("rho", [1e-3])
    problems += rho_problems(rho_list)
    if command == "construct" and len(rho_list) > 1:
        problems.append(f"construct solves one rho, got {rho_list}; pick one with --rho")
    names = [SWEEP_REPORT.format(r) for r in rho_list]
    clashing = [r for r, name in zip(rho_list, names) if names.count(name) > 1]
    if clashing:
        problems.append(f"rho values {clashing} agree to 4 significant digits, "
                        "so their sweep reports would share a name")
    p_list = get_list("p", P_NORMS)
    tol = get_number("run", "tol", TOL)
    maxiter = get_number("run", "maxiter", MAXITER, int)
    problems += setting_problems(tol, maxiter, p_list)
    seed = get_number("run", "seed", 0, int)
    if seed < 0:
        problems.append(f"seed must be a non-negative integer, got {seed}")
    out_dir = get("run", "out", default="out")

    if problems:
        raise SchemaError(problems)

    # BlowupConfig checks the hole count and the assumptions (alpha, m1,
    # tau), and potentials_at the potentials on the sample cloud, each by name
    problem = BlowupConfig(domain=domain, centers=centers, alphas=alphas, m1=int(m1),
                           tau=float(tau), V1=v1_expr, V2=v2_expr)
    problem.potentials_at(domain_sample_points(domain), "sample")

    return RunConfig(command=command, problem=problem, policy=policy,
                     rho_list=rho_list, p_list=p_list, tol=float(tol),
                     maxiter=int(maxiter), seed=int(seed), out_dir=out_dir)
