"""Run configuration: INI-style text with nested sections, validated up front.

Structural problems are aggregated into a single SchemaError so a bad file
reports everything at once; violations of the standing assumptions of the
construction (exponents, sign split, tau) raise ConstraintViolation naming
the assumption.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from .coeffs import BlowupConfig
from .errors import ConstraintViolation, SchemaError
from .geometry import DomainSpec, MeshPolicy, _inside_farther_than
from .potentials import PotentialExpr, check_positive, parse_potential

COMMANDS = ("construct", "sweep", "verify", "green-check")


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
    v1_expr: PotentialExpr | None = None
    v2_expr: PotentialExpr | None = None
    nu: float = 1.0
    raw: dict = field(default_factory=dict)


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


def domain_sample_points(domain: DomainSpec, n=2000, seed=0):
    """Deterministic cloud of interior points for potential positivity checks."""
    rng = np.random.default_rng(seed)
    if domain.kind == "unit-disk":
        lo = np.array([-1.0, -1.0])
        hi = np.array([1.0, 1.0])
    else:
        b = domain.boundary
        lo = b.min(axis=0)
        hi = b.max(axis=0)
    pts = np.empty((0, 2))
    while len(pts) < n:
        cand = rng.uniform(lo, hi, size=(4 * n, 2))
        pts = np.vstack([pts, cand[_inside_farther_than(cand, domain, domain.boundary, 0.0)]])
    return pts[:n]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a full run configuration document."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise SchemaError([f"unparseable config: {exc}"])

    problems = []

    def get(section, key, default=None, required=False):
        if cp.has_option(section, key):
            return cp.get(section, key)
        if required:
            problems.append(f"missing [{section}] {key}")
        return default

    if not cp.has_section("problem"):
        problems.append("missing [problem] section")
    if not cp.has_section("run"):
        problems.append("missing [run] section")
    if problems:
        raise SchemaError(problems)

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
    try:
        alphas = np.asarray(_parse_floats(get("problem", "alphas", required=True) or ""))
    except ValueError as exc:
        problems.append(f"alphas: {exc}")

    def get_number(section, key, default, cast=float):
        txt = get(section, key, default=None)
        if txt is None:
            return default
        try:
            return cast(txt)
        except ValueError:
            problems.append(f"[{section}] {key}: not a number: {txt!r}")
            return default

    m1 = get_number("problem", "m1", None, int)
    if m1 is None:
        problems.append("missing [problem] m1")
    tau = get_number("problem", "tau", 1.0)
    nu = get_number("problem", "nu", 1.0)

    v1_expr = v2_expr = None
    v1_txt = get("problem", "v1", default="1")
    v2_txt = get("problem", "v2", default="1")
    try:
        v1_expr = parse_potential(v1_txt)
    except Exception as exc:
        problems.append(f"v1: {exc}")
    try:
        v2_expr = parse_potential(v2_txt)
    except Exception as exc:
        problems.append(f"v2: {exc}")

    policy_kwargs = {}
    h = get_number("mesh", "h", 0.02) if cp.has_section("mesh") else 0.02
    q = get_number("mesh", "q", 1.3) if cp.has_section("mesh") else 1.3
    nmin = get_number("mesh", "min_hole_nodes", 32, int) if cp.has_section("mesh") else 32
    smooth = get_number("mesh", "smooth_iters", 2, int) if cp.has_section("mesh") else 2
    try:
        policy = MeshPolicy(h=h, q=q, min_hole_nodes=nmin, smooth_iters=smooth)
    except ValueError as exc:
        problems.append(f"mesh policy: {exc}")
        policy = MeshPolicy()
    policy_kwargs["policy"] = policy

    rho_txt = get("run", "rho", default="1e-3")
    try:
        rho_list = _parse_floats(rho_txt)
    except ValueError:
        problems.append(f"rho: not numbers: {rho_txt!r}")
        rho_list = [1e-3]
    p_txt = get("run", "p", default="1.01 1.1 1.3")
    try:
        p_list = _parse_floats(p_txt)
    except ValueError:
        problems.append(f"p: not numbers: {p_txt!r}")
        p_list = [1.01, 1.1, 1.3]
    tol = get_number("run", "tol", 1e-10)
    maxiter = get_number("run", "maxiter", 50, int)
    seed = get_number("run", "seed", 0, int)
    out_dir = get("run", "out", default="out")

    if problems:
        raise SchemaError(problems)

    m = centers.shape[0]
    if alphas.shape[0] != m:
        raise SchemaError([f"{m} centers but {alphas.shape[0]} alphas"])

    # fold nu into V2; BlowupConfig checks the assumptions (alpha, m1, tau),
    # each by name. The potentials stay in the equation either way; only the
    # positivity requirement depends on the sign split.
    def v2_scaled(x, y, _e=v2_expr, _nu=nu):
        return _nu * _e(x, y)

    problem = BlowupConfig(domain=domain, centers=centers, alphas=alphas, m1=int(m1),
                           tau=float(tau), V1=v1_expr, V2=v2_scaled)
    if rho_list != sorted(rho_list, reverse=True):
        raise SchemaError(["rho values must be sorted descending"])
    if any(r <= 0 for r in rho_list):
        raise ConstraintViolation("rho values must be positive")

    sample = domain_sample_points(domain)
    if m1 > 0:
        check_positive(v1_expr, sample, name="V1")
    if m1 < m:
        check_positive(v2_scaled, sample, name="nu*V2")

    return RunConfig(command=command, problem=problem, policy=policy,
                     rho_list=rho_list, p_list=p_list, tol=float(tol),
                     maxiter=int(maxiter), seed=int(seed), out_dir=out_dir,
                     v1_expr=v1_expr, v2_expr=v2_expr, nu=float(nu),
                     raw={s: dict(cp[s]) for s in cp.sections()})
