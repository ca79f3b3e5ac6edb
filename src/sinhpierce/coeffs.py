"""Scale selection and the small dense matching systems of the construction.

Everything here is exact linear algebra on Green-function values at the hole
centers: the interaction exponents rho_i, the scale parameters (d_i, r_i,
delta_i, eps_i) tied to one value of rho, the matching coefficients beta_ij,
and the kernel-side coefficients gamma_ij, gamma~_ij, gamma_j*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, NonpositiveSampled, SingularSystem
from .geometry import TWO_PI, DomainSpec
from .greens import GreenProvider


@dataclass(frozen=True)
class BlowupConfig:
    """Full problem description.

    The first m1 holes carry positive bubbles fed by V1, the rest negative
    bubbles fed by V2 with exponent tau.
    """

    domain: DomainSpec
    centers: np.ndarray          # (m, 2)
    alphas: np.ndarray           # (m,), each > 2 and not an even integer
    m1: int
    tau: float = 1.0
    V1: object = None            # callable (x, y) -> value; may be None when m1 == 0
    V2: object = None            # callable; may be None when m1 == m

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        a = np.atleast_1d(np.asarray(self.alphas, dtype=float))
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "alphas", a)
        m = c.shape[0]
        if a.shape[0] != m:
            raise ConstraintViolation(f"{m} centers but {a.shape[0]} alphas")
        for i, ai in enumerate(a):
            if not math.isfinite(ai):
                raise ConstraintViolation(
                    f"exponent assumption violated: alpha must be finite (alpha_{i + 1} = {ai})")
            if ai <= 2:
                raise ConstraintViolation(
                    "exponent assumption violated: alpha must exceed 2 "
                    f"(alpha_{i + 1} = {ai})")
            near_even = round(ai / 2) * 2
            if near_even >= 4 and abs(ai - near_even) < 1e-9:
                raise ConstraintViolation(
                    "exponent assumption violated: alpha must not be an even integer "
                    f"(alpha_{i + 1} = {ai})")
        if not 0 <= self.m1 <= m:
            raise ConstraintViolation(
                f"sign split assumption violated: m1 must lie in 0..{m} (m1 = {self.m1})")
        if not math.isfinite(self.tau):
            raise ConstraintViolation(
                f"coupling assumption violated: tau must be finite (tau = {self.tau})")
        if self.tau <= 0:
            raise ConstraintViolation(
                f"coupling assumption violated: tau must be positive (tau = {self.tau})")
        v1 = self.V1 if self.V1 is not None else constant_potential(0.0)
        v2 = self.V2 if self.V2 is not None else constant_potential(0.0)
        object.__setattr__(self, "V1", v1)
        object.__setattr__(self, "V2", v2)

    @property
    def m(self):
        return self.centers.shape[0]

    def sign(self, i):
        return 1.0 if i < self.m1 else -1.0

    def weigh(self, i, v):
        """Bubble i's term v as it enters a signed sum such as U: v for the
        first m1 bubbles, -v/tau for the rest. Near a negative hole the
        -V2 e^{-tau u} term makes -tau u, not u, the Liouville bubble."""
        return v if i < self.m1 else -v / self.tau

    def couple(self, i, j, w):
        """Bubble j's term w as it enters at hole i: w on i's side, -w/tau for
        a negative j at a positive i, -tau w for a positive j at a negative i."""
        if (i < self.m1) == (j < self.m1):
            return w
        return -w / self.tau if i < self.m1 else -self.tau * w

    def feed(self, i):
        """(k, weight): V1 (k = 0) with 1.0 feeds the first m1 holes, V2 (k = 1)
        with tau the rest, as -tau u solves Liouville with potential tau V2."""
        return (0, 1.0) if i < self.m1 else (1, self.tau)

    def potentials_at(self, points, where):
        """V1 and V2 at the (n, 2) points, each an (n,) array, once both pass
        the one rule for the potentials: V1 then V2, each positive where the
        sign split uses it (V1 if m1 > 0, V2 if m1 < m; nan fails) or else
        NonpositiveSampled, then finite or else ConstraintViolation. where is
        "sample" for parse_config's sample cloud (the message says that only
        those points are checked), "node" or "center" (it names the node or hole)."""
        pts = np.asarray(points, dtype=float)
        n = pts.shape[0]

        def at(i):
            xy = f"({pts[i, 0]:.6g}, {pts[i, 1]:.6g})"
            return {"sample": xy, "node": f"node {i} {xy}",
                    "center": f"hole {i + 1} center {xy}"}[where]

        out = []
        for name, V, positive in (("V1", self.V1, self.m1 > 0), ("V2", self.V2, self.m1 < self.m)):
            with np.errstate(all="ignore"):   # what overflows or is invalid is named below
                vals = np.broadcast_to(np.asarray(V(pts[:, 0], pts[:, 1]), dtype=float), (n,))
            if positive and not np.all(vals > 0.0):
                i = int(np.argmin(vals > 0.0))
                only = (f"; positivity is checked at {n:,} sampled points, and a potential "
                        "that is negative only between them passes") if where == "sample" else ""
                raise NonpositiveSampled(
                    f"{name} is not positive: value {vals[i]:.6g} at {at(i)}{only}")
            if not np.all(np.isfinite(vals)):
                i = int(np.argmin(np.isfinite(vals)))
                raise ConstraintViolation(f"potential assumption violated: {name} must be "
                                          f"finite (value {vals[i]:.6g} at {at(i)})")
            out.append(vals)
        return tuple(out)


def constant_potential(v):
    """Smooth constant potential, the common test case."""
    def f(x, y):
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), float(v))
    return f


@dataclass(frozen=True)
class ScaleParams:
    """Derived scale quantities tied to one rho.

    delta_pow holds d_i * rho, the exact value of delta_i^alpha_i; r_i * rho
    is eps_i^((alpha_i - 2)/2).  delta and eps are the roots; d_i and r_i
    themselves live only in choose_scales.
    """

    rho: float
    delta: np.ndarray
    eps: np.ndarray
    delta_pow: np.ndarray
    log_delta: np.ndarray    # log(delta_i), exact in log space
    log_eps: np.ndarray      # log(eps_i); eps itself may underflow for alpha near 2


def compute_rho_i(cfg: BlowupConfig, gp: GreenProvider) -> np.ndarray:
    """Interaction exponents rho_i built from Green values at the centers."""
    H, G = gp.pair_table(cfg.centers)
    a = cfg.alphas
    out = np.zeros(cfg.m)
    for i in range(cfg.m):
        v = (a[i] + 2) * H[i, i]
        for j in range(cfg.m):
            if j != i:
                v += cfg.couple(i, j, (a[j] + 2) * G[i, j])
        out[i] = v
    return out


def rho_problems(rho_list):
    """The rule on a rho list, at most one message: one or more values, each
    positive and finite, sorted descending (ties allowed) as rho -> 0.
    choose_scales and continuation_sweep refuse what it yields; parse_config reports it."""
    rho_list = list(rho_list)
    if not rho_list or not all(0 < r < math.inf for r in rho_list):
        yield f"rho values must be one or more, positive and finite, got {rho_list}"
    elif rho_list != sorted(rho_list, reverse=True):
        yield f"rho values must be sorted descending, got {rho_list}"


def choose_scales(cfg: BlowupConfig, rho: float, gp: GreenProvider) -> ScaleParams:
    """Scale parameters making the ansatz match the equation on each annulus."""
    for problem in rho_problems([rho]):
        raise ValueError(problem)
    rho_i = compute_rho_i(cfg, gp)
    a = cfg.alphas
    V = [v.tolist() for v in cfg.potentials_at(cfg.centers, "center")]   # floats overflow quietly
    d = np.zeros(cfg.m)
    for i in range(cfg.m):
        k, weight = cfg.feed(i)   # weight 1.0 leaves the bits
        try:
            grow = math.exp(TWO_PI * rho_i[i])   # its bits set every scale
        except OverflowError:
            grow = math.inf
        d[i] = V[k][i] * grow * weight / (2 * a[i] ** 2)
    # d and r may leave the float range (d = 0 where exp(2 pi rho_i)
    # underflows, inf where it overflows); the eps that gives, 0, inf or nan,
    # is check_radii's to name
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        r = d * np.exp(-math.pi * rho_i)
        delta_pow = d * rho
        log_delta = (np.log(d) + math.log(rho)) / a
        log_eps = 2.0 * (np.log(r) + math.log(rho)) / (a - 2.0)
        delta = np.exp(log_delta)
        eps = np.exp(log_eps)
    return ScaleParams(rho=float(rho), delta=delta, eps=eps, delta_pow=delta_pow,
                       log_delta=log_delta, log_eps=log_eps)


# ---------------------------------------------------------------------------
# matching systems

def _beta_matrix(H, G, log_eps):
    m = len(log_eps)
    A = np.zeros((m, m))
    for j in range(m):
        A[j, j] = log_eps[j] / TWO_PI - H[j, j]
        for k in range(m):
            if k != j:
                A[j, k] = -G[j, k]
    return A


def _check_solve(A, B, name):
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSystem(f"{name} system ill conditioned (cond ~ {cond:.3g})")
    X = np.linalg.solve(A, B)
    res = np.linalg.norm(A @ X - B) / max(np.linalg.norm(B), 1e-300)
    if res > 1e-10:
        raise SingularSystem(f"{name} system residual {res:.3e}")
    return X


def solve_beta(cfg: BlowupConfig, scales: ScaleParams, gp: GreenProvider) -> np.ndarray:
    """Matching coefficients beta_ij; row i solves the shared m x m system."""
    H, G = gp.pair_table(cfg.centers)
    a = cfg.alphas
    m = cfg.m
    A = _beta_matrix(H, G, scales.log_eps)
    R = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            R[i, j] = -4 * math.pi * a[i] * H[i, j]
            if i == j:
                R[i, j] += 2 * a[i] * scales.log_delta[i]
            else:
                sep = math.hypot(cfg.centers[i, 0] - cfg.centers[j, 0],
                                 cfg.centers[i, 1] - cfg.centers[j, 1])
                R[i, j] += 2 * a[i] * math.log(sep)
    beta = _check_solve(A, R.T, "beta").T
    return beta


def constraint_combination(cfg, beta) -> np.ndarray:
    """Weighted column sums that the scale choice drives to 2 pi (alpha_i - 2):
    each side's sum enters at hole i through the coupling of any of its holes."""
    sides = [[j for j in range(cfg.m) if cfg.sign(j) == s] for s in (1.0, -1.0)]
    return np.array([sum(cfg.couple(i, g[0], sum(beta[j, i] for j in g)) for g in sides if g)
                     for i in range(cfg.m)])


def constraint_deviation(cfg, beta) -> np.ndarray:
    """Relative deviation of the combination from its target per hole."""
    target = TWO_PI * (cfg.alphas - 2.0)
    return np.abs(constraint_combination(cfg, beta) - target) / target


@dataclass(frozen=True)
class CoefficientSet:
    beta: np.ndarray
    gamma: np.ndarray
    gamma_tilde: np.ndarray
    gamma_star: np.ndarray
    centers: np.ndarray = None


def solve_gamma(cfg: BlowupConfig, scales: ScaleParams, gp: GreenProvider):
    """Kernel-side coefficients (gamma_ij, gamma~_ij, gamma_j*)."""
    H, G = gp.pair_table(cfg.centers)
    a = cfg.alphas
    m = cfg.m
    # the gamma system's matrix is the beta system's, negated: G is exactly
    # symmetric (pair_table) and negation commutes with rounding
    A = -_beta_matrix(H, G, scales.log_eps)

    rhs_g = 2.0 * np.eye(m)
    gamma = _check_solve(A, rhs_g, "gamma")

    rhs_t = np.zeros((m, m))
    for j in range(m):
        for i in range(m):
            if i == j:
                rhs_t[i, j] = (4.0 / 3.0) * a[j] * scales.log_delta[j] + 8.0 / 3.0 \
                    + (8 * math.pi / 3.0) * a[j] * H[j, j]
            else:
                rhs_t[i, j] = (8 * math.pi / 3.0) * a[j] * G[i, j]
    gamma_tilde = _check_solve(A, rhs_t, "gamma-tilde")

    gamma_star = np.zeros(m)
    for j in range(m):
        num = gamma_tilde[j, j] * scales.log_delta[j] / TWO_PI \
            + ((8 * math.pi / 3.0) * a[j] - gamma_tilde[j, j]) * H[j, j] \
            - sum(gamma_tilde[i, j] * G[i, j] for i in range(m) if i != j)
        den = 1.0 - gamma[j, j] * H[j, j] \
            - sum(gamma[i, j] * G[i, j] for i in range(m) if i != j) \
            + gamma[j, j] * scales.log_delta[j] / TWO_PI
        gamma_star[j] = num / den
    return gamma, gamma_tilde, gamma_star


def coefficient_set(cfg: BlowupConfig, scales: ScaleParams, gp: GreenProvider) -> CoefficientSet:
    """Solve all matching systems for one rho and bundle the results."""
    beta = solve_beta(cfg, scales, gp)
    gamma, gamma_tilde, gamma_star = solve_gamma(cfg, scales, gp)
    return CoefficientSet(beta=beta, gamma=gamma, gamma_tilde=gamma_tilde,
                          gamma_star=gamma_star, centers=cfg.centers.copy())


def _dominant(H, G, log_eps) -> bool:
    """Whether the beta (and so the gamma) matrix is row diagonally dominant."""
    A = _beta_matrix(H, G, log_eps)
    d = np.abs(np.diag(A))
    return bool(np.all(d > np.sum(np.abs(A), axis=1) - d))


def dominance_threshold(cfg: BlowupConfig, gp: GreenProvider) -> float:
    """Largest rho in [1e-12, 1] (up to 60 bisection steps) with row-dominant
    systems."""
    H, G = gp.pair_table(cfg.centers)

    def dominant(rho):
        return _dominant(H, G, choose_scales(cfg, rho, gp).log_eps)

    lo, hi = 1e-12, 1.0
    if dominant(hi):
        return hi
    if not dominant(lo):
        return 0.0
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if dominant(mid):
            lo = mid
        else:
            hi = mid
    return lo


def dump_csv(coeffs: CoefficientSet, path_prefix):
    """One CSV per matrix: rows (row, col, value)."""
    import csv

    names = {"beta": coeffs.beta, "gamma": coeffs.gamma,
             "gamma_tilde": coeffs.gamma_tilde,
             "gamma_star": coeffs.gamma_star.reshape(-1, 1)}
    paths = []
    for name, mat in names.items():
        path = f"{path_prefix}_{name}.csv"
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["row", "col", "value"])
            for i in range(mat.shape[0]):
                for j in range(mat.shape[1]):
                    wr.writerow([i + 1, j + 1, f"{mat[i, j]:.17g}"])
        paths.append(path)
    return paths
