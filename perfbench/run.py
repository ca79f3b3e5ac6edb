"""Benchmark of the sinhpierce pipeline: one workload, one seed, one result.

    python3 perfbench/run.py --workload verify-disk --seed 1 --seconds 30 --trace 0

Each sample is a fresh process (perfbench/sample.py) that imports
sinhpierce, parses a generated config with `runconfig.parse_config` and calls
`cli.run`, like the command line does. Samples run one at a time with the
BLAS/OpenMP thread pools capped at the number of usable cores.

--trace 0 reports the end-to-end metrics (wall_s, solve_s, setup_s,
peak_rss_mb); --trace 1 reports the per-layer metrics of perfbench/tracer.py
from traced samples, plus the tracing overhead against one untraced sample.
Every sample passes a correctness gate and must reproduce the artifact digest
of the run's first sample; a failing sample is counted, never timed.

The last line of standard output is the result JSON; the line before it is a
detail record (per-metric median, high percentile and sample count, failed
fraction, artifact digest, provenance). Why the workloads are what they are is
in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import METRICS as LAYER_METRICS  # noqa: E402

END_TO_END = {"wall_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5          # set-up-only samples per untraced run, besides the samples
SAMPLE_TIMEOUT_S = 170    # a run must end within 180 s
RESIDUAL_LIMIT = 1e-10

_DISK_SINGLE = """\
domain = unit-disk
centers = 0.0 0.0
alphas = 3.0
m1 = 1
"""
_DISK_PAIR = """\
domain = unit-disk
centers = -0.4 0.0; 0.4 0.0
alphas = 3.0 3.0
m1 = 1
"""
_SQUARE_PAIR = """\
domain = boundary-curve
boundary = -0.9 -0.9; 0.9 -0.9; 0.9 0.9; -0.9 0.9
centers = -0.4 0.0; 0.4 0.0
alphas = 3.0 3.0
m1 = 1
"""

# name -> (problem, command, rho list, h, h of the --tiny variant)
WORKLOADS = {
    "verify-disk": (_DISK_SINGLE, "verify", "1e-2 1e-3 1e-4", 0.02, 0.1),
    "construct-fine": (_DISK_PAIR, "construct", "1e-3", 0.005, 0.05),
    "sweep-square": (_SQUARE_PAIR, "sweep", "1e-2 1e-3 1e-4", 0.02, 0.1),
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def make_config(workload, seed, tiny):
    problem, command, rho, h, tiny_h = WORKLOADS[workload]
    return (f"[problem]\n{problem}tau = 1.0\nv1 = 1\nv2 = 1\n\n"
            f"[mesh]\nh = {tiny_h if tiny else h}\nq = 1.3\n\n"
            f"[run]\ncommand = {command}\nrho = {rho}\np = 1.01 1.1 1.3\n"
            f"tol = 1e-10\nmaxiter = 50\nseed = {seed}\nout = artifacts\n")


# -- correctness -------------------------------------------------------------

def _report_fields(path):
    with open(path) as f:
        return dict(line.rstrip("\n").split(" ", 1) for line in f if " " in line)


def gate(command, n_rho, art):
    """Reason the artifacts in `art` fail the correctness gate, or None."""
    if command == "verify":
        with open(os.path.join(art, "checks.csv"), newline="") as f:
            rows = list(csv.DictReader(f))
        bad = [r["check_id"] for r in rows if r["pass"] != "1"]
        if not rows or bad:
            return f"checks did not pass: {bad or 'none written'}"
        return None
    name = "report.txt" if command == "construct" else "report_rho*.txt"
    reports = sorted(glob.glob(os.path.join(art, name)))
    if len(reports) != n_rho:
        return f"{len(reports)} reports for {n_rho} rho values"
    for path in reports:
        rec = _report_fields(path)
        if rec.get("status") != "converged":
            return f"{os.path.basename(path)}: status {rec.get('status')}"
        if not float(rec["max_contraction_factor"]) < 1:
            return f"{os.path.basename(path)}: contraction {rec['max_contraction_factor']}"
        if not float(rec["relative_residual"]) <= RESIDUAL_LIMIT:
            return f"{os.path.basename(path)}: residual {rec['relative_residual']}"
    return None


def tree_digest(top, suffix=None):
    """sha256 over relative paths and contents of the files under `top`."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, files in os.walk(top):
        dirnames.sort()
        for name in sorted(files):
            if suffix and not name.endswith(suffix):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                data = f.read()
            total += len(data)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


# -- statistics --------------------------------------------------------------

def summarize(values):
    """Median, plus the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    # exact counts repeat in every sample; keep them whole numbers
    median = vals[0] if vals[0] == vals[-1] else statistics.median(vals)
    out = {"median": median, "n": n, "p_high": None}
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            out["p_high"] = {"q": q, "value": vals[min(n - 1, int(q / 100 * n))]}
            break
    return out


# -- samples -----------------------------------------------------------------

class Run:
    """The samples of one benchmark invocation, in one scratch directory."""

    def __init__(self, workload, seed, tiny, out_dir, deadline):
        self.command = WORKLOADS[workload][1]
        self.n_rho = len(WORKLOADS[workload][2].split())
        self.out_dir = out_dir
        self.deadline = deadline
        self.cfg_text = make_config(workload, seed, tiny)
        self.cfg_path = os.path.join(out_dir, "bench.cfg")
        with open(self.cfg_path, "w") as f:
            f.write(self.cfg_text)
        nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.env.update({var: str(nproc) for var in THREAD_VARS})
        self.samples = []
        self.reference = None     # artifact digest of the first passing sample
        self.counts = None        # exact layer counts of the first traced sample

    def sample(self, mode):
        """Run one sample process; return its record (with `ok` and `reason`)."""
        idx = len(self.samples)
        art = os.path.join(self.out_dir, "artifacts")
        shutil.rmtree(art, ignore_errors=True)
        res_path = os.path.join(self.out_dir, f"sample{idx}.json")
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        argv = [sys.executable, os.path.join(HERE, "sample.py"), self.cfg_path, res_path,
                mode, repr(t_spawn)]
        rec = {"mode": mode, "ok": False, "reason": None}
        self.samples.append(rec)
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(argv, cwd=self.out_dir, env=self.env, timeout=timeout,
                                  stdin=subprocess.DEVNULL, capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            rec["reason"] = f"timed out after {timeout:.0f} s"
            return rec
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or [""])[-1]
            rec["reason"] = f"exit code {proc.returncode}: {tail}"
            return rec
        with open(res_path) as f:
            rec.update(json.load(f))
        expected = os.path.join(ROOT, "src", "sinhpierce")
        if os.path.dirname(rec["module_file"]) != expected:
            rec["reason"] = f"imported sinhpierce from {rec['module_file']}"
            return rec
        if mode == "setup":
            rec["ok"] = True
            return rec
        try:
            rec["reason"] = gate(self.command, self.n_rho, art)
        except (OSError, KeyError, ValueError) as exc:
            rec["reason"] = f"unreadable artifacts: {exc!r}"
        if rec["reason"] is None:
            rec["digest"], rec["artifact_bytes"] = tree_digest(art)
            self.reference = self.reference or rec["digest"]
            if rec["digest"] != self.reference:
                rec["reason"] = f"artifact digest {rec['digest']} != {self.reference}"
        if rec["reason"] is None and mode == "trace":
            rec["layers"]["cli.artifact_bytes"] = rec["artifact_bytes"]
            counts = {k: v for k, v in rec["layers"].items() if LAYER_METRICS[k] != "s"}
            self.counts = self.counts or counts
            if counts != self.counts:
                rec["reason"] = "exact layer counts differ from the first traced sample"
        rec["ok"] = rec["reason"] is None
        return rec

    def ok(self, *modes):
        return [s for s in self.samples if s["ok"] and s["mode"] in modes]


def provenance(run, workload, seed, tiny):
    versions = next(s["versions"] for s in run.samples if s.get("versions"))
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, stdin=subprocess.DEVNULL)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {"workload": workload, "seed": seed, "tiny": tiny, **versions,
            "nproc": len(os.sched_getaffinity(0)),
            "thread_caps": {var: run.env[var] for var in THREAD_VARS},
            "git_commit": commit,
            "source_sha256": tree_digest(os.path.join(ROOT, "src"), ".py")[0],
            "config_sha256": hashlib.sha256(run.cfg_text.encode()).hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="coarse-mesh variant of the workload, for perfbench/smoke.py")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sinhpierce", "__init__.py")):
        print(f"no sinhpierce sources under {ROOT}/src", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    out_dir = os.path.join(HERE, ".out", f"{args.workload}-seed{args.seed}-trace{args.trace}"
                           + ("-tiny" if args.tiny else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    run = Run(args.workload, args.seed, args.tiny, out_dir,
              deadline=t_start + SAMPLE_TIMEOUT_S)

    # the first process compiles bytecode and fills the file cache: not timed
    probes = 1 + (0 if args.trace else SETUP_PROBES)
    for _ in range(probes):
        rec = run.sample("setup")
        if not rec["ok"]:
            print(f"set-up failed: {rec['reason']}", file=sys.stderr)
            return 1
    if args.trace:
        run.sample("run")
    # start another sample only while it is expected to end within --seconds
    mode = "trace" if args.trace else "run"
    durations = []
    while True:
        t0 = time.monotonic()
        run.sample(mode)
        durations.append(time.monotonic() - t0)
        if time.monotonic() - t_start + statistics.median(durations) > args.seconds:
            break

    timed = run.samples[probes:]
    failed = sum(not s["ok"] for s in timed)
    if not run.ok(mode) or (args.trace and not run.ok("run")):
        for s in timed:
            print(f"{s['mode']} sample failed: {s['reason']}", file=sys.stderr)
        return 1

    stats = {}
    if args.trace:
        traced = run.ok("trace")
        for key in LAYER_METRICS:
            stats[key] = summarize([s["layers"][key] for s in traced])
        stats["startup.import_s"] = summarize([s["import_s"] for s in traced])
        stats["runconfig.parse_s"] = summarize([s["parse_s"] for s in traced])
        untraced_wall = statistics.median(s["wall_s"] for s in run.ok("run"))
        stats["trace.overhead_s"] = summarize([s["wall_s"] - untraced_wall for s in traced])
        units = LAYER_METRICS
    else:
        ok = run.ok("run")
        for key in ("wall_s", "solve_s", "peak_rss_mb"):
            stats[key] = summarize([s[key] for s in ok])
        stats["setup_s"] = summarize([s["setup_s"] for s in run.samples[1:] if s["ok"]])
        units = END_TO_END

    detail = {"workload": args.workload, "trace": args.trace,
              "attempted": len(timed), "failed": failed,
              "failed_frac": failed / len(timed), "artifact_digest": run.reference,
              "stats": stats, "provenance": provenance(run, args.workload, args.seed, args.tiny),
              "samples": [{k: v for k, v in s.items() if k not in ("layers", "versions")}
                          for s in run.samples]}
    with open(os.path.join(out_dir, "detail.json"), "w") as f:
        json.dump(detail, f, indent=1)
    result = {"correct": failed == 0, "attempted": len(timed), "failed": failed,
              "metrics": {k: {"value": stats[k]["median"], "unit": units[k]} for k in units}}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
