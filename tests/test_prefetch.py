"""The background mesh built ahead on its own thread: the same arrays as a
serial build, the same artifact bytes from the CLI, the worker's errors
surfacing from build_mesh, no worker for a layout that cannot validate, no
wait for it on radii that cannot, the traced Green-function setup kept on the
main thread, and no wait for the worker once a command has failed."""

import dataclasses
import filecmp
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

import sinhpierce.corrector as corrector_mod
import sinhpierce.geometry as geometry
import sinhpierce.greens as greens_mod
from sinhpierce.cli import main
from sinhpierce.coeffs import BlowupConfig, constant_potential
from sinhpierce.corrector import Run
from sinhpierce.errors import (
    DuplicateCenters,
    HoleTouchesBoundary,
    StitchFailure,
    UnresolvableHole,
)
from sinhpierce.geometry import (
    DomainSpec,
    MeshPolicy,
    annulus_radius,
    build_mesh,
    prefetch_background,
)

SQUARE = DomainSpec("boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])
PAIR = [[-0.4, 0.0], [0.4, 0.0]]

# the benchmark's three workloads at their coarse h
_DISK_SINGLE = "domain = unit-disk\ncenters = 0.0 0.0\nalphas = 3.0\n"
_DISK_PAIR = "domain = unit-disk\ncenters = -0.4 0.0; 0.4 0.0\nalphas = 3.0 3.0\n"
_SQUARE_PAIR = ("domain = boundary-curve\nboundary = -0.9 -0.9; 0.9 -0.9; 0.9 0.9; -0.9 0.9\n"
                "centers = -0.4 0.0; 0.4 0.0\nalphas = 3.0 3.0\n")
WORKLOADS = {
    "verify-disk": (_DISK_SINGLE, "verify", "1e-2 1e-3 1e-4", 0.1),
    "construct-fine": (_DISK_PAIR, "construct", "1e-3", 0.05),
    "sweep-square": (_SQUARE_PAIR, "sweep", "1e-2 1e-3 1e-4", 0.1),
}


def _config(workload, out):
    problem, command, rho, h = WORKLOADS[workload]
    return (f"[problem]\n{problem}m1 = 1\ntau = 1.0\nv1 = 1\nv2 = 1\n\n"
            f"[mesh]\nh = {h}\nq = 1.3\n\n"
            f"[run]\ncommand = {command}\nrho = {rho}\np = 1.01 1.1 1.3\n"
            f"tol = 1e-10\nmaxiter = 50\nseed = 1\nout = {out}\n")


def _built(domain, centers, eta, policy):
    """A done Future of the background, built on the calling thread."""
    done = Future()
    done.set_result(geometry._background(domain, np.array(centers, dtype=float), eta, policy))
    return done


@pytest.mark.parametrize("domain", [DomainSpec(), SQUARE], ids=["disk-pair", "square-pair"])
def test_prefetched_background_equals_serial(domain, monkeypatch):
    policy = MeshPolicy(h=0.04)
    eta = annulus_radius(domain, PAIR)
    pending = prefetch_background(domain, PAIR, eta, policy)
    prefetched = pending.result()
    # build_mesh takes the prefetched background instead of building its own
    monkeypatch.setattr(geometry, "_background", None)
    mesh = build_mesh(pending, [1e-3, 1e-3])
    monkeypatch.undo()
    serial = _built(domain, PAIR, eta, policy)
    for f in dataclasses.fields(prefetched):
        a, b = getattr(prefetched, f.name), getattr(serial.result(), f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name
    cold = build_mesh(serial, [1e-3, 1e-3])
    assert mesh.nodes.tobytes() == cold.nodes.tobytes()
    assert mesh.triangles.tobytes() == cold.triangles.tobytes()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_artifacts_equal_without_prefetch(workload, tmp_path, monkeypatch):
    outs = []
    for label in ("prefetch", "serial"):
        if label == "serial":
            monkeypatch.setattr(corrector_mod, "prefetch_background", _built)
        out = tmp_path / label
        cfg = tmp_path / f"{label}.cfg"
        cfg.write_text(_config(workload, out))
        assert main([WORKLOADS[workload][1], "--config", str(cfg)]) == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


def test_worker_failure_surfaces_from_build_mesh(monkeypatch):
    def broken(*args):
        raise StitchFailure("non-conforming stitch (injected)")

    monkeypatch.setattr(geometry, "_background", broken)
    policy = MeshPolicy(h=0.1)
    eta = annulus_radius(DomainSpec(), PAIR)
    pending = prefetch_background(DomainSpec(), PAIR, eta, policy)
    with pytest.raises(StitchFailure, match="injected"):
        build_mesh(pending, [1e-3, 1e-3])
    assert pending.done()
    # nothing keeps the failed build: a new background builds
    monkeypatch.undo()
    assert build_mesh(prefetch_background(DomainSpec(), PAIR, eta, policy),
                      [1e-3, 1e-3]).n_nodes > 0


def _config_of(centers, alphas):
    return BlowupConfig(domain=DomainSpec(), centers=centers, alphas=alphas, m1=1,
                        V1=constant_potential(1.0), V2=constant_potential(1.0))


def test_coincident_centers_start_no_worker(monkeypatch):
    started = []
    monkeypatch.setattr(corrector_mod, "prefetch_background", lambda *a: started.append(a))
    with pytest.raises(DuplicateCenters):
        Run(_config_of([[0.3, 0.0], [0.3, 0.0]], [3.0, 3.0]), MeshPolicy(h=0.1))
    # nor for a center outside the domain
    with pytest.raises(HoleTouchesBoundary):
        Run(_config_of([[1.5, 0.0]], [3.0]), MeshPolicy(h=0.1))
    assert started == []


class _Unawaitable(Future):
    def result(self, timeout=None):
        raise AssertionError("the background was waited for")


def test_radius_failure_does_not_wait_for_the_background(monkeypatch):
    # alpha = 2.01 at rho = 1e-3: the hole radii underflow, which the radii
    # check names before build_mesh waits for the background
    monkeypatch.setattr(corrector_mod, "prefetch_background", lambda *a: _Unawaitable())
    run = Run(_config_of([[-0.4, 0.0], [0.4, 0.0]], [2.01, 2.01]), MeshPolicy(h=0.1))
    with pytest.raises(UnresolvableHole, match="below the resolvable scale"):
        run.stage(1e-3)


def test_traced_setup_stays_on_the_main_thread(tmp_path, monkeypatch):
    # the tracer keeps one span stack, so no traced function may run on the
    # background thread: only _background does
    threads = {}

    def recording(name, real):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.current_thread())
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(greens_mod.GreenProvider, "__init__",
                        recording("provider_init", greens_mod.GreenProvider.__init__))
    monkeypatch.setattr(greens_mod, "build_domain_mesh",
                        recording("build_domain_mesh", greens_mod.build_domain_mesh))
    monkeypatch.setattr(geometry, "_background",
                        recording("background", geometry._background))
    cfg = tmp_path / "square.cfg"
    cfg.write_text(_config("sweep-square", tmp_path / "out"))
    assert main(["sweep", "--config", str(cfg)]) == 0
    main_thread = threading.main_thread()
    assert threads["provider_init"] == {main_thread}
    assert threads["build_domain_mesh"] == {main_thread}
    # the domain mesh's background on the main thread, the pierced one on its own
    helpers = threads["background"] - {main_thread}
    assert main_thread in threads["background"] and len(helpers) == 1
    assert next(iter(helpers)).name.startswith("sinhpierce-background")


_EXIT_PROBE = """
import sys, time
from sinhpierce.cli import main
code = main(sys.argv[1:])
print(time.monotonic(), flush=True)
sys.exit(code)
"""


def test_failed_command_does_not_wait_for_the_helper(tmp_path):
    # alpha = 2.01 at rho = 1e-3 fails as the pierced domain is built, before
    # the first build_mesh takes the fine background the helper has begun
    cfg = tmp_path / "underflow.cfg"
    cfg.write_text(_config("construct-fine", tmp_path / "out")
                   .replace("alphas = 3.0 3.0", "alphas = 2.01 2.01")
                   .replace("h = 0.05", "h = 0.005"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(geometry.__file__)))
    proc = subprocess.run([sys.executable, "-c", _EXIT_PROBE, "construct", "--config", str(cfg)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    ended = time.monotonic()
    assert proc.returncode == 2, proc.stderr
    assert "below the resolvable scale" in (tmp_path / "out" / "manifest.txt").read_text()
    assert ended - float(proc.stdout) < 2.0
