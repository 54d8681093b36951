"""Shared fixtures: the expensive reference runs, built once per session."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from landau import io_cli
from landau.fields import NormRequest, lp_m_norm, maxwellian
from landau.grid import SymTensorField, make_grid
from landau.solver import (
    AnisotropicGaussian,
    Maxwellian,
    PerturbedMaxwellian,
    SimConfig,
    TwoBump,
    initial_datum,
    run,
)


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the numpy.fft transforms called during the test, in order; clear it to restart the count."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):

        def counting(*args, _name=name, _real=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


@pytest.fixture
def matmul_shapes(monkeypatch):
    """Operand shapes and dtypes, (shape x, shape y, dtype x, dtype y), of each
    numpy.matmul call during the test, in order; clear it to restart the count.

    Products written with the `@` operator do not pass through it.
    """
    shapes = []

    def recording(x, y, *args, _real=np.matmul, **kwargs):
        shapes.append((np.shape(x), np.shape(y), np.asarray(x).dtype, np.asarray(y).dtype))
        return _real(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return shapes


def dying_sweep_worker(job):
    """`io_cli._sweep_worker`, except that the worker given an n = 16 member
    dies at once; at module level, so spawned sweep workers can import it."""
    if job[0].n == 16:
        os._exit(3)
    return io_cli._sweep_worker(job)


def one_blas_thread_stdout(script: str) -> str:
    """What `python -c script` prints, stripped, run on this checkout with one BLAS thread."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout.strip()


def stacked_matrices(tensor: SymTensorField) -> np.ndarray:
    """The node matrices of `tensor` as one (N, 3, 3) stack, for `np.linalg.eigvalsh`."""
    rows = [[tensor.component(i, j).reshape(-1) for j in range(3)] for i in range(3)]
    return np.moveaxis(np.array(rows), -1, 0)


def timed_run(config: SimConfig):
    start = time.perf_counter()
    traj = run(config)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="session")
def trio48():
    """The three production-resolution runs behind the conservation criteria."""
    configs = {
        "maxwellian": SimConfig(n=48, t_end=1.0, cfl=0.25, initial=Maxwellian(), snapshot_every=2),
        "anisotropic": SimConfig(n=48, t_end=1.0, cfl=0.25, initial=AnisotropicGaussian((0.8, 1.0, 1.2)), snapshot_every=2),
        "two_bump": SimConfig(n=48, t_end=1.0, cfl=0.25, initial=TwoBump(2.0), snapshot_every=2),
    }
    out = {}
    elapsed = 0.0
    for name, cfg in configs.items():
        traj, dt = timed_run(cfg)
        out[name] = traj
        elapsed += dt
    out["elapsed"] = elapsed
    return out


def perturbed_amplitude(eps_target: float, n: int = 32, mode: int = 4) -> float:
    """Amplitude whose initial ||h||_2^2 is eps_target / 4 (linear response)."""
    ref = 0.1
    cfg = SimConfig(n=n, initial=PerturbedMaxwellian(ref, mode))
    f0 = initial_datum(cfg)
    y0 = lp_m_norm(f0 - maxwellian(make_grid(n, cfg.extent)), NormRequest(2.0)) ** 2
    return ref * math.sqrt(eps_target / 4.0 / y0)


@pytest.fixture(scope="session")
def perturbed_corpus():
    """Amplitude sweep at (p, m) = (2, 12): list of (eps, trajectory)."""
    out = []
    for eps in (1e-4, 1e-3, 1e-2):
        amp = perturbed_amplitude(eps)
        traj, _ = timed_run(
            SimConfig(n=32, t_end=1.0, cfl=0.25, p=2.0, m=12.0,
                      initial=PerturbedMaxwellian(amp, 4), snapshot_every=1)
        )
        out.append((eps, traj))
    return out


@pytest.fixture(scope="session")
def maxwellian32():
    """Equilibrium run that lands a step on every 0.1 (the smoothing fit needs the rows)."""
    traj, _ = timed_run(SimConfig(n=32, t_end=1.0, cfl=0.25, p=2.0, m=12.0, initial=Maxwellian(), snapshot_every=1))
    return traj


@pytest.fixture(scope="session")
def twobump32():
    traj, _ = timed_run(SimConfig(n=32, t_end=1.0, cfl=0.25, p=2.0, m=12.0, initial=TwoBump(2.0), snapshot_every=1))
    return traj


@pytest.fixture(scope="session")
def smoothing32():
    """Rough small datum at a small CFL so the fit window holds >= 6 samples."""
    traj, _ = timed_run(
        SimConfig(n=32, t_end=0.56, cfl=0.011, p=2.0, m=12.0,
                  initial=PerturbedMaxwellian(0.05, 8), snapshot_every=1)
    )
    return traj


@pytest.fixture(scope="session")
def smoothing48():
    traj, _ = timed_run(
        SimConfig(n=48, t_end=0.56, cfl=0.024, p=2.0, m=12.0,
                  initial=PerturbedMaxwellian(0.05, 8), snapshot_every=1)
    )
    return traj


@pytest.fixture(scope="session")
def relaxation32_config():
    """The stated relaxation configuration (anisotropic datum, t_end = 2)."""
    return SimConfig(n=32, t_end=2.0, cfl=0.25, initial=AnisotropicGaussian((0.8, 1.0, 1.2)), snapshot_every=2)


@pytest.fixture(scope="session")
def relaxation32(relaxation32_config):
    traj, _ = timed_run(relaxation32_config)
    return traj


@pytest.fixture(scope="session")
def relaxation24_long():
    """Long-horizon relaxation at coarse resolution (the physical clock)."""
    traj, _ = timed_run(
        SimConfig(n=24, t_end=40.0, cfl=0.25, initial=AnisotropicGaussian((0.8, 1.0, 1.2)), snapshot_every=20)
    )
    return traj


@pytest.fixture(scope="session")
def h1_sweep24():
    out = []
    for amp in (0.05, 0.1, 0.2):
        traj, _ = timed_run(SimConfig(n=24, t_end=0.5, cfl=0.25, initial=PerturbedMaxwellian(amp, 4), snapshot_every=2))
        out.append((amp, traj))
    return out
