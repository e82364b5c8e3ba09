import os

import numpy as np
import pytest

from weylrg.cutoff import smooth_cutoff
from weylrg.lattice import build_params


@pytest.fixture(scope="session")
def p_star():
    """Reference semimetal: t=1, t_perp=1/2, t'=2, r=1/2 (mu=1.75, p_F=pi/3)."""
    return build_params(1.0, 0.5, 2.0, r=0.5)


@pytest.fixture(scope="session")
def p_insulator():
    return build_params(1.0, 0.5, 2.0, r=-0.2)


@pytest.fixture(scope="session")
def p_small_r():
    """Deep two-regime point: h* = -4 at t_perp = 1/2."""
    return build_params(1.0, 0.5, 2.0, r=3.125e-4)


def _brute_matsubara_sums(grid, lam2, M, x0=0.0, extra=None):
    """(s0, a) of propagator._matsubara_sums as the plain complex sum over
    both signs of k0 and every entry of lam2, chunked over frequencies."""
    k0 = grid.matsubara_frequencies(M)
    w = smooth_cutoff(np.abs(k0) / 2.0 ** M) * np.exp(-1j * k0 * x0)
    s0 = np.zeros(lam2.size, complex)
    a = np.zeros(lam2.size, complex)
    for lo in range(0, k0.size, 4096):
        k0c = k0[lo:lo + 4096, None]
        g = w[lo:lo + 4096, None] / (k0c ** 2 + lam2[None, :])
        if extra is not None:
            g = g * extra(k0c ** 2, lam2[None, :])
        s0 += np.sum(g, axis=0)
        a += np.sum(g * (1j * k0c), axis=0)
    return s0 / grid.beta, a / grid.beta


@pytest.fixture(scope="session")
def brute_matsubara():
    return _brute_matsubara_sums


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes os.sched_getaffinity report n CPUs, so that
    PropagatorGrid.to_csv cuts its boxes into up to n runs and forks a child
    for every run after the first, on a host of any size."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return use
