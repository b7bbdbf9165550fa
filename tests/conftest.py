"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own numerics:
matrix exponentials come from a plain Taylor series, integrals from
brute-force dense quadrature, so agreement is evidence rather than
circularity.
"""

import importlib.util
import sys
from importlib import resources
from math import factorial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from nullctrl import (build_system, dirichlet_interval_model, full_domain_mask,
                      mask_from_boxes, mass_matrix)


def config_text(name: str) -> str:
    return (resources.files("nullctrl") / "configs" / name).read_text("utf-8")


def config_file(name: str) -> str:
    return str(resources.files("nullctrl") / "configs" / name)


def taylor_expm(M: np.ndarray, terms: int = 60) -> np.ndarray:
    """Brute-force Taylor series for expm.

    Large arguments are halved until the norm drops below one, then the
    result is squared back up; the series itself would otherwise lose
    digits to cancellation.
    """
    norm = np.linalg.norm(M, 2)
    squarings = max(0, int(np.ceil(np.log2(norm)))) if norm > 1.0 else 0
    A = M / (2.0 ** squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for j in range(1, terms):
        term = term @ A / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so that each call appends its positional
    arguments to the returned list."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def dense_time_quadrature(f, a: float, b: float, npts: int = 400) -> np.ndarray:
    """Integrate a matrix/array valued function with one dense Gauss rule."""
    x, w = np.polynomial.legendre.leggauss(npts)
    t = 0.5 * (a + b) + 0.5 * (b - a) * x
    vals = [wi * np.asarray(f(ti)) for ti, wi in zip(t, 0.5 * (b - a) * w)]
    return np.sum(vals, axis=0)


def controlled_window_oracle(system, model, masks, a0, control, gamma_sim):
    """Terminal coefficients of one controlled window from one scipy expm.

    The state ``a`` on the simulated modes and the adjoint flow ``phi``
    on the controlled ones evolve together: ``phi_k' = A_k^T phi_k``
    from ``phi_k(0) = e^{-tau A_k^T} z_k``, and
    ``a_j' = -A_j a_j + sum_i sum_k cross_i[j, k] R_i R_i^T phi_k``.
    The joint generator is block upper triangular, and one ``expm`` of
    ``tau`` times it carries ``(a0, phi(0))`` to the window's end.
    """
    n, tau = system.n, control.tau
    sim_idx = np.flatnonzero(model.eigenvalues <= gamma_sim)
    sim, ctrl = model.eigenvalues[sim_idx], control.eigenvalues
    Ks, Kc = len(sim), len(ctrl)

    def blk(p):
        return slice(p * n, (p + 1) * n)

    big = np.zeros(((Ks + Kc) * n, (Ks + Kc) * n))
    for j, g in enumerate(sim):
        big[blk(j), blk(j)] = -(g * system.D + system.Q)
    for k, g in enumerate(ctrl):
        big[blk(Ks + k), blk(Ks + k)] = (g * system.D + system.Q).T
    pos = np.searchsorted(sim_idx, control.mode_indices)
    for i, mask in enumerate(masks):
        cross = mass_matrix(model, mask, sim_idx)[:, pos]
        rr = np.outer(system.R[:, i], system.R[:, i])
        for j in range(Ks):
            for k in range(Kc):
                big[blk(j), blk(Ks + k)] += cross[j, k] * rr
    phi0 = [scipy.linalg.expm(-tau * (g * system.D + system.Q).T) @ z
            for g, z in zip(ctrl, control.datum)]
    x0 = np.concatenate([np.asarray(a0, dtype=float).ravel(), *phi0])
    return (scipy.linalg.expm(tau * big) @ x0)[:Ks * n].reshape(Ks, n)


@pytest.fixture(scope="session")
def case3_system():
    # cascade pair: channel 1 reaches the second equation only through q21
    return build_system(np.eye(2), [[0.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]])


@pytest.fixture(scope="session")
def scalar_system():
    return build_system([[1.0]], [[0.0]], [[1.0]])


@pytest.fixture(scope="session")
def interval10():
    return dirichlet_interval_model(10, np.pi)


@pytest.fixture(scope="session")
def interval20():
    return dirichlet_interval_model(20, np.pi)


@pytest.fixture(scope="session")
def narrow_mask10(interval10):
    return [mask_from_boxes(interval10, 0, [[[0.2 * np.pi, 0.5 * np.pi]]])]


@pytest.fixture(scope="session")
def wide_mask10(interval10):
    return [mask_from_boxes(interval10, 0, [[[0.2 * np.pi, 0.8 * np.pi]]])]


@pytest.fixture(scope="session")
def full_mask10(interval10):
    return [full_domain_mask(interval10, 0)]


def _load_perfbench(name: str):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's seeded inputs and ops, from ``perfbench/workloads.py``."""
    return _load_perfbench("workloads")


@pytest.fixture(scope="session")
def spans():
    """The benchmark's layer tracer, from ``perfbench/spans.py``."""
    return _load_perfbench("spans")
