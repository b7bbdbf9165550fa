"""Minimal-norm low-frequency null control via the observability Gramian.

The Hilbert Uniqueness Method turns null control of the modes with
eigenvalue at most ``Gamma`` into a linear solve: assemble the Gramian
of the adjoint observation over the control window, solve ``G z = -b``
against the free terminal state ``b``, and read the control off the
adjoint flow of ``z``.  Everything here works on the discrete objects
of this package (mode coefficients, subdomain mass matrices, Gauss
time grids), so the synthesized control is exact for the truncated
system up to quadrature and solver tolerances that are measured, not
assumed.

A :class:`Gramian` owns its window: besides the matrix it keeps the
mode set, the Gauss grid, the subdomain masks it observed through and
their mass matrices on that mode set.  Synthesis builds the control
from those alone, and rejects a Gramian whose masks are not the ones
the caller passes, since its controls would act on the wrong
subdomains.  Every control is built by one routine, from its adjoint
datum sampled on a Gauss grid, and every control norm or inner product
comes from one subdomain-mass quadrature, so a synthesized control and
the one rebuilt from its datum on the Gramian's grid agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .dynamics import ModeState, embed, mode_positions, mode_propagators
from .errors import (ControllabilityError, ObservabilityError,
                     QuadratureError, ValidationError)
from .kalman import KalmanVerdict, kalman_certificate
from .spectral import SpectralModel, SubdomainMask, _leggauss, mass_matrix
from .system import CoupledSystem, FloatArray, _frozen

QUAD_RTOL = 1e-10
MAX_DOUBLINGS = 4
SPECTRAL_CUTOFF = 1e-12
SOLVE_RTOL = 1e-8
MAX_REFINEMENTS = 8


def gauss_rule(a: float, b: float, npts: int) -> tuple[FloatArray, FloatArray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(npts)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _adjoint_flows(system: CoupledSystem, gammas: FloatArray, tau: float,
                   times: FloatArray) -> FloatArray:
    """E_k(t) = expm(-(gamma_k D^T + Q^T)(tau - t)), shape (T, K, n, n)."""
    # times may overshoot tau by the roundoff beta_at tolerates
    gaps = np.maximum(tau - np.asarray(times, dtype=float), 0.0)
    return mode_propagators(system, gammas, gaps, adjoint=True)


def _beta(system: CoupledSystem, gammas: FloatArray, tau: float,
          times: FloatArray, Z: FloatArray) -> FloatArray:
    """Control coefficients ``R^T E(t) z`` at window times, shape (T, m, K)."""
    flows = _adjoint_flows(system, gammas, tau, times)
    return np.einsum("ai,tkab,kb->tik", system.R, flows, Z, optimize=True)


def _window_masses(model: SpectralModel, masks: list[SubdomainMask],
                   mode_indices: npt.NDArray[np.int64]) -> tuple[FloatArray, ...]:
    """Read-only subdomain mass matrix of each channel on a mode set."""
    masses = tuple(mass_matrix(model, mask, mode_indices) for mask in masks)
    for mass in masses:
        mass.flags.writeable = False
    return masses


def _same_masks(a: list[SubdomainMask], b: list[SubdomainMask]) -> bool:
    return len(a) == len(b) and all(
        u.channel == v.channel and np.array_equal(u.member, v.member)
        for u, v in zip(a, b))


def _control_inner(masses: tuple[FloatArray, ...], weights: FloatArray,
                   bu: FloatArray, bv: FloatArray) -> float:
    """Channel-summed L2 product of two coefficient samples on one grid."""
    total = 0.0
    for i, mass in enumerate(masses):
        total += np.einsum("t,tk,kl,tl->", weights, bu[:, i, :], mass,
                           bv[:, i, :], optimize=True)
    return float(total)


@dataclass(frozen=True)
class Gramian:
    """Observability Gramian of the low-frequency adjoint flow.

    The matrix acts on stacked adjoint data (one ``n``-vector per mode
    with eigenvalue <= ``gamma_cut``), flattened mode-major.  Its
    smallest eigenvalue is the squared observability constant of the
    truncated system and is cached at construction.

    ``masks`` are the per-channel subdomains the adjoint flow was
    observed through and ``masses`` their (K, K) mass matrices on
    ``mode_indices``, one per channel.  The Gramian is valid only for
    those masks: :func:`synthesize_control` rejects it when the caller's
    masks differ in number, channel or member nodes.
    """

    gamma_cut: float
    tau: float
    mode_indices: npt.NDArray[np.int64]
    eigenvalues: FloatArray
    matrix: FloatArray
    min_eigenvalue: float
    nodes: FloatArray
    weights: FloatArray
    masks: tuple[SubdomainMask, ...]
    masses: tuple[FloatArray, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _gramian_entries(system: CoupledSystem, gammas: FloatArray,
                     masses: tuple[FloatArray, ...], tau: float, npts: int,
                     ) -> tuple[FloatArray, FloatArray, FloatArray]:
    nodes, weights = gauss_rule(0.0, tau, npts)
    flows = _adjoint_flows(system, gammas, tau, nodes)
    K, n = len(gammas), system.n
    G = np.zeros((K, n, K, n))
    for i, mass in enumerate(masses):
        s = np.einsum("tkab,a->tkb", flows, system.R[:, i], optimize=True)
        G += np.einsum("t,kl,tka,tlb->kalb", weights, mass, s, s, optimize=True)
    return G.reshape(K * n, K * n), nodes, weights


def assemble_gramian(system: CoupledSystem, model: SpectralModel,
                     masks: list[SubdomainMask], gamma_cut: float, tau: float,
                     quad_nodes: int = 32) -> Gramian:
    """Assemble the Gramian with adaptively refined Gauss quadrature.

    The node count doubles until the largest entry change falls below
    1e-10 times the largest entry, with at most four doublings.

    Raises
    ------
    QuadratureError
        If the refinement budget is exhausted without convergence.
    """
    if not tau > 0.0:
        raise ValidationError(f"tau must be positive, got {tau}")
    if gamma_cut < model.eigenvalues[0]:
        raise ValidationError(
            f"gamma_cut = {gamma_cut} lies below the first eigenvalue "
            f"{model.eigenvalues[0]:.6g}"
        )
    if len(masks) != system.m:
        raise ValidationError(
            f"need one mask per control channel: {system.m} channels, "
            f"{len(masks)} masks"
        )
    for i, mask in enumerate(masks):
        if mask.channel != i:
            raise ValidationError(f"mask {i} carries channel {mask.channel}")
    if quad_nodes < 2:
        raise ValidationError(f"quad_nodes must be >= 2, got {quad_nodes}")

    idx = np.flatnonzero(model.eigenvalues <= gamma_cut)
    gammas = model.eigenvalues[idx]
    masses = _window_masses(model, masks, idx)

    npts = quad_nodes
    G, nodes, weights = _gramian_entries(system, gammas, masses, tau, npts)
    for _ in range(MAX_DOUBLINGS):
        npts *= 2
        G_fine, nodes, weights = _gramian_entries(system, gammas, masses, tau, npts)
        scale = np.abs(G_fine).max()
        if np.abs(G_fine - G).max() <= QUAD_RTOL * max(scale, np.finfo(float).tiny):
            G = 0.5 * (G_fine + G_fine.T)
            eigs = np.linalg.eigvalsh(G)
            return Gramian(
                gamma_cut=float(gamma_cut),
                tau=float(tau),
                mode_indices=_frozen(idx, np.int64),
                eigenvalues=_frozen(gammas),
                matrix=_frozen(G),
                min_eigenvalue=float(eigs[0]),
                nodes=_frozen(nodes),
                weights=_frozen(weights),
                masks=tuple(masks),
                masses=masses,
            )
        G = G_fine
    raise QuadratureError(
        f"Gramian quadrature did not converge after {MAX_DOUBLINGS} doublings "
        f"(final grid {npts} nodes, last change "
        f"{np.abs(G - G_fine).max():.3e} vs target {QUAD_RTOL * np.abs(G_fine).max():.3e})"
    )


@dataclass(frozen=True)
class ControlTrajectory:
    """A synthesized control on one window ``[t0, t0 + tau]``.

    The control in channel ``j`` is the subdomain-masked eigenfunction
    packet ``v_j(t, x) = sum_k beta[t, j, k] * phi_k(x)`` on ``omega_j``.
    ``coefficients`` stores beta on the Gauss grid used for the Gramian;
    :meth:`beta_at` evaluates it exactly at arbitrary times from the
    adjoint datum, so nothing is ever interpolated.
    """

    system: CoupledSystem
    t0: float
    tau: float
    gamma_cut: float
    mode_indices: npt.NDArray[np.int64]
    eigenvalues: FloatArray
    datum: FloatArray          # (K, n) optimal adjoint datum z-hat
    nodes: FloatArray          # absolute times, shape (T,)
    weights: FloatArray
    coefficients: FloatArray   # (T, m, K)
    norm_sq: float

    @property
    def t1(self) -> float:
        return self.t0 + self.tau

    def beta_at(self, t) -> FloatArray:
        """Control coefficients at time(s) t: shape (m, K) or (T, m, K)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < self.t0 - 1e-12) or np.any(t_arr > self.t1 + 1e-12):
            raise ValidationError("time outside the control window")
        beta = _beta(self.system, self.eigenvalues, self.tau, t_arr - self.t0,
                     self.datum)
        return beta[0] if np.ndim(t) == 0 else beta

    @property
    def norm(self) -> float:
        return float(np.sqrt(max(self.norm_sq, 0.0)))


def synthesize_control(system: CoupledSystem, model: SpectralModel,
                       masks: list[SubdomainMask], y0_low: ModeState,
                       gamma_cut: float, tau: float, *,
                       t0: float | None = None, quad_nodes: int = 32,
                       verdict: KalmanVerdict | None = None,
                       gramian: Gramian | None = None) -> ControlTrajectory:
    """Minimal-norm control steering the low modes of ``y0_low`` to zero.

    Solves the Gramian normal equations ``G z = -b`` with ``b`` the free
    terminal state, using a symmetric eigendecomposition with relative
    spectral cutoff 1e-12 and iterative refinement (at most 8 passes,
    continued while each pass at least halves the residual), then
    evaluates the control ``beta = R^T z(t)`` on the Gramian's Gauss grid.
    A supplied ``gramian`` must have been assembled for the same
    ``(gamma_cut, tau)`` and on ``masks``.

    Raises
    ------
    ControllabilityError
        If the Kalman certificate fails (checked here unless a verdict
        is supplied by the caller).
    ValidationError
        If ``y0_low`` carries modes above ``gamma_cut``, or a supplied
        Gramian was built for another cutoff, horizon or set of masks.
    ObservabilityError
        If the regularized solve leaves a residual above 1e-8 * |b|.
    """
    if verdict is None:
        verdict = kalman_certificate(system, model)
    if not verdict.controllable:
        raise ControllabilityError(
            f"Kalman certificate fails at mode {verdict.p0} "
            f"(gamma = {verdict.gamma_p0:.6g}); no control exists"
        )
    if y0_low.num_modes and float(y0_low.eigenvalues.max()) > gamma_cut:
        raise ValidationError(
            "y0_low carries modes above gamma_cut; project it first"
        )
    if gramian is None:
        gramian = assemble_gramian(system, model, masks, gamma_cut, tau, quad_nodes)
    else:
        if abs(gramian.gamma_cut - gamma_cut) > 0 or abs(gramian.tau - tau) > 0:
            raise ValidationError("supplied Gramian was built for different (gamma, tau)")
        if not _same_masks(masks, gramian.masks):
            raise ValidationError("supplied Gramian was built on different masks")
    if t0 is None:
        t0 = y0_low.time

    idx = gramian.mode_indices
    gammas = gramian.eigenvalues
    K, n = len(idx), system.n

    a0 = embed(y0_low, idx, "y0_low")
    props = mode_propagators(system, gammas, tau)
    b = np.einsum("kab,kb->ka", props, a0).reshape(K * n)
    b_norm = float(np.linalg.norm(b))

    if b_norm == 0.0:
        zhat = np.zeros(K * n)
    else:
        lam, vecs = np.linalg.eigh(gramian.matrix)
        lam_max = float(lam[-1])
        if lam_max <= 0.0:
            raise ObservabilityError(
                "observability too weak at this Gamma/tau: Gramian vanishes"
            )
        keep = lam > SPECTRAL_CUTOFF * lam_max
        V = vecs[:, keep]
        zhat = -(V @ ((V.T @ b) / lam[keep]))
        # refinement removes the roundoff the plain eigensolve leaves on
        # ill-conditioned Gramians; as in LAPACK's xPORFS it continues
        # while each pass at least halves the residual and keeps the
        # better of the last two iterates.  The genuinely invisible part
        # (below the spectral cutoff) is untouched and still trips the
        # residual test below.
        resid_vec = gramian.matrix @ zhat + b
        resid = float(np.linalg.norm(resid_vec))
        for _ in range(MAX_REFINEMENTS):
            z_new = zhat - V @ ((V.T @ resid_vec) / lam[keep])
            new_vec = gramian.matrix @ z_new + b
            new = float(np.linalg.norm(new_vec))
            halved = new <= 0.5 * resid
            if new < resid:
                zhat, resid_vec, resid = z_new, new_vec, new
            if not halved:
                break
        if resid > SOLVE_RTOL * b_norm:
            raise ObservabilityError(
                f"observability too weak at this Gamma/tau: solve residual "
                f"{resid:.3e} exceeds {SOLVE_RTOL:.0e} * |b| = {SOLVE_RTOL * b_norm:.3e}"
            )

    return _control_on_grid(system, zhat.reshape(K, n), gamma_cut, tau, t0,
                            idx, gammas, gramian.masses, gramian.nodes,
                            gramian.weights)


def _control_on_grid(system: CoupledSystem, datum: FloatArray,
                     gamma_cut: float, tau: float, t0: float,
                     mode_indices: npt.NDArray[np.int64], gammas: FloatArray,
                     masses: tuple[FloatArray, ...], nodes: FloatArray,
                     weights: FloatArray) -> ControlTrajectory:
    """The control of adjoint datum ``datum`` on a window's mode set,
    sampled on a rule of [0, tau]."""
    beta = _beta(system, gammas, tau, nodes, datum)
    return ControlTrajectory(
        system=system, t0=float(t0), tau=float(tau), gamma_cut=float(gamma_cut),
        mode_indices=_frozen(mode_indices, np.int64), eigenvalues=_frozen(gammas),
        datum=_frozen(datum), nodes=_frozen(t0 + nodes), weights=_frozen(weights),
        coefficients=_frozen(beta),
        norm_sq=_control_inner(masses, weights, beta, beta),
    )


def control_from_datum(system: CoupledSystem, model: SpectralModel,
                       masks: list[SubdomainMask], datum: npt.ArrayLike,
                       gamma_cut: float, tau: float, *, t0: float = 0.0,
                       quad_nodes: int = 64) -> ControlTrajectory:
    """Control generated by an arbitrary adjoint datum.

    Every control of the form ``v = B* R* phi`` with ``phi`` an adjoint
    flow is admissible; the HUM optimum is the special member whose
    datum solves the Gramian equation.  This constructor exists so that
    arbitrary members of the family (test directions, perturbations)
    can be manipulated with the same machinery; on the Gramian's grid
    it reproduces :func:`synthesize_control` exactly.
    """
    idx = np.flatnonzero(model.eigenvalues <= gamma_cut)
    Z = np.asarray(datum, dtype=float)
    if Z.shape != (len(idx), system.n):
        raise ValidationError(
            f"datum must have shape ({len(idx)}, {system.n}), got {Z.shape}"
        )
    return _control_on_grid(system, Z, gamma_cut, tau, t0, idx,
                            model.eigenvalues[idx],
                            _window_masses(model, masks, idx),
                            *gauss_rule(0.0, tau, quad_nodes))


def control_inner_product(model: SpectralModel, masks: list[SubdomainMask],
                          u: ControlTrajectory, v: ControlTrajectory,
                          npts: int = 128) -> float:
    """L2 inner product of two controls sharing a window and mode set.

    Both controls are evaluated exactly (through their adjoint data) on
    a fresh Gauss grid, so controls built on different grids compare
    cleanly.
    """
    if abs(u.t0 - v.t0) > 1e-12 or abs(u.tau - v.tau) > 1e-12:
        raise ValidationError("controls live on different windows")
    if not np.array_equal(u.mode_indices, v.mode_indices):
        raise ValidationError("controls use different mode sets")
    nodes, weights = gauss_rule(u.t0, u.t1, npts)
    return _control_inner(_window_masses(model, masks, u.mode_indices), weights,
                          u.beta_at(nodes), v.beta_at(nodes))


def simulate_forward(system: CoupledSystem, model: SpectralModel,
                     masks: list[SubdomainMask], y0: ModeState,
                     control: ControlTrajectory, gamma_sim: float,
                     ) -> list[ModeState]:
    """Exponentially integrate the controlled system through the window.

    All modes with eigenvalue <= ``gamma_sim`` are carried, including
    those above the control's own cutoff: a localized subdomain leaks
    control energy into them through the off-diagonal entries of the
    cross mass matrix, and that leakage is part of the dynamics, not an
    error term.  Between consecutive Gauss nodes of the control grid
    the variation-of-constants integral is evaluated with a 4-node
    Gauss rule and exact exponential propagation.

    The whole window is batched: the control is evaluated at every inner
    Gauss time at once, one :func:`mode_propagators` call yields the
    step and forcing flows of every sub-interval, and only the
    recurrence ``a <- S_j a + f_j`` runs sub-interval by sub-interval.

    Returns the states at the window boundaries and at every control
    grid node.

    Raises
    ------
    PropagationStepError
        If a sub-interval step exceeds the bound of :func:`mode_propagators`.
    """
    if gamma_sim < min(control.gamma_cut, model.gamma_max):
        raise ValidationError(
            f"gamma_sim = {gamma_sim} is below the control cutoff "
            f"{control.gamma_cut}; controlled modes would be dropped"
        )
    if len(masks) != system.m:
        raise ValidationError(
            f"need one mask per control channel: {system.m} channels, "
            f"{len(masks)} masks"
        )
    if abs(y0.time - control.t0) > 1e-9 * (1.0 + abs(control.t0)):
        raise ValidationError(
            f"y0 is timestamped {y0.time}, control window starts at {control.t0}"
        )
    sim_idx = np.flatnonzero(model.eigenvalues <= gamma_sim)
    sim_gammas = model.eigenvalues[sim_idx]
    a = embed(y0, sim_idx, "y0 (simulated up to gamma_sim)")
    # cross mass rows: how channel i forces every simulated mode
    ctrl_pos = mode_positions(sim_idx, control.mode_indices, "the control")
    cross = np.stack([
        mass_matrix(model, mask, sim_idx)[:, ctrl_pos] for mask in masks
    ])  # (m, Ks, Kc)

    bounds = np.concatenate([[control.t0], control.nodes, [control.t1]])
    lo, hi = bounds[:-1], bounds[1:]
    inner_x, inner_w = _leggauss(4)
    half = 0.5 * (hi - lo)
    s_times = (0.5 * (lo + hi))[:, None] + half[:, None] * inner_x     # (J, 4)
    s_weights = half[:, None] * inner_w
    beta = control.beta_at(s_times.ravel()).reshape(
        s_times.shape + (system.m, len(control.mode_indices)))
    force = np.einsum("qi,ilk,jtik->jtlq", system.R, cross, beta,
                      optimize=True)                                  # (J, 4, Ks, n)
    gaps = np.concatenate([(hi - lo)[:, None], hi[:, None] - s_times], axis=1)
    flows = mode_propagators(system, sim_gammas, gaps)               # (J, 5, Ks, n, n)
    increments = np.einsum("jt,jtkab,jtkb->jka", s_weights, flows[:, 1:], force,
                           optimize=True)

    mode_indices, eigenvalues = _frozen(sim_idx, np.int64), _frozen(sim_gammas)
    states = [ModeState(mode_indices=mode_indices, eigenvalues=eigenvalues,
                        coefficients=_frozen(a), time=float(bounds[0]))]
    for step, inc, v in zip(flows[:, 0], increments, hi):
        a = np.einsum("kab,kb->ka", step, a) + inc
        states.append(ModeState(mode_indices=mode_indices, eigenvalues=eigenvalues,
                                coefficients=_frozen(a), time=float(v)))
    return states
