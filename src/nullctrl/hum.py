"""Minimal-norm low-frequency null control via the observability Gramian.

The Hilbert Uniqueness Method turns null control of the modes with
eigenvalue at most ``Gamma`` into a linear solve: assemble the Gramian
of the adjoint observation over the control window, solve ``G z = -b``
against the free terminal state ``b``, and read the control off the
adjoint flow of ``z``.  The window calculus is exact: the Gramian,
every control norm and inner product and the controlled terminal state
are built from the integrals of :func:`_window_integrals`, blocks of
one batched matrix exponential (Van Loan 1978), with no time
quadrature.  The control is exact for the truncated system up to the
solver tolerance, which is measured, not assumed.

A :class:`Gramian` owns its window: the mode set, the subdomain masks
it observed through, their mass matrices and the Gauss grid on which
controls are sampled, only when read.  Synthesis rejects a Gramian whose
masks are not the caller's.  Every control is built by one routine from
its adjoint datum, and every control norm or inner product is the
Gramian product ``z_u^T G z_v``, so a synthesized control and the one
rebuilt from its datum agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import numpy.typing as npt

from .dynamics import (_FLOW_STEP, ModeState, _StepNorms, _check_step,
                       _distinct, _flows, embed, expm_stack, mode_positions,
                       mode_propagators)
from .errors import ControllabilityError, ObservabilityError, ValidationError
from .kalman import KalmanVerdict, kalman_certificate
from .spectral import SpectralModel, SubdomainMask, _leggauss, mass_matrix
from .system import CoupledSystem, FloatArray, _einsum, _frozen

SPECTRAL_CUTOFF = 1e-12
SOLVE_RTOL = 1e-8
RUN_RTOL = 1e-12
MAX_REFINEMENTS = 8


def gauss_rule(a: float, b: float, npts: int) -> tuple[FloatArray, FloatArray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(npts)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@lru_cache(maxsize=64)
def _triu_indices(K: int) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
    """Read-only ``np.triu_indices(K)``, computed once per size."""
    return tuple(_frozen(i, np.intp) for i in np.triu_indices(K))


def _adjoint_flows(system: CoupledSystem, gammas: FloatArray, tau: float,
                   times: FloatArray) -> FloatArray:
    """Adjoint flows ``E_k(t) = expm(-(gamma_k D + Q)^T (tau - t))`` at
    window times, shape (T, K, n, n)."""
    # times may overshoot tau by the roundoff beta_at tolerates
    gaps = np.maximum(tau - np.asarray(times, dtype=float), 0.0)
    return mode_propagators(system, gammas, gaps, adjoint=True)


def _beta(system: CoupledSystem, flows: FloatArray, Z: FloatArray) -> FloatArray:
    """Control coefficients ``R^T E_k(t) z_k`` from the adjoint flows at
    window times, shape (T, m, K)."""
    return _einsum("ai,tkab,kb->tik", system.R, flows, Z)


_INTEGRAL_STEP = ("tau*(|A_j| + |A_k|) = {step:.3g} exceeds {bound:.0g}; "
                  "shorten the window")


def _window_integrals(system: CoupledSystem, rows: FloatArray, cols: FloatArray,
                      tau: float) -> FloatArray:
    """``X[..., i] = int_0^tau e^{-s A_j} R_i R_i^T e^{-s A_k^T} ds``.

    ``A_j = rows[...] D + Q`` and ``A_k = cols[...] D + Q`` pair the
    broadcast entries of ``rows`` and ``cols`` (``rows[:, None]`` and
    ``cols[None, :]`` give every pair), ``R_i`` is column ``i`` of R;
    the shape is ``broadcast shape + (m, n, n)``.  With
    ``L = A_j (x) I + I (x) A_k`` on row-major ``vec X``, the integrals
    are the top-right block of ``expm(tau [[-L, [vec R_i R_i^T]_i], [0, 0]])``
    (Van Loan 1978), one :func:`expm_stack` call for every pair.  Each
    pair's block depends on the two eigenvalues only, so callers pass
    each distinct pair of values once (:func:`_pair_integrals`,
    :func:`_outer_integrals`, :class:`_WindowCache`) and gather.

    The caller checks the step: ``tau * (|A_j|_2 + |A_k|_2)``, a bound
    on ``tau |L|_2``, must not exceed ``STEP_BOUND``
    (:func:`_checked_integrals`).
    """
    n, m = system.n, system.m
    a_rows = system.mode_matrices(rows)
    a_cols = system.mode_matrices(cols)
    eye = np.eye(n)
    kron_sum = (np.einsum("...ab,cd->...acbd", a_rows, eye)
                + np.einsum("ab,...cd->...acbd", eye, a_cols))
    pairs = kron_sum.shape[:-4]
    gen = np.zeros(pairs + (n * n + m, n * n + m))
    gen[..., :n * n, :n * n] = -tau * kron_sum.reshape(pairs + (n * n, n * n))
    gen[..., :n * n, n * n:] = tau * np.einsum("ai,bi->abi", system.R,
                                               system.R).reshape(n * n, m)
    top_right = expm_stack(gen)[..., :n * n, n * n:]
    return np.moveaxis(top_right, -1, -2).reshape(pairs + (m, n, n))


def _checked_integrals(system: CoupledSystem, rows: FloatArray, cols: FloatArray,
                       tau: float) -> FloatArray:
    """:func:`_window_integrals` after the step check.

    Raises
    ------
    PropagationStepError
        If ``tau * (|A_j|_2 + |A_k|_2)`` exceeds ``STEP_BOUND``.
    """
    rows, cols = np.asarray(rows, dtype=float), np.asarray(cols, dtype=float)
    _check_step(tau, [(_StepNorms(system.mode_matrices(np.unique(g))), slice(None))
                      for g in (rows, cols)], _INTEGRAL_STEP)
    return _window_integrals(system, rows, cols, tau)


def _pair_integrals(system: CoupledSystem, gammas: FloatArray,
                    rows: npt.NDArray[np.intp], cols: npt.NDArray[np.intp],
                    tau: float) -> FloatArray:
    """:func:`_checked_integrals` of the pairs ``(gammas[rows], gammas[cols])``,
    integrating each distinct ordered pair of values once."""
    distinct = _distinct(gammas)
    if distinct is None:
        return _checked_integrals(system, gammas[rows], gammas[cols], tau)
    values, slots = distinct
    pairs, where = np.unique(slots[rows] * len(values) + slots[cols],
                             return_inverse=True)
    first, second = np.divmod(pairs, len(values))
    return _checked_integrals(system, values[first], values[second], tau)[where]


def _outer_integrals(system: CoupledSystem, rows: FloatArray, cols: FloatArray,
                     tau: float) -> FloatArray:
    """:func:`_checked_integrals` of every pair ``(rows[j], cols[k])``,
    shape (J, K, m, n, n), integrating each distinct pair of values once."""
    r, c = _distinct(rows), _distinct(cols)
    X = _checked_integrals(system, (rows if r is None else r[0])[:, None],
                           (cols if c is None else c[0])[None], tau)
    if r is not None:
        X = X[r[1]]
    return X if c is None else X[:, c[1]]


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


class _WindowCache:
    """The state-free window data of one ``run_lr`` call.

    A dyadic run revisits the same window lengths on every M-doubling
    attempt, and nothing here depends on the state, so each quantity is
    computed once per run: for each window length ``tau`` one dense
    table of the forcing integrals ``X`` over every pair of distinct
    simulated eigenvalues and the free propagators of the distinct
    eigenvalues; for each mode set its channel masses; once per run the
    channel masses on the simulated modes and the generator norms of the
    step checks.  A
    mode reads the entries of its eigenvalue's slot, through a mode to
    slot map built once.  Every entry is computed directly, as the
    uncached path computes it (no table entry is the transpose of
    another), and the step checks run on the requested modes only, so a
    read changes no bit and no error.

    ``run_lr`` makes one per call and drops it on return; it holds at
    most one table of each kind per window length.
    """

    def __init__(self, system: CoupledSystem, model: SpectralModel,
                 masks: list[SubdomainMask], gamma_sim: float):
        self.system, self.model, self.masks = system, model, list(masks)
        self.sim_idx = np.flatnonzero(model.eigenvalues <= gamma_sim)
        self._values, slots = np.unique(model.eigenvalues[self.sim_idx],
                                        return_inverse=True)
        # slot of model mode k at entry k + 1; -1 for a mode outside the
        # simulated set, and at both ends for indices out of range
        self._slot = np.full(model.num_modes + 2, -1, dtype=np.intp)
        self._slot[self.sim_idx + 1] = slots
        self._mats = system.mode_matrices(self._values)
        self._norms = _StepNorms(self._mats)
        self._entries: dict[tuple, object] = {}

    def _get(self, key: tuple, build):
        try:
            return self._entries[key]
        except KeyError:
            value = self._entries[key] = build()
            return value

    def check(self, system: CoupledSystem, model: SpectralModel | None = None,
              masks: list[SubdomainMask] | None = None,
              sim_idx: npt.NDArray[np.int64] | None = None) -> None:
        """Raise ValidationError unless the caller's data are this run's."""
        if (system is not self.system
                or (model is not None and model is not self.model)
                or (masks is not None and not _same_masks(masks, self.masks))
                or (sim_idx is not None
                    and not np.array_equal(sim_idx, self.sim_idx))):
            raise ValidationError("window cache belongs to another run")

    def _slots(self, mode_indices: npt.ArrayLike) -> npt.NDArray[np.intp]:
        """Distinct-eigenvalue slot of each mode index.

        Raises
        ------
        ValidationError
            If some mode is not simulated.
        """
        modes = np.asarray(mode_indices)
        slots = self._slot.take(modes + 1, mode="clip")
        if slots.min(initial=0) < 0:
            outside = np.setdiff1d(modes, self.sim_idx)
            raise ValidationError(f"the request carries modes {outside.tolist()} "
                                  f"outside the {len(self.sim_idx)}-mode set")
        return slots

    def masses(self, mode_indices: npt.NDArray[np.int64]) -> tuple[FloatArray, ...]:
        return self._get(("masses", mode_indices.tobytes()), lambda: _window_masses(
            self.model, self.masks, mode_indices))

    def cross(self, ctrl_pos: npt.NDArray[np.intp]) -> FloatArray:
        """Channel masses between the simulated modes and the simulated
        positions ``ctrl_pos``, shape (m, Ks, Kc)."""
        full = self._get(("cross",), lambda: [
            mass_matrix(self.model, mask, self.sim_idx) for mask in self.masks])
        return np.stack([mass[:, ctrl_pos] for mass in full])

    def integrals(self, tau: float, rows: npt.ArrayLike, cols: npt.ArrayLike
                  ) -> FloatArray:
        """:func:`_checked_integrals` for the broadcast mode index pairs
        ``rows``/``cols``, read from the length's table."""
        rs, cs = self._slots(rows), self._slots(cols)
        _check_step(tau, [(self._norms, rs), (self._norms, cs)], _INTEGRAL_STEP)
        g = self._values
        table = self._get(("integrals", tau), lambda: _window_integrals(
            self.system, g[:, None], g[None, :], tau))
        return table[rs, cs]

    def propagators(self, tau: float, modes: npt.ArrayLike) -> FloatArray:
        """``mode_propagators(system, gammas(modes), tau)``."""
        slots = self._slots(modes)
        _check_step(float(tau), [(self._norms, slots)], _FLOW_STEP)
        table = self._get(("propagators", tau), lambda: _flows(
            self._mats, np.asarray(tau, dtype=float)))
        return table[slots]


def _gramian_matrix(system: CoupledSystem, gammas: FloatArray,
                    masses: tuple[FloatArray, ...], tau: float,
                    upper: FloatArray | None = None) -> FloatArray:
    """The symmetrized Gramian: block (k, l) is ``sum_i mass_i[k, l] X[k, l, i]``.

    ``upper`` holds ``X`` of the pairs ``k <= l`` in ``np.triu_indices``
    order when the caller has them; otherwise only those are integrated,
    once per distinct pair ``(gamma_k, gamma_l)``.
    """
    K, n = len(gammas), system.n
    rows, cols = _triu_indices(K)
    if upper is None:
        upper = _pair_integrals(system, gammas, rows, cols, tau)
    # X[l, k, i] = X[k, l, i]^T
    X = np.empty((K, K) + upper.shape[1:])
    X[rows, cols] = upper
    X[cols, rows] = np.swapaxes(upper, -1, -2)
    G = np.einsum("ikl,kliab->kalb", np.stack(masses), X).reshape(K * n, K * n)
    return 0.5 * (G + G.T)


def _gram_product(G: FloatArray, zu: FloatArray, zv: FloatArray) -> float:
    """L2 product ``z_u^T G z_v`` of the controls of two adjoint data."""
    return float(zu.ravel() @ (G @ zv.ravel()))


@dataclass(frozen=True)
class Gramian:
    """Observability Gramian of the low-frequency adjoint flow.

    The matrix acts on stacked adjoint data (one ``n``-vector per mode
    with eigenvalue <= ``gamma_cut``), flattened mode-major.  Its
    smallest eigenvalue is the squared observability constant of the
    truncated system and is cached at construction.  ``nodes`` is the
    Gauss grid of ``[0, tau]`` on which its controls are sampled when
    read; the matrix itself is exact and does not depend on it.

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
    masks: tuple[SubdomainMask, ...]
    masses: tuple[FloatArray, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def assemble_gramian(system: CoupledSystem, model: SpectralModel,
                     masks: list[SubdomainMask], gamma_cut: float, tau: float,
                     quad_nodes: int = 32, *,
                     cache: _WindowCache | None = None) -> Gramian:
    """Assemble the exact Gramian of the window ``[0, tau]``.

    Every block comes from :func:`_window_integrals`; ``quad_nodes``
    only sets the Gauss grid on which controls are sampled.  With the
    ``cache`` of a ``run_lr`` call the integrals and masses are read
    from it; the Gramian is the same to the bit.

    Raises
    ------
    PropagationStepError
        If ``tau`` is too long for the window's top mode.
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
    if cache is None:
        masses, upper = _window_masses(model, masks, idx), None
    else:
        cache.check(system, model, masks)
        rows, cols = _triu_indices(len(idx))
        masses, upper = cache.masses(idx), cache.integrals(tau, idx[rows], idx[cols])

    G = _gramian_matrix(system, gammas, masses, tau, upper)
    return Gramian(
        gamma_cut=float(gamma_cut),
        tau=float(tau),
        mode_indices=_frozen(idx, np.int64),
        eigenvalues=_frozen(gammas),
        matrix=_frozen(G),
        min_eigenvalue=float(np.linalg.eigvalsh(G)[0]),
        nodes=_frozen(gauss_rule(0.0, tau, quad_nodes)[0]),
        masks=tuple(masks),
        masses=masses,
    )


@dataclass(frozen=True)
class ControlTrajectory:
    """A synthesized control on one window ``[t0, t0 + tau]``.

    The control in channel ``j`` is the subdomain-masked eigenfunction
    packet ``v_j(t, x) = sum_k beta[t, j, k] * phi_k(x)`` on ``omega_j``.
    ``nodes`` and ``coefficients`` sample beta on ``grid``, the relative
    Gauss grid the control was built on; they are computed from the
    adjoint datum on first read and kept, so an unread control costs no
    adjoint flow.  A read raises no step error that building did not:
    the flows step by ``max(tau - grid) < tau`` with ``|A_k^T| = |A_k|``,
    a bound the forward step check ``tau |A_k|`` of the same modes in
    :func:`synthesize_control` (and the window integrals' in
    :func:`control_from_datum`) has passed.  :meth:`beta_at` evaluates
    beta exactly at arbitrary times, so nothing is ever interpolated.
    """

    system: CoupledSystem
    t0: float
    tau: float
    gamma_cut: float
    mode_indices: npt.NDArray[np.int64]
    eigenvalues: FloatArray
    datum: FloatArray          # (K, n) optimal adjoint datum z-hat
    grid: FloatArray           # times relative to t0, shape (T,)
    norm_sq: float

    @property
    def t1(self) -> float:
        return self.t0 + self.tau

    @cached_property
    def nodes(self) -> FloatArray:
        """Absolute sampling times, shape (T,)."""
        return _frozen(self.t0 + self.grid)

    @cached_property
    def coefficients(self) -> FloatArray:
        """beta at ``nodes``, shape (T, m, K)."""
        flows = _adjoint_flows(self.system, self.eigenvalues, self.tau,
                               self.grid)
        return _frozen(_beta(self.system, flows, self.datum))

    def beta_at(self, t) -> FloatArray:
        """Control coefficients at time(s) t: shape (m, K) or (T, m, K)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < self.t0 - 1e-12) or np.any(t_arr > self.t1 + 1e-12):
            raise ValidationError("time outside the control window")
        flows = _adjoint_flows(self.system, self.eigenvalues, self.tau,
                               t_arr - self.t0)
        beta = _beta(self.system, flows, self.datum)
        return beta[0] if np.ndim(t) == 0 else beta

    @property
    def norm(self) -> float:
        return float(np.sqrt(max(self.norm_sq, 0.0)))


def synthesize_control(system: CoupledSystem, model: SpectralModel,
                       masks: list[SubdomainMask], y0_low: ModeState,
                       gamma_cut: float, tau: float, *,
                       t0: float | None = None, quad_nodes: int = 32,
                       verdict: KalmanVerdict | None = None,
                       gramian: Gramian | None = None,
                       run_scale: float = 0.0,
                       cache: _WindowCache | None = None) -> ControlTrajectory:
    """Minimal-norm control steering the low modes of ``y0_low`` to zero.

    Solves the Gramian normal equations ``G z = -b`` with ``b`` the free
    terminal state: an eigendecomposition of the Jacobi-scaled ``d G d``,
    ``d = diag(G)^-1/2``, with relative spectral cutoff 1e-12, then
    iterative refinement (at most 8 passes, continued while each pass at
    least halves the residual ``|G z + b|`` of the unscaled system).  The
    control ``beta = R^T z(t)`` is sampled on the Gramian's grid on read.  A
    supplied ``gramian`` must have been assembled for the same
    ``(gamma_cut, tau)`` and on ``masks``.

    ``run_scale`` is the norm of the state a whole run started from
    (``run_lr`` passes ``|y0|``): a residual below ``1e-12 * run_scale``
    is accepted even when ``1e-8 * |b|`` lies under the roundoff floor.
    ``cache`` is the window cache of a ``run_lr`` call (see
    :func:`assemble_gramian`); it changes no result.

    Raises
    ------
    ControllabilityError
        If the Kalman certificate fails (checked here unless a verdict
        is supplied by the caller).
    ValidationError
        If ``y0_low`` carries modes above ``gamma_cut``, or a supplied
        Gramian was built for another cutoff, horizon or set of masks.
    ObservabilityError
        If the regularized solve leaves a residual above
        ``max(1e-8 * |b|, 1e-12 * run_scale)``.
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
        gramian = assemble_gramian(system, model, masks, gamma_cut, tau,
                                   quad_nodes, cache=cache)
    else:
        if abs(gramian.gamma_cut - gamma_cut) > 0 or abs(gramian.tau - tau) > 0:
            raise ValidationError("supplied Gramian was built for different (gamma, tau)")
        if not _same_masks(masks, gramian.masks):
            raise ValidationError("supplied Gramian was built on different masks")
    if t0 is None:
        t0 = y0_low.time

    idx = gramian.mode_indices
    K, n = len(idx), system.n

    a0 = embed(y0_low, idx, "y0_low")
    if cache is None:
        props = mode_propagators(system, gramian.eigenvalues, tau)
    else:
        props = cache.propagators(tau, idx)
    b = np.einsum("kab,kb->ka", props, a0).reshape(K * n)
    b_norm = float(np.linalg.norm(b))

    if b_norm == 0.0:
        zhat = np.zeros(K * n)
    else:
        G = gramian.matrix
        diag = np.diag(G)
        # a zero diagonal entry of a PSD matrix carries a zero row
        d = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        lam, vecs = np.linalg.eigh(d[:, None] * G * d)
        lam_max = float(lam[-1])
        if lam_max <= 0.0:
            raise ObservabilityError(
                "observability too weak at this Gamma/tau: Gramian vanishes"
            )
        keep = lam > SPECTRAL_CUTOFF * lam_max
        V, lam = vecs[:, keep], lam[keep]

        def solve(v):
            return d * (V @ ((V.T @ (d * v)) / lam))

        zhat = -solve(b)
        # refinement removes the roundoff the plain eigensolve leaves on
        # ill-conditioned Gramians; as in LAPACK's xPORFS it continues
        # while each pass at least halves the residual and keeps the
        # better of the last two iterates.  The genuinely invisible part
        # (below the spectral cutoff) is untouched and still trips the
        # residual test below.
        resid_vec = G @ zhat + b
        resid = float(np.linalg.norm(resid_vec))
        for _ in range(MAX_REFINEMENTS):
            z_new = zhat - solve(resid_vec)
            new_vec = G @ z_new + b
            new = float(np.linalg.norm(new_vec))
            halved = new <= 0.5 * resid
            if new < resid:
                zhat, resid_vec, resid = z_new, new_vec, new
            if not halved:
                break
        target = max(SOLVE_RTOL * b_norm, RUN_RTOL * run_scale)
        if resid > target:
            raise ObservabilityError(
                f"observability too weak at this Gamma/tau: solve residual "
                f"{resid:.3e} exceeds max({SOLVE_RTOL:.0e} * |b|, "
                f"{RUN_RTOL:.0e} * |y0|) = {target:.3e}"
            )

    return _control_on_grid(system, zhat.reshape(K, n), gamma_cut, tau, t0,
                            idx, gramian.eigenvalues, gramian.matrix,
                            gramian.nodes)


def _control_on_grid(system: CoupledSystem, datum: FloatArray,
                     gamma_cut: float, tau: float, t0: float,
                     mode_indices: npt.NDArray[np.int64], gammas: FloatArray,
                     gram: FloatArray, grid: FloatArray) -> ControlTrajectory:
    """The control of adjoint datum ``datum`` on a window's mode set, to
    be sampled at ``grid`` in [0, tau]; ``gram`` is the window's Gramian."""
    return ControlTrajectory(
        system=system, t0=float(t0), tau=float(tau), gamma_cut=float(gamma_cut),
        mode_indices=_frozen(mode_indices, np.int64), eigenvalues=_frozen(gammas),
        datum=_frozen(datum), grid=_frozen(grid),
        norm_sq=_gram_product(gram, datum, datum),
    )


def control_from_datum(system: CoupledSystem, model: SpectralModel,
                       masks: list[SubdomainMask], datum: npt.ArrayLike,
                       gamma_cut: float, tau: float, *, t0: float = 0.0,
                       quad_nodes: int = 64) -> ControlTrajectory:
    """Control generated by an arbitrary adjoint datum.

    Every control of the form ``v = B* R* phi`` with ``phi`` an adjoint
    flow is admissible; the HUM optimum is the special member whose
    datum solves the Gramian equation.  This constructor builds any
    member (test directions, perturbations); sampled on the Gramian's
    grid it reproduces :func:`synthesize_control` exactly.
    """
    idx = np.flatnonzero(model.eigenvalues <= gamma_cut)
    Z = np.asarray(datum, dtype=float)
    if Z.shape != (len(idx), system.n):
        raise ValidationError(
            f"datum must have shape ({len(idx)}, {system.n}), got {Z.shape}"
        )
    gammas = model.eigenvalues[idx]
    G = _gramian_matrix(system, gammas, _window_masses(model, masks, idx), tau)
    return _control_on_grid(system, Z, gamma_cut, tau, t0, idx, gammas, G,
                            gauss_rule(0.0, tau, quad_nodes)[0])


def control_inner_product(model: SpectralModel, masks: list[SubdomainMask],
                          u: ControlTrajectory, v: ControlTrajectory) -> float:
    """Exact L2 inner product of two controls sharing a window and mode
    set: the Gramian product of their adjoint data."""
    if abs(u.t0 - v.t0) > 1e-12 or abs(u.tau - v.tau) > 1e-12:
        raise ValidationError("controls live on different windows")
    if not np.array_equal(u.mode_indices, v.mode_indices):
        raise ValidationError("controls use different mode sets")
    G = _gramian_matrix(u.system, u.eigenvalues,
                        _window_masses(model, masks, u.mode_indices), u.tau)
    return _gram_product(G, u.datum, v.datum)


def simulate_forward(system: CoupledSystem, model: SpectralModel,
                     masks: list[SubdomainMask], y0: ModeState,
                     control: ControlTrajectory, gamma_sim: float, *,
                     cache: _WindowCache | None = None) -> list[ModeState]:
    """Exact controlled flow through the window: ``[state at t0, state at t1]``.

    All modes with eigenvalue <= ``gamma_sim`` are carried, including
    those above the control's own cutoff: a localized subdomain leaks
    control energy into them through the off-diagonal entries of the
    cross mass matrix, and that leakage is part of the dynamics, not an
    error term.  Mode ``j`` ends at
    ``e^{-tau A_j} a_j + sum_i sum_k cross_i[j, k] X[j, k, i] z_k`` with
    ``X`` from :func:`_window_integrals` (``k`` over the controlled
    modes), ``cross_i`` the channel's mass matrix between the two mode
    sets and ``z`` the control's adjoint datum.  With the ``cache`` of a
    ``run_lr`` call, ``X``, ``cross`` and the free propagators are read
    from it; the end state is the same to the bit.

    Raises
    ------
    PropagationStepError
        If the window is too long for the top simulated mode.
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
    if cache is None:
        cross = np.stack([
            mass_matrix(model, mask, sim_idx)[:, ctrl_pos] for mask in masks
        ])  # (m, Ks, Kc)
        X = _outer_integrals(system, sim_gammas, control.eigenvalues,
                             control.tau)
        props = mode_propagators(system, sim_gammas, control.tau)
    else:
        cache.check(system, model, masks, sim_idx)
        cross = cache.cross(ctrl_pos)
        X = cache.integrals(control.tau, sim_idx[:, None],
                            control.mode_indices[None])
        props = cache.propagators(control.tau, sim_idx)
    forced = np.einsum("ijk,jkia->ja", cross,
                       np.einsum("jkiab,kb->jkia", X, control.datum))
    a_end = np.einsum("kab,kb->ka", props, a) + forced

    return [ModeState(mode_indices=_frozen(sim_idx, np.int64),
                      eigenvalues=_frozen(sim_gammas), coefficients=_frozen(c),
                      time=t) for c, t in ((a, control.t0), (a_end, control.t1))]
