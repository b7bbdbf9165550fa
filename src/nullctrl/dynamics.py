"""Exact per-mode evolution and spectral projections.

Expanding the solution in the model eigenbasis turns the PDE system
into an independent family of small ODEs: the coefficient vector of
mode k obeys ``a_k' + (gamma_k D + Q) a_k = 0`` and the adjoint the
transposed version.  Both are solved exactly with matrix exponentials,
so the only numerical error in an uncontrolled evolution is that of
the exponential itself.  Every mode flow in the package goes through
:func:`mode_propagators`, which evaluates a whole (time x distinct
eigenvalue) stack of exponentials in one call of the vectorized kernel
:func:`expm_stack`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import numpy.typing as npt

from .errors import PropagationStepError, ValidationError
from .spectral import SpectralModel
from .system import CoupledSystem, FloatArray, _einsum, _frozen

STEP_BOUND = 1e4

# Higham (2005), SIAM J. Matrix Anal. Appl. 26(4): coefficients of the
# degree-13 Pade approximant and the 1-norm up to which it reaches
# double precision without scaling.  Dividing by the constant term keeps
# the approximant and makes a zero matrix map to the identity exactly.
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
]) / 64764752532480000.0
_THETA13 = 5.371920351148152


def expm_stack(A: npt.ArrayLike) -> FloatArray:
    """Matrix exponential of every square matrix in a stack ``(..., n, n)``.

    Degree-13 Pade scaling and squaring (Higham 2005) in plain numpy:
    matrix k is scaled by ``2^-s_k`` with
    ``s_k = max(0, ceil(log2(|A_k|_1 / theta_13)))``, the approximant
    is evaluated for the whole stack at once, and each result is squared
    back ``s_k`` times.  Valid for non-normal and defective matrices.
    """
    A = np.asarray(A, dtype=float)
    norms = np.abs(A).sum(axis=-2).max(axis=-1, initial=0.0)
    s = np.ceil(np.log2(np.maximum(norms / _THETA13, 1.0))).astype(int)
    A = A * np.ldexp(1.0, -s)[..., None, None]
    b = _PADE13
    ident = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    E = np.linalg.solve(V - U, V + U)
    for j in range(int(s.max(initial=0))):
        E = np.where((s > j)[..., None, None], E @ E, E)
    return E


@dataclass(frozen=True)
class ModeState:
    """Snapshot of a truncated solution: coefficients per retained mode.

    ``coefficients[k, i]`` is the coefficient of eigenfunction
    ``mode_indices[k]`` in equation ``i``.  The eigenvalues ride along
    so a state is self-contained for propagation.
    """

    mode_indices: npt.NDArray[np.int64]
    eigenvalues: FloatArray
    coefficients: FloatArray
    time: float = 0.0

    def __post_init__(self):
        idx = np.asarray(self.mode_indices)
        eig = np.asarray(self.eigenvalues)
        coef = np.asarray(self.coefficients)
        if idx.ndim != 1 or eig.shape != idx.shape:
            raise ValidationError("mode_indices and eigenvalues must be 1-d and aligned")
        if coef.ndim != 2 or coef.shape[0] != idx.shape[0]:
            raise ValidationError(
                f"coefficients must have shape (num_modes, n), got {coef.shape}"
            )
        if idx.size and np.any(np.diff(idx) <= 0):
            raise ValidationError("mode_indices must be strictly increasing")
        if not np.all(np.isfinite(coef)):
            raise ValidationError("coefficients contain non-finite entries")

    @property
    def num_modes(self) -> int:
        return self.mode_indices.shape[0]

    def norm(self) -> float:
        """Field norm via Parseval: the Frobenius norm of the coefficients."""
        return float(np.linalg.norm(self.coefficients))


def full_state(model: SpectralModel, coefficients: npt.ArrayLike, time: float = 0.0) -> ModeState:
    """State carrying every model mode, from a (num_modes, n) array."""
    coef = np.atleast_2d(np.asarray(coefficients, dtype=float))
    if coef.shape[0] != model.num_modes:
        raise ValidationError(
            f"expected {model.num_modes} mode rows, got {coef.shape[0]}"
        )
    return ModeState(
        mode_indices=_frozen(np.arange(model.num_modes), np.int64),
        eigenvalues=model.eigenvalues,
        coefficients=_frozen(coef),
        time=float(time),
    )


def single_mode_state(model: SpectralModel, mode_index: int, vector: npt.ArrayLike,
                      time: float = 0.0) -> ModeState:
    """State equal to ``vector * phi_{mode_index}``."""
    if not 0 <= mode_index < model.num_modes:
        raise ValidationError(f"mode_index {mode_index} out of range")
    vec = np.asarray(vector, dtype=float).reshape(1, -1)
    return ModeState(
        mode_indices=_frozen([mode_index], np.int64),
        eigenvalues=_frozen([model.eigenvalues[mode_index]]),
        coefficients=_frozen(vec),
        time=float(time),
    )


def mode_positions(mode_set: npt.NDArray[np.int64], mode_indices: npt.ArrayLike,
                   what: str) -> npt.NDArray[np.intp]:
    """Positions of ``mode_indices`` in the sorted ``mode_set``.

    Raises
    ------
    ValidationError
        If some index is not in the set; ``what`` names its owner.
    """
    pos = np.searchsorted(mode_set, mode_indices)
    K = len(mode_set)
    if np.any(pos >= K) or np.any(mode_set[np.minimum(pos, K - 1)] != mode_indices):
        outside = np.setdiff1d(mode_indices, mode_set)
        raise ValidationError(f"{what} carries modes {outside.tolist()} outside "
                              f"the {K}-mode set")
    return pos


def embed(state: ModeState, mode_set: npt.NDArray[np.int64], what: str) -> FloatArray:
    """The state's coefficients on the sorted ``mode_set``, zero elsewhere."""
    coef = np.zeros((len(mode_set), state.coefficients.shape[1]))
    coef[mode_positions(mode_set, state.mode_indices, what)] = state.coefficients
    return coef


# relative roundoff allowance when Frobenius norms stand in for 2-norms
_FROBENIUS_SLACK = 1.0 + 1e-12
_FLOW_STEP = "dt*|gamma D + Q| = {step:.3g} exceeds {bound:.0g}; subdivide the step"


class _StepNorms:
    """Norms of a stack of mode generators for the step checks: the
    Frobenius norms at once, the 2-norms (one SVD call on the stack)
    the first time a check needs them."""

    def __init__(self, mats: FloatArray):
        self._mats = mats
        self._frobenius = np.linalg.norm(mats, axis=(-2, -1))
        self._two: FloatArray | None = None

    def largest(self, slots, exact: bool) -> float:
        """Largest Frobenius norm, or 2-norm if ``exact``, among ``slots``."""
        if exact and self._two is None:
            self._two = np.linalg.norm(self._mats, ord=2, axis=(-2, -1))
        norms = self._two if exact else self._frobenius
        return float(norms[slots].max(initial=0.0))


def _check_step(scale: float, terms: list[tuple[_StepNorms, object]],
                message: str) -> None:
    """Raise ``PropagationStepError(message)`` when ``scale`` times the
    sum, over the ``(norms, slots)`` terms, of the largest generator
    2-norm among ``slots`` exceeds ``STEP_BOUND``.

    The Frobenius norm bounds the 2-norm, so a step whose Frobenius sum,
    widened by a roundoff slack, is within ``STEP_BOUND`` passes without
    an SVD; every other step is decided on the 2-norms, so the same
    steps fail, with the same message.
    """
    def step(exact: bool) -> float:
        return scale * sum(norms.largest(slots, exact) for norms, slots in terms)

    if step(False) * _FROBENIUS_SLACK <= STEP_BOUND:
        return
    exact = step(True)
    if exact > STEP_BOUND:
        raise PropagationStepError(message.format(step=exact, bound=STEP_BOUND))


def _flows(mats: FloatArray, dt: FloatArray) -> FloatArray:
    """``expm(-dt * mat)`` for every step in ``dt`` and generator in ``mats``."""
    return expm_stack(-dt[..., None, None, None] * mats)


def _distinct(gammas: FloatArray
              ) -> tuple[FloatArray, npt.NDArray[np.intp]] | None:
    """The distinct values of a 1-d eigenvalue array and the slot of each
    entry among them, or None for an array that is not 1-d or is
    strictly increasing.

    Values are equal only when they are equal floats, never within a
    tolerance, so a quantity computed once per distinct value is the one
    each entry would get.  A strictly increasing array (every interval
    model) has nothing to merge and is answered by one comparison.
    """
    gammas = np.asarray(gammas)
    if gammas.ndim != 1 or np.all(gammas[1:] > gammas[:-1]):
        return None
    return np.unique(gammas, return_inverse=True)


def mode_propagators(system: CoupledSystem, eigenvalues: FloatArray,
                     dt: npt.ArrayLike, adjoint: bool = False) -> FloatArray:
    """Batched ``expm(-dt*(gamma_k D + Q))``, shape ``dt.shape + (K, n, n)``.

    ``dt`` is a scalar or an array of nonnegative steps; every step is
    paired with every distinct eigenvalue and the whole stack goes
    through one call of :func:`expm_stack`, so a repeated eigenvalue
    (a degenerate torus or square mode) costs nothing more and gets the
    very flow of its first occurrence.  The adjoint flag transposes the
    generator.

    Raises
    ------
    PropagationStepError
        If some ``dt*|gamma D + Q|_2`` exceeds ``STEP_BOUND``.
    """
    dt = np.asarray(dt, dtype=float)
    if np.any(dt < 0.0):
        raise ValidationError(f"dt must be nonnegative, got {dt.min()}")
    if np.size(eigenvalues) == 0 or dt.size == 0:
        return np.empty(dt.shape + np.shape(eigenvalues) + (system.n, system.n))
    distinct = _distinct(eigenvalues)
    mats = system.mode_matrices(eigenvalues if distinct is None else distinct[0],
                                adjoint)
    _check_step(float(dt.max()), [(_StepNorms(mats), slice(None))], _FLOW_STEP)
    flows = _flows(mats, dt)
    return flows if distinct is None else flows[..., distinct[1], :, :]


def propagate(system: CoupledSystem, state: ModeState, dt: float,
              adjoint: bool = False, *, cache=None) -> ModeState:
    """Advance every retained mode exactly by ``dt`` (homogeneous flow).

    ``cache`` is the window cache of a ``run_lr`` call; the forward
    propagators of the state's modes are then read from it.
    """
    if cache is None or adjoint:
        props = mode_propagators(system, state.eigenvalues, dt, adjoint=adjoint)
    else:
        cache.check(system)
        props = cache.propagators(dt, state.mode_indices)
    coef = np.einsum("kab,kb->ka", props, state.coefficients)
    return replace(state, coefficients=_frozen(coef), time=state.time + dt)


def _project(state: ModeState, gamma: float, low: bool) -> ModeState:
    if not gamma > 0.0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    keep = state.eigenvalues <= gamma if low else state.eigenvalues > gamma
    return replace(
        state,
        mode_indices=_frozen(state.mode_indices[keep], np.int64),
        eigenvalues=_frozen(state.eigenvalues[keep]),
        coefficients=_frozen(state.coefficients[keep]),
    )


def project_low(state: ModeState, gamma: float) -> ModeState:
    """Retain modes with eigenvalue <= gamma (the low-frequency part)."""
    return _project(state, gamma, low=True)


def project_high(state: ModeState, gamma: float) -> ModeState:
    """Retain modes with eigenvalue > gamma (complement of project_low)."""
    return _project(state, gamma, low=False)


def reconstruct(model: SpectralModel, state: ModeState,
                nodes: FloatArray | None = None) -> FloatArray:
    """Evaluate the represented field, shape (npts, n, n_comp)."""
    funcs = model.eigenfunctions(nodes)[state.mode_indices]
    return _einsum("ki,kpc->pic", state.coefficients, funcs)


@dataclass(frozen=True)
class DissipationReport:
    """Outcome of a randomized high-frequency decay check."""

    gamma: float
    t: float
    trials: int
    max_ratio: float
    bound: float
    satisfied: bool


def dissipation_check(system: CoupledSystem, model: SpectralModel, gamma: float,
                      t: float, trials: int = 100, seed: int = 0) -> DissipationReport:
    """Verify the high-frequency decay bound on random unit data.

    Draws ``trials`` random states supported on modes with eigenvalue
    above ``gamma``, evolves them exactly for time ``t`` and compares
    the worst amplification against the Gronwall bound
    ``exp((q_norm - coercivity_c*gamma)*t)``.
    """
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"t must lie in [0, 1], got {t}")
    if not gamma > 0.0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    high = model.eigenvalues > gamma
    if not high.any():
        raise ValidationError(
            f"model has no modes above gamma = {gamma}; enlarge the model"
        )
    eig = model.eigenvalues[high]
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((trials, eig.size, system.n))
    coeffs /= np.linalg.norm(coeffs, axis=(1, 2))[:, None, None]
    props = mode_propagators(system, eig, t)
    evolved = _einsum("kab,tkb->tka", props, coeffs)
    ratios = np.linalg.norm(evolved, axis=(1, 2))
    bound = system.decay_bound(gamma, t)
    max_ratio = float(ratios.max())
    return DissipationReport(
        gamma=float(gamma),
        t=float(t),
        trials=int(trials),
        max_ratio=max_ratio,
        bound=bound,
        satisfied=bool(max_ratio <= bound + 1e-9),
    )
