"""Mode-wise Kalman rank certificate and its failure witnesses.

For each spatial eigenvalue ``gamma`` the coupled system restricted to
that mode is a linear ODE with matrix ``A(gamma) = gamma*D + Q`` and
input matrix ``R``.  The mode is controllable exactly when the Kalman
matrix

    K(gamma) = [R | A R | A^2 R | ... | A^(n-1) R]

has full row rank.  Each n x n minor of ``K`` is a polynomial in
``gamma`` of degree at most n(n-1), so the set of eigenvalues at which
the rank drops is either everything (structurally uncontrollable) or
contained in the real-root set of any one minor that does not vanish
identically.  The certificate takes its candidates from one such minor
and confirms them; the system is controllable over a given spectral
model precisely when no model eigenvalue is a rank drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import numpy.typing as npt
from numpy.polynomial import chebyshev as C

from .dynamics import mode_propagators
from .errors import InvalidKernelError, ValidationError
from .spectral import SpectralModel
from .system import CoupledSystem, FloatArray

RANK_RTOL = 1e-10
MATCH_RTOL = 1e-8
SNAP_RTOL = 1e-3
# determinant screen of the full-rank test (_full_rank_stack)
_SCREEN_THETA = 1e-10


def _kalman_stack(system: CoupledSystem, gammas: npt.ArrayLike) -> FloatArray:
    """Kalman matrices K(gamma) of every eigenvalue in ``gammas``,
    shape (len(gammas), n, n*m)."""
    gammas = np.asarray(gammas, dtype=float)
    positive = gammas > 0.0
    if not positive.all():
        raise ValidationError(
            f"mode eigenvalue must be positive, got {gammas[~positive][0]}")
    A = system.mode_matrices(gammas)
    blocks = [np.broadcast_to(system.R, (len(gammas),) + system.R.shape)]
    for _ in range(system.n - 1):
        blocks.append(A @ blocks[-1])
    return np.concatenate(blocks, axis=-1)


def build_Kp(system: CoupledSystem, gamma: float) -> FloatArray:
    """Kalman matrix of the mode with eigenvalue ``gamma``, shape (n, n*m)."""
    return _kalman_stack(system, [gamma])[0]


def _column_normalized(K: FloatArray) -> FloatArray:
    norms = np.linalg.norm(K, axis=-2, keepdims=True)
    return K / np.where(norms == 0.0, 1.0, norms)


def _svd_ranks(K_hat: FloatArray) -> npt.NDArray[np.intp]:
    """The rank rule on a stack of column-normalized Kalman matrices,
    from one SVD call."""
    s = np.linalg.svd(K_hat, compute_uv=False)
    return (s > RANK_RTOL * s[:, :1]).sum(axis=-1)


def _ranks(system: CoupledSystem, gammas: npt.ArrayLike) -> npt.NDArray[np.intp]:
    """Numerical rank of K(gamma) at every eigenvalue in ``gammas``, by the
    rule of :func:`rank_at`, from one SVD call on the stack.

    An all-zero K has no singular value above ``RANK_RTOL * 0`` and so
    rank 0.
    """
    return _svd_ranks(_column_normalized(_kalman_stack(system, gammas)))


def _full_rank_stack(K: FloatArray) -> npt.NDArray[np.bool_]:
    """``rank == n`` for every Kalman matrix of a (G, n, n*m) stack, by the
    rule of :func:`_ranks`, with an SVD only where a determinant screen
    cannot decide.

    Let ``K^`` be the column-normalized matrix, ``s_1 >= ... >= s_n`` its
    singular values and ``H = K^ K^T``, whose eigenvalues are the
    ``s_i^2``.  Then ``det H = prod s_i^2 <= s_n^2 s_1^(2(n-1))`` and
    ``tr H = sum s_i^2 >= s_1^2``, so

        (s_n / s_1)^2 >= det H / tr(H)^n.

    The screen clears a matrix when ``det H > _SCREEN_THETA * tr(H)^n``,
    so a cleared matrix has ``s_n / s_1 > 1e-5``, five orders of
    magnitude above ``RANK_RTOL``.  The bound is loose when the singular
    values are graded, as the blocks of successive powers of ``A``
    often make them, so the threshold sits far below what a full-rank
    matrix usually gives.  It still dwarfs the roundoff: forming ``H``
    and its determinant (a Gram product of unit columns and a backward
    stable LU) moves the singular values of ``H`` by at most about
    ``n * nm * eps * tr H``, near ``1e-14 * tr H`` for n <= 5 and
    m <= 3, against the ``1e-10 * tr H`` the screen demands of the
    least one, and the SVD finds ``s_n`` to within about ``eps * s_1``.
    So the SVD rule calls every cleared matrix full rank too.  The rest
    (a zero ``H``, a rank drop, a nearly dependent set) go to that
    rule, on the same normalized matrices.
    """
    n = K.shape[-2]
    K_hat = _column_normalized(K)
    H = K_hat @ np.swapaxes(K_hat, -1, -2)
    full = np.linalg.det(H) > _SCREEN_THETA * np.trace(H, axis1=-2, axis2=-1) ** n
    rest = np.flatnonzero(~full)
    if rest.size:
        full[rest] = _svd_ranks(K_hat[rest]) == n
    return full


def _full_rank(system: CoupledSystem, gammas: npt.ArrayLike) -> npt.NDArray[np.bool_]:
    """``_ranks(system, gammas) == n``, screened by :func:`_full_rank_stack`."""
    return _full_rank_stack(_kalman_stack(system, gammas))


def rank_at(system: CoupledSystem, gamma: float) -> int:
    """Numerical rank of K(gamma), with relative threshold 1e-10.

    Columns are normalized to unit length before the SVD.  The blocks
    of the Kalman matrix grow like gamma^j, so without the
    normalization the smallest singular value of a perfectly
    controllable mode shrinks like 1/gamma relative to the largest and
    a fixed relative threshold would misreport the rank at large
    eigenvalues.  Scaling columns leaves the rank itself unchanged.
    """
    return int(_ranks(system, [gamma])[0])


def kernel_vector(system: CoupledSystem, gamma: float) -> FloatArray:
    """Unit left null vector of K(gamma) (least left singular vector).

    Computed from the column-normalized matrix, whose left kernel is
    the same.  The sign is fixed so the entry of largest magnitude is
    positive, keeping results reproducible across runs.
    """
    u, _, _ = np.linalg.svd(_column_normalized(build_Kp(system, gamma)))
    z = u[:, -1]
    lead = np.argmax(np.abs(z))
    if z[lead] < 0:
        z = -z
    return z


def minor_polynomials(system: CoupledSystem, gamma_lo: float) -> tuple[FloatArray, FloatArray]:
    """Fit every n x n minor of K(gamma) as a Chebyshev series in gamma.

    The minors are sampled at ``n(n-1) + 1`` Chebyshev points of the
    interval ``[gamma_lo, gamma_lo + n(n-1) + 1]``, which determines a
    degree-n(n-1) polynomial exactly.  Returns the sample points and a
    ``(n_minors, deg+1)`` coefficient array in the Chebyshev basis of
    that interval.
    """
    u, samples = _fit_points(system, gamma_lo)
    cols = _column_subsets(system)
    K = _kalman_stack(system, samples)                      # (deg+1, n, nm)
    vals = np.linalg.det(K[:, :, cols].transpose(0, 2, 1, 3))
    return samples, C.chebfit(u, vals, len(u) - 1).T


def _fit_points(system: CoupledSystem, gamma_lo: float) -> tuple[FloatArray, FloatArray]:
    """The ``n(n-1) + 1`` Chebyshev points ``u`` of the minor fits and the
    sample values of gamma they map to."""
    if not gamma_lo > 0.0:
        raise ValidationError(f"gamma_lo must be positive, got {gamma_lo}")
    u = C.chebpts1(system.n * (system.n - 1) + 1)
    return u, _from_unit(u, gamma_lo, len(u) - 1)


def _from_unit(u: FloatArray, gamma_lo: float, deg: int) -> FloatArray:
    """Points of [-1, 1] mapped onto the fit interval
    ``[gamma_lo, gamma_lo + deg + 1]``."""
    lo, hi = gamma_lo, gamma_lo + deg + 1.0
    return lo + 0.5 * (u + 1.0) * (hi - lo)


def _column_subsets(system: CoupledSystem) -> npt.NDArray[np.intp]:
    """The column indices of every n x n minor of K, in lexicographic order."""
    return np.array(list(combinations(range(system.n * system.m), system.n)))


@dataclass(frozen=True)
class KalmanVerdict:
    """Outcome of the rank certificate over a spectral model.

    ``controllable`` is True when every model eigenvalue has a full-rank
    Kalman matrix.  ``bad_gammas`` lists the confirmed positive real
    values at which the rank drops, then any model eigenvalue whose rank
    drops that none of them matches (present in both outcomes; empty
    when the rank never drops).  On failure, ``p0`` is the index of the
    first offending eigenvalue, ``gamma_p0`` its value and ``z0`` a unit
    left null vector of the corresponding Kalman matrix.
    """

    controllable: bool
    bad_gammas: tuple[float, ...]
    checked_tolerance: float
    degenerate: bool = False
    p0: int | None = None
    gamma_p0: float | None = None
    z0: FloatArray | None = None


def _cluster(roots: np.ndarray) -> list[float]:
    """Sorted roots with each run of close ones merged into a running
    mean: a root within ``MATCH_RTOL`` (relative) of the current cluster
    value moves that value to the midpoint of the two, any other root
    starts a cluster.

    The running mean of a run of nonnegative sorted roots never exceeds
    its last root, so a gap wider than ``MATCH_RTOL * (1 + r_prev)`` to
    the previous root always starts a cluster; only the runs between
    such gaps are merged one root at a time.
    """
    r = np.sort(roots)
    if not len(r):
        return []
    prev = r[:-1]
    close = (r[1:] - prev <= MATCH_RTOL * (1.0 + prev)) | (prev < 0.0)
    starts = np.flatnonzero(np.concatenate([[True], ~close]))
    stops = np.append(starts[1:], len(r))
    out: list[float] = r[starts].tolist()
    for k in np.flatnonzero(stops - starts > 1)[::-1]:
        out[k:k + 1] = _merge_run(r[starts[k]:stops[k]])
    return out


def _merge_run(run: np.ndarray) -> list[float]:
    out: list[float] = []
    for r in run:
        if out and abs(r - out[-1]) <= MATCH_RTOL * (1.0 + abs(out[-1])):
            out[-1] = float(0.5 * (out[-1] + r))
        else:
            out.append(float(r))
    return out


def bad_set(system: CoupledSystem, gamma_lo: float) -> tuple[list[float], bool]:
    """Confirmed rank-dropping values of gamma, plus a degeneracy flag.

    A rank drop forces every n x n minor to vanish, so the bad set is
    contained in the real-root set of any one minor that is not
    identically zero.  Candidates are therefore the companion-matrix
    roots of one such minor (the one :func:`_rank_drops` picks at a
    full-rank sample) and each one is confirmed by the rank rule of
    :func:`rank_at`.  (Summing squared minors into a single polynomial
    would make every true root even-multiplicity, which root solvers
    split into complex pairs that escape a real-root filter; the roots
    of one minor are generically simple and well conditioned.)  The
    flag is True when the rank is below n at every sample point, i.e.
    the minors vanish identically.
    """
    bad, degenerate, _ = _rank_drops(system, gamma_lo, np.empty(0))
    return bad, degenerate


def _real_roots(coeffs: FloatArray) -> FloatArray:
    """Real roots of a Chebyshev series, with the coefficients at or below
    ``1e-12`` of the largest trimmed from the top.  An all-zero series,
    or one trimmed to a constant, has no roots."""
    r = C.chebroots(C.chebtrim(coeffs, 1e-12 * np.abs(coeffs).max()))
    return r[np.abs(r.imag) <= 1e-6 * (1.0 + np.abs(r.real))].real


def _nearest(values: FloatArray, points: FloatArray) -> npt.NDArray[np.intp]:
    """``np.argmin(np.abs(values - x))`` for every ``x`` in ``points``: the
    first index of the entry of the sorted, nonempty ``values`` nearest
    each point.

    A float difference is monotone in its operands, so the nearest entry
    is one of the two around the point's ``searchsorted`` slot, the
    first of its value's run on a tie.  Only an entry before that run
    can tie with it too (when rounding merges their distances); those
    rare points are answered by ``argmin`` itself.
    """
    hi = np.searchsorted(values, points)
    above = np.minimum(hi, len(values) - 1)
    below = np.searchsorted(values, values[np.maximum(hi - 1, 0)])
    d_below = np.abs(values[below] - points)
    take_below = (hi > 0) & ((hi == len(values))
                             | (d_below <= np.abs(values[above] - points)))
    near = np.where(take_below, below, above)
    tied = np.flatnonzero(take_below & (below > 0))
    tied = tied[np.abs(values[below[tied] - 1] - points[tied]) == d_below[tied]]
    for i in tied:
        near[i] = np.argmin(np.abs(values - points[i]))
    return near


def _rank_drops(system: CoupledSystem, gamma_lo: float, eigenvalues: FloatArray
                ) -> tuple[list[float], bool, npt.NDArray[np.bool_] | None]:
    """:func:`bad_set`, with each candidate near one of ``eigenvalues``
    checked there, plus the mask of the eigenvalues where the rank drops.

    The fit samples are ranked first (:func:`_full_rank_stack`); a
    degenerate system, full rank at none of them, returns there, with
    no mask.  Otherwise the eigenvalues (sorted, as a model's are) are
    ranked in one batched call, and the candidates come from one minor:
    at the middle full-rank sample, the column subset whose minor of
    the column-normalized Kalman matrix has the largest ``|det|`` (the
    first on a tie).  That minor is nonzero there, so it is not
    identically zero and its real roots hold every rank drop.  It is
    fitted on the samples like :func:`minor_polynomials` fits each
    minor.

    Fitted roots of high-degree minors can miss a true root by far more
    than ``MATCH_RTOL`` or the rank threshold allow, but not by the
    spacing of the spectrum.  A candidate within relative distance
    ``SNAP_RTOL`` of an eigenvalue, and not already a confirmed match
    for it, is therefore checked at the eigenvalue and, if the rank
    drops there, reported once as the eigenvalue.  The clustered
    candidates are ranked in one more call (:func:`_full_rank`) and
    :func:`_confirm` settles them.
    """
    u, samples = _fit_points(system, gamma_lo)
    K_all = _kalman_stack(system, np.concatenate([samples, eigenvalues]))
    K = K_all[:len(samples)]
    full = np.flatnonzero(_full_rank_stack(K))
    if not full.size:
        return [], True, None
    eigen_drops = ~_full_rank_stack(K_all[len(samples):])
    cols = _column_subsets(system)
    best = cols[0]
    if len(cols) > 1:       # with one control there is one minor to fit
        K_mid = _column_normalized(K[full[len(full) // 2]])
        minors = np.linalg.det(K_mid[:, cols].transpose(1, 0, 2))
        best = cols[np.argmax(np.abs(minors))]
    deg = len(u) - 1
    coeffs = C.chebfit(u, np.linalg.det(K[:, :, best]), deg)
    gammas = _from_unit(_real_roots(coeffs), gamma_lo, deg)
    candidates = _cluster(gammas[gammas > 0.0])
    if not candidates:      # the common case; spares a rank call on nothing
        return [], False, eigen_drops
    return (_confirm(candidates, ~_full_rank(system, candidates), eigenvalues,
                     eigen_drops), False, eigen_drops)


def _confirm(candidates: list[float], drops: npt.NDArray[np.bool_],
             eigenvalues: FloatArray, eigen_drops: npt.NDArray[np.bool_]
             ) -> list[float]:
    """The confirmed rank-dropping values among the clustered candidates.

    ``drops`` says where the rank drops at each candidate, ``eigen_drops``
    at each of the sorted ``eigenvalues``.  Candidates are taken in
    order: one within ``SNAP_RTOL`` of its nearest eigenvalue, and not a
    dropping match within ``MATCH_RTOL`` of it, reports that eigenvalue
    if the rank drops there (once, skipping it when already confirmed);
    any other candidate is reported if the rank drops at it.  Nearest
    eigenvalues and both tests are array operations; only the candidates
    that drop or snap are visited one by one.
    """
    snap = np.zeros(len(candidates), dtype=bool)
    if len(eigenvalues):
        g = np.array(candidates)
        p = _nearest(eigenvalues, g)
        e = eigenvalues[p]
        gap = np.abs(g - e)
        matched = drops & (gap <= MATCH_RTOL * (1.0 + e))
        snap = (gap <= SNAP_RTOL * (1.0 + e)) & ~matched
    confirmed: list[float] = []
    for i in np.flatnonzero(drops | snap):
        if snap[i]:
            e_i = float(eigenvalues[p[i]])
            if e_i in confirmed:
                continue
            if eigen_drops[p[i]]:
                confirmed.append(e_i)
                continue
        if drops[i]:
            confirmed.append(candidates[i])
    return confirmed


def kalman_certificate(system: CoupledSystem, model: SpectralModel) -> KalmanVerdict:
    """Decide controllability of the system over the model's spectrum.

    The certificate is finite: it fits one minor that does not vanish
    identically, extracts its real roots, where the rank can drop, and
    confirms each one (at the model eigenvalue it lies within relative
    distance 1e-3 of, if any).
    It also ranks every model eigenvalue, so the verdict agrees with
    the per-eigenvalue rank test by construction: the first eigenvalue
    whose rank drops is ``p0``, and one that no confirmed value matches
    within relative tolerance 1e-8 is added to ``bad_gammas``.
    """
    gamma_lo = float(model.eigenvalues[0])
    bad, degenerate, drops = _rank_drops(system, gamma_lo, model.eigenvalues)
    if degenerate:
        g0 = gamma_lo
        return KalmanVerdict(
            controllable=False,
            bad_gammas=(),
            checked_tolerance=MATCH_RTOL,
            degenerate=True,
            p0=0,
            gamma_p0=g0,
            z0=kernel_vector(system, g0),
        )
    for gamma in model.eigenvalues[drops]:
        if not any(abs(gamma - b) <= MATCH_RTOL * (1.0 + gamma) for b in bad):
            bad.append(float(gamma))
    if not drops.any():
        return KalmanVerdict(
            controllable=True,
            bad_gammas=tuple(bad),
            checked_tolerance=MATCH_RTOL,
        )
    p0 = int(np.argmax(drops))
    gamma = float(model.eigenvalues[p0])
    return KalmanVerdict(
        controllable=False,
        bad_gammas=tuple(bad),
        checked_tolerance=MATCH_RTOL,
        p0=p0,
        gamma_p0=gamma,
        z0=kernel_vector(system, gamma),
    )


@dataclass(frozen=True)
class InvisibleSolution:
    """Adjoint trajectory invisible to the observation operator.

    The solution is ``phi(t) = z(t) * phi_p0(x)`` with coefficient
    ``z(t) = expm(-(gamma*D + Q)^T (T - t)) z0`` and ``z0`` a unit left
    null vector of the Kalman matrix at ``gamma``.  By Cayley-Hamilton,
    ``R^T z(t)`` vanishes identically although ``phi(0)`` does not: the
    observation sees nothing while the state is nonzero.
    """

    system: CoupledSystem
    model: SpectralModel
    mode_index: int
    gamma: float
    z0: FloatArray
    horizon: float

    def coefficient(self, t) -> FloatArray:
        """Coefficient vector z(t); accepts a scalar or an array of times."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < 0.0) or np.any(t_arr > self.horizon):
            raise ValidationError("time outside [0, horizon]")
        flows = mode_propagators(self.system, np.array([self.gamma]),
                                 self.horizon - t_arr, adjoint=True)
        out = flows[:, 0] @ self.z0
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out

    def observation(self, t) -> FloatArray:
        """R^T z(t), the observed trace of the invisible solution."""
        return self.coefficient(t) @ self.system.R

    def field(self, t: float, nodes: FloatArray | None = None) -> FloatArray:
        """Full space-time value, shape (npts, n, n_comp)."""
        phi = self.model.eigenfunctions(nodes)[self.mode_index]  # (npts, n_comp)
        z = self.coefficient(float(t))
        return z[None, :, None] * phi[:, None, :]


def invisible_adjoint_solution(
    system: CoupledSystem,
    model: SpectralModel,
    mode_index: int,
    z0: npt.ArrayLike,
    horizon: float,
) -> InvisibleSolution:
    """Package a certified rank failure as an explicit invisible solution.

    Raises
    ------
    InvalidKernelError
        If ``z0`` is not unit length or not in the left kernel of the
        Kalman matrix at the selected eigenvalue (residual above 1e-8).
    """
    if not 0 <= mode_index < model.num_modes:
        raise ValidationError(f"mode_index {mode_index} out of range")
    if not horizon > 0.0:
        raise ValidationError(f"horizon must be positive, got {horizon}")
    z0 = np.asarray(z0, dtype=float).ravel()
    if z0.shape != (system.n,):
        raise InvalidKernelError(f"z0 must have shape ({system.n},), got {z0.shape}")
    nrm = np.linalg.norm(z0)
    if abs(nrm - 1.0) > 1e-8:
        raise InvalidKernelError(f"z0 must be a unit vector, |z0| = {nrm:.12g}")
    gamma = float(model.eigenvalues[mode_index])
    K = build_Kp(system, gamma)
    resid = float(np.linalg.norm(K.T @ z0))
    if resid > 1e-8:
        raise InvalidKernelError(
            f"z0 is not in the kernel of K^T at gamma={gamma:.6g}: residual {resid:.3e}"
        )
    z0 = z0 / nrm
    z0.flags.writeable = False
    return InvisibleSolution(
        system=system,
        model=model,
        mode_index=mode_index,
        gamma=gamma,
        z0=z0,
        horizon=float(horizon),
    )
