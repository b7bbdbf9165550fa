"""Constant-coefficient coupled system data.

A system couples ``n`` scalar parabolic equations through a diffusion
matrix ``D``, a zero-order coupling matrix ``Q`` and a control matrix
``R`` that routes ``m`` control channels into the equations.  In the
eigenbasis of the spatial operator every Fourier mode with eigenvalue
``gamma`` evolves autonomously under the mode matrix ``gamma*D + Q``,
which is why the whole analysis reduces to families of small dense
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.typing as npt

from .errors import CoercivityError, ValidationError

FloatArray = npt.NDArray[np.float64]


def _frozen(a: npt.ArrayLike, dtype=float) -> npt.NDArray:
    """Read-only copy of ``a``, the storage of every immutable result."""
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _einsum_path(subscripts: str, shapes: tuple[tuple[int, ...], ...]) -> list:
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(subscripts, *operands, optimize="greedy")[0]


def _einsum(subscripts: str, *operands: npt.NDArray) -> npt.NDArray:
    """``np.einsum(..., optimize=True)`` with its greedy contraction path
    planned once per subscripts and operand shapes.

    The cache holds plans, never results, so it changes no bit.
    """
    path = _einsum_path(subscripts, tuple(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


@dataclass(frozen=True)
class CoupledSystem:
    """Validated, immutable description of a coupled system.

    Attributes
    ----------
    n, m : int
        Number of equations and of control channels.
    D, Q, R : ndarray
        Diffusion (n, n), coupling (n, n) and control (n, m) matrices.
    coercivity_c : float
        Smallest eigenvalue of the symmetric part of ``D``; strictly
        positive for any system accepted by :func:`build_system`.
    q_norm : float
        Spectral norm of ``Q``.
    """

    n: int
    m: int
    D: FloatArray
    Q: FloatArray
    R: FloatArray
    coercivity_c: float
    q_norm: float

    def mode_matrices(self, gammas: npt.ArrayLike, adjoint: bool = False) -> FloatArray:
        """Mode generators ``gamma*D + Q`` of every entry of ``gammas``,
        shape ``gammas.shape + (n, n)``; ``(gamma*D + Q)^T`` with ``adjoint``."""
        D, Q = (self.D.T, self.Q.T) if adjoint else (self.D, self.Q)
        return np.asarray(gammas, dtype=float)[..., None, None] * D + Q

    def mode_matrix(self, gamma: float) -> FloatArray:
        """Return ``gamma*D + Q`` for a single eigenvalue ``gamma > 0``."""
        if not gamma > 0.0:
            raise ValidationError(f"mode eigenvalue must be positive, got {gamma}")
        return self.mode_matrices(gamma)

    def decay_bound(self, gamma: float, t: float) -> float:
        """Upper bound ``exp((q_norm - coercivity_c*gamma) * t)`` on the
        amplification factor of the mode with eigenvalue ``gamma``."""
        return float(np.exp((self.q_norm - self.coercivity_c * gamma) * t))


def build_system(D: npt.ArrayLike, Q: npt.ArrayLike, R: npt.ArrayLike) -> CoupledSystem:
    """Validate raw matrices and assemble a :class:`CoupledSystem`.

    Raises
    ------
    ValidationError
        If shapes are inconsistent or entries are not finite.
    CoercivityError
        If the symmetric part of ``D`` is not positive definite.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.asarray(R, dtype=float)
    if R.ndim == 1:
        R = R[:, None]

    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValidationError(f"D must be square, got shape {D.shape}")
    n = D.shape[0]
    if Q.shape != (n, n):
        raise ValidationError(f"Q must have shape {(n, n)}, got {Q.shape}")
    if R.ndim != 2 or R.shape[0] != n or R.shape[1] < 1:
        raise ValidationError(f"R must have shape ({n}, m) with m >= 1, got {R.shape}")
    for name, mat in (("D", D), ("Q", Q), ("R", R)):
        if not np.all(np.isfinite(mat)):
            raise ValidationError(f"{name} contains non-finite entries")

    sym = 0.5 * (D + D.T)
    eigs = np.linalg.eigvalsh(sym)
    coercivity_c = float(eigs[0])
    if coercivity_c <= 0.0:
        raise CoercivityError(
            f"symmetric part of D must be positive definite; "
            f"smallest eigenvalue is {coercivity_c:.6g}"
        )
    q_norm = float(np.linalg.norm(Q, 2))

    return CoupledSystem(
        n=n,
        m=R.shape[1],
        D=_frozen(D),
        Q=_frozen(Q),
        R=_frozen(R),
        coercivity_c=coercivity_c,
        q_norm=q_norm,
    )
