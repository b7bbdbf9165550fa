"""Explicit spectral models and observation subdomains.

Three families of eigenpairs are provided, each with closed-form
eigenfunctions so that no PDE discretization error enters anywhere:

* Dirichlet Laplacian on an interval ``(0, L)``,
* Dirichlet Laplacian on a square ``(0, L)^2`` (tensor modes),
* Stokes operator on the 2-torus (divergence-free trigonometric fields).

A model carries its own quadrature rule.  All mass matrices and masks
are defined with respect to that discrete rule, which keeps every
advertised identity (orthonormality, positive semidefiniteness, the
full-domain mass being the identity) true at the level of floating
point arithmetic rather than only asymptotically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
import numpy.typing as npt

from .errors import ValidationError
from .system import _einsum, _frozen

FloatArray = npt.NDArray[np.float64]

_GAUSS_PTS_PER_PANEL = 12


@lru_cache(maxsize=None)
def _leggauss(npts: int) -> tuple[FloatArray, FloatArray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return _frozen(x), _frozen(w)


def _composite_gauss(length: float, panels: int) -> tuple[FloatArray, FloatArray]:
    """Composite Gauss-Legendre rule on [0, length] with 12 points per panel."""
    x, w = _leggauss(_GAUSS_PTS_PER_PANEL)
    edges = np.linspace(0.0, length, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class SpectralModel:
    """An explicit eigenbasis together with a quadrature rule.

    Attributes
    ----------
    kind : str
        One of ``"dirichlet_interval"``, ``"dirichlet_square"``,
        ``"torus_stokes"``.
    length : float
        Interval length, square side or torus period.
    dim : int
        Spatial dimension (1 or 2).
    n_comp : int
        Components per field value (1 for scalar bases, 2 on the torus).
    eigenvalues : ndarray, shape (K,)
        Sorted ascending, strictly positive.
    mode_data : ndarray of int
        Per-mode index data; the meaning depends on ``kind``.
    nodes : ndarray, shape (nnodes, dim)
    weights : ndarray, shape (nnodes,)
    """

    kind: str
    length: float
    dim: int
    n_comp: int
    eigenvalues: FloatArray
    mode_data: npt.NDArray[np.int64]
    nodes: FloatArray
    weights: FloatArray

    @property
    def num_modes(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def gamma_max(self) -> float:
        return float(self.eigenvalues[-1])

    def eigenfunctions(self, nodes: FloatArray | None = None) -> FloatArray:
        """Evaluate every eigenfunction.

        Returns an array of shape ``(K, npts, n_comp)``.
        """
        pts = self.nodes if nodes is None else np.atleast_2d(np.asarray(nodes, float))
        if pts.shape[1] != self.dim:
            raise ValidationError(
                f"evaluation points must have {self.dim} coordinates, got {pts.shape[1]}"
            )
        if self.kind == "dirichlet_interval":
            k = self.mode_data[:, 0].astype(float)
            arg = np.pi / self.length * k[:, None] * pts[None, :, 0]
            vals = np.sqrt(2.0 / self.length) * np.sin(arg)
            return vals[:, :, None]
        if self.kind == "dirichlet_square":
            p = self.mode_data[:, 0].astype(float)
            q = self.mode_data[:, 1].astype(float)
            fx = np.sin(np.pi / self.length * p[:, None] * pts[None, :, 0])
            fy = np.sin(np.pi / self.length * q[:, None] * pts[None, :, 1])
            vals = (2.0 / self.length) * fx * fy
            return vals[:, :, None]
        if self.kind == "torus_stokes":
            freq = (2.0 * np.pi / self.length) * self.mode_data[:, :2].astype(float)
            phase = self.mode_data[:, 2]
            arg = freq @ pts.T  # (K, npts)
            trig = np.where(phase[:, None] == 0, np.cos(arg), np.sin(arg))
            perp = np.stack([-freq[:, 1], freq[:, 0]], axis=1)
            perp /= np.linalg.norm(freq, axis=1)[:, None]
            scale = np.sqrt(2.0) / self.length
            return scale * trig[:, :, None] * perp[:, None, :]
        raise ValidationError(f"unknown model kind {self.kind!r}")

    def divergence(self, nodes: FloatArray | None = None) -> FloatArray:
        """Analytic divergence of each (vector) eigenfield, shape (K, npts).

        Only defined for vector-valued models.
        """
        if self.n_comp < 2:
            raise ValidationError("divergence is only defined for vector-valued models")
        pts = self.nodes if nodes is None else np.atleast_2d(np.asarray(nodes, float))
        freq = (2.0 * np.pi / self.length) * self.mode_data[:, :2].astype(float)
        phase = self.mode_data[:, 2]
        arg = freq @ pts.T
        dtrig = np.where(phase[:, None] == 0, -np.sin(arg), np.cos(arg))
        perp = np.stack([-freq[:, 1], freq[:, 0]], axis=1)
        # freq . perp vanishes identically; kept explicit so the formula is honest
        coef = np.einsum("kd,kd->k", freq, perp) / np.linalg.norm(freq, axis=1)
        scale = np.sqrt(2.0) / self.length
        return scale * coef[:, None] * dtrig

    @cached_property
    def node_values(self) -> FloatArray:
        """Eigenfunctions at the model's own quadrature nodes (cached)."""
        vals = self.eigenfunctions()
        vals.flags.writeable = False
        return vals

    def gram_matrix(self) -> FloatArray:
        """Quadrature Gram matrix of the basis over the full domain."""
        v = self.node_values
        return _einsum("kpc,lpc,p->kl", v, v, self.weights)


def dirichlet_interval_model(num_modes: int, length: float = np.pi) -> SpectralModel:
    """Sine eigenbasis of -d^2/dx^2 on (0, length) with Dirichlet ends.

    Mode k has eigenvalue ``(k*pi/length)**2`` and eigenfunction
    ``sqrt(2/length) * sin(k*pi*x/length)``.
    """
    if num_modes < 1:
        raise ValidationError(f"num_modes must be >= 1, got {num_modes}")
    if not length > 0.0:
        raise ValidationError(f"length must be positive, got {length}")
    k = np.arange(1, num_modes + 1)
    eig = (k * np.pi / length) ** 2
    panels = max(num_modes, 4)
    nodes, weights = _composite_gauss(length, panels)
    return SpectralModel(
        kind="dirichlet_interval",
        length=float(length),
        dim=1,
        n_comp=1,
        eigenvalues=_frozen(eig),
        mode_data=_frozen(k[:, None], dtype=np.int64),
        nodes=_frozen(nodes[:, None]),
        weights=_frozen(weights),
    )


def dirichlet_square_model(num_modes: int, length: float = np.pi) -> SpectralModel:
    """Tensor sine eigenbasis of the Dirichlet Laplacian on (0, length)^2.

    Modes are the products sin(p pi x/L) sin(q pi y/L) sorted by
    eigenvalue ``(p^2+q^2)(pi/L)^2``; ties are broken lexicographically
    in (p, q) so the ordering is reproducible.
    """
    if num_modes < 1:
        raise ValidationError(f"num_modes must be >= 1, got {num_modes}")
    if not length > 0.0:
        raise ValidationError(f"length must be positive, got {length}")
    bound = max(2, int(np.ceil(np.sqrt(2.0 * num_modes))) + 1)
    while True:
        p, q = np.meshgrid(np.arange(1, bound + 1), np.arange(1, bound + 1), indexing="ij")
        pairs = np.stack([p.ravel(), q.ravel()], axis=1)
        s = pairs[:, 0] ** 2 + pairs[:, 1] ** 2
        order = np.lexsort((pairs[:, 1], pairs[:, 0], s))
        if len(order) >= num_modes and s[order[num_modes - 1]] <= bound**2:
            break
        bound *= 2
    sel = pairs[order[:num_modes]]
    eig = (sel[:, 0] ** 2 + sel[:, 1] ** 2) * (np.pi / length) ** 2
    panels = max(int(sel.max()), 4)
    nodes1, weights1 = _composite_gauss(length, panels)
    nx, ny = np.meshgrid(nodes1, nodes1, indexing="ij")
    nodes = np.stack([nx.ravel(), ny.ravel()], axis=1)
    weights = np.outer(weights1, weights1).ravel()
    return SpectralModel(
        kind="dirichlet_square",
        length=float(length),
        dim=2,
        n_comp=1,
        eigenvalues=_frozen(eig.astype(float)),
        mode_data=_frozen(sel, dtype=np.int64),
        nodes=_frozen(nodes),
        weights=_frozen(weights),
    )


def torus_stokes_model(num_modes: int, period: float = 2.0 * np.pi) -> SpectralModel:
    """Divergence-free trigonometric eigenfields of the Stokes operator
    on the periodic square of side ``period``.

    For each wavevector ``kappa`` in the canonical half-lattice
    (kappa_1 > 0, or kappa_1 = 0 and kappa_2 > 0) there are two fields,

        kappa_perp / |kappa| * cos(kappa . x) * sqrt(2)/period,
        kappa_perp / |kappa| * sin(kappa . x) * sqrt(2)/period,

    with eigenvalue ``|kappa|^2`` (frequencies scaled by 2*pi/period).
    The lowest eigenvalue therefore has multiplicity four.  Quadrature
    is a uniform tensor grid, which integrates every product of two
    retained fields exactly.
    """
    if num_modes < 1:
        raise ValidationError(f"num_modes must be >= 1, got {num_modes}")
    if not period > 0.0:
        raise ValidationError(f"period must be positive, got {period}")
    bound = max(2, int(np.ceil(np.sqrt(num_modes))))
    while True:
        k1, k2 = np.meshgrid(np.arange(-bound, bound + 1), np.arange(-bound, bound + 1),
                             indexing="ij")
        kk = np.stack([k1.ravel(), k2.ravel()], axis=1)
        half = kk[(kk[:, 0] > 0) | ((kk[:, 0] == 0) & (kk[:, 1] > 0))]
        if 2 * len(half) >= num_modes:
            s = half[:, 0] ** 2 + half[:, 1] ** 2
            order = np.lexsort((half[:, 1], half[:, 0], s))
            needed = (num_modes + 1) // 2
            if s[order[needed - 1]] <= bound**2:
                break
        bound *= 2
    half = half[order]
    data = np.concatenate(
        [np.concatenate([half, np.full((len(half), 1), ph, dtype=half.dtype)], axis=1)
         for ph in (0, 1)]
    )
    # interleave: cos then sin per wavevector
    data = data.reshape(2, len(half), 3).transpose(1, 0, 2).reshape(-1, 3)[:num_modes]
    eig = (data[:, 0] ** 2 + data[:, 1] ** 2).astype(float) * (2.0 * np.pi / period) ** 2
    kmax = int(np.abs(data[:, :2]).max())
    npts = max(4 * kmax + 2, 16)
    grid = period * np.arange(npts) / npts
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    nodes = np.stack([gx.ravel(), gy.ravel()], axis=1)
    weights = np.full(nodes.shape[0], (period / npts) ** 2)
    return SpectralModel(
        kind="torus_stokes",
        length=float(period),
        dim=2,
        n_comp=2,
        eigenvalues=_frozen(eig),
        mode_data=_frozen(data, dtype=np.int64),
        nodes=_frozen(nodes),
        weights=_frozen(weights),
    )


@dataclass(frozen=True)
class SubdomainMask:
    """Observation subdomain for one control channel.

    The subdomain is represented by the quadrature nodes it contains;
    all integrals over it are taken with respect to those nodes, so the
    mask is exact for the discrete inner product the package uses.
    """

    channel: int
    member: npt.NDArray[np.bool_]
    measure: float
    boxes: tuple[tuple[tuple[float, float], ...], ...]


def mask_from_boxes(
    model: SpectralModel,
    channel: int,
    boxes: Sequence[Sequence[Sequence[float]]],
) -> SubdomainMask:
    """Build a mask from a union of axis-aligned open boxes.

    ``boxes`` is a sequence of boxes; each box lists one (lo, hi) pair
    per spatial dimension, e.g. ``[[[0.2, 0.5]]]`` on an interval or
    ``[[[0.0, 1.0], [2.0, 3.0]]]`` on a square.
    """
    if channel < 0:
        raise ValidationError(f"channel must be nonnegative, got {channel}")
    if len(boxes) == 0:
        raise ValidationError("at least one box is required")
    member = np.zeros(model.nodes.shape[0], dtype=bool)
    norm_boxes = []
    for b, box in enumerate(boxes):
        if len(box) != model.dim:
            raise ValidationError(
                f"box {b} must give {model.dim} (lo, hi) pairs, got {len(box)}"
            )
        inside = np.ones(model.nodes.shape[0], dtype=bool)
        pairs = []
        for d, (lo, hi) in enumerate(box):
            lo, hi = float(lo), float(hi)
            if not lo < hi:
                raise ValidationError(f"box {b}, axis {d}: need lo < hi, got ({lo}, {hi})")
            inside &= (model.nodes[:, d] > lo) & (model.nodes[:, d] < hi)
            pairs.append((lo, hi))
        member |= inside
        norm_boxes.append(tuple(pairs))
    measure = float(model.weights[member].sum())
    if not member.any():
        raise ValidationError("subdomain contains no quadrature nodes")
    out = SubdomainMask(channel=channel, member=member, measure=measure,
                        boxes=tuple(norm_boxes))
    out.member.flags.writeable = False
    return out


def full_domain_mask(model: SpectralModel, channel: int) -> SubdomainMask:
    """Mask covering the whole domain (observation everywhere)."""
    member = np.ones(model.nodes.shape[0], dtype=bool)
    member.flags.writeable = False
    lo = 0.0
    box = tuple((lo, model.length) for _ in range(model.dim))
    return SubdomainMask(channel=channel, member=member,
                         measure=float(model.weights.sum()), boxes=(box,))


def mass_matrix(
    model: SpectralModel,
    mask: SubdomainMask,
    mode_indices: npt.NDArray[np.int64] | None = None,
) -> FloatArray:
    """Cross mass matrix M_kl = integral over the subdomain of phi_k . phi_l.

    Symmetric positive semidefinite by construction.  With the full
    domain mask it reproduces the Gram matrix of the basis.
    """
    if mode_indices is None:
        idx = np.arange(model.num_modes)
    else:
        idx = np.asarray(mode_indices, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= model.num_modes):
            raise ValidationError("mode index out of range")
    v = model.node_values[idx][:, mask.member, :]
    w = model.weights[mask.member]
    m = _einsum("kpc,lpc,p->kl", v, v, w)
    return 0.5 * (m + m.T)
