"""Dyadic active/passive null controller and its cost law.

The construction alternates two mechanisms on a shrinking dyadic
partition of ``[0, T]``: on the active half of each window pair a
minimal-norm control annihilates the modes below a cutoff ``mu_k``,
and on the passive half the free dynamics dissipate what is left above
the cutoff.  The cutoffs grow like ``M * 4^k`` while the windows
shrink like ``2^-k``, which balances the ``exp(C sqrt(mu))`` price of
low-frequency control against the ``exp(-mu t)`` payoff of dissipation
and yields a total cost of order ``exp(C/T)``.  The scale ``M`` is
adapted by doubling when a window pair fails to contract, since the
constant that theory would prescribe is not accessible numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ModeState, embed, full_state, project_low, propagate
from .errors import (AdaptationError, ControllabilityError, NullCtrlError,
                     ScheduleError, ValidationError)
from .hum import (ControlTrajectory, _WindowCache, simulate_forward,
                  synthesize_control)
from .kalman import KalmanVerdict, kalman_certificate
from .spectral import SpectralModel, SubdomainMask
from .system import CoupledSystem

KAPPA = 0.25
CONTRACTION_RHO = 0.9
MAX_ADAPT_DOUBLINGS = 8


@dataclass(frozen=True)
class Window:
    """One segment of the dyadic schedule."""

    index: int
    phase: str            # "active" or "passive"
    start: float
    length: float
    cutoff: float


@dataclass(frozen=True)
class LRSchedule:
    """Dyadic partition of [0, T] into active/passive window pairs.

    Pair k occupies ``[a_k, a_k + 2*T_k]`` with ``T_k = T/4 / 2^k`` and
    cutoff ``mu_k = M * 4^k``; pairs are generated until the cutoff
    covers the model's top eigenvalue, and a final passive segment
    fills the geometric remainder so the lengths sum to T exactly.
    """

    T: float
    M: float
    kappa: float
    windows: tuple[Window, ...]

    def __post_init__(self):
        total = sum(w.length for w in self.windows)
        if abs(total - self.T) > 1e-12 * max(1.0, self.T):
            raise ScheduleError(
                f"window lengths sum to {total!r}, expected {self.T!r}"
            )
        cuts = [w.cutoff for w in self.windows if w.phase == "active"]
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ScheduleError("active cutoffs must be strictly increasing")

    @property
    def num_pairs(self) -> int:
        return sum(1 for w in self.windows if w.phase == "active")

    @property
    def final_cutoff(self) -> float:
        return max(w.cutoff for w in self.windows if w.phase == "active")


def build_schedule(T: float, M: float, gamma_max: float) -> LRSchedule:
    """Build the dyadic schedule for horizon T and initial scale M.

    ``kappa = 1/4`` is forced by the requirement that the pair lengths
    ``2 * kappa * T / 2^k`` telescope to T.
    """
    if not 0.0 < T <= 1.0:
        raise ScheduleError(f"T must lie in (0, 1], got {T}")
    if not M > 0.0 or not np.isfinite(M):
        raise ScheduleError(f"M must be a positive finite real, got {M}")
    if not gamma_max > 0.0 or not np.isfinite(gamma_max):
        raise ScheduleError(f"gamma_max must be positive finite, got {gamma_max}")

    windows: list[Window] = []
    a = 0.0
    k = 0
    while True:
        T_k = KAPPA * T / 2.0**k
        mu_k = M * 4.0**k
        if not np.isfinite(mu_k):
            raise ScheduleError("cutoff overflow before covering the spectrum")
        windows.append(Window(index=k, phase="active", start=a, length=T_k,
                              cutoff=mu_k))
        windows.append(Window(index=k, phase="passive", start=a + T_k,
                              length=T_k, cutoff=mu_k))
        a += 2.0 * T_k
        if mu_k >= gamma_max:
            break
        k += 1
    if not windows:
        raise ScheduleError("no active windows fit the requested schedule")
    # the geometric remainder T / 2^(k+1), coasted without control
    windows.append(Window(index=k + 1, phase="passive", start=a, length=T - a,
                          cutoff=windows[-1].cutoff))
    return LRSchedule(T=float(T), M=float(M), kappa=KAPPA, windows=tuple(windows))


@dataclass(frozen=True)
class WindowRecord:
    """Measured norms around one schedule window."""

    index: int
    phase: str
    start: float
    length: float
    cutoff: float
    norm_start: float
    norm_end: float
    low_end: float     # |P_mu y| at the window end
    high_end: float    # |P_mu^perp y| at the window end
    cost: float


@dataclass(frozen=True)
class LRResult:
    """Everything run_lr measured on one horizon."""

    schedule: LRSchedule
    records: tuple[WindowRecord, ...]
    controls: tuple[ControlTrajectory, ...]
    y0_norm: float
    terminal_norm: float
    total_cost: float
    M_used: float
    doublings: int

    @property
    def terminal_rel(self) -> float:
        return self.terminal_norm / self.y0_norm if self.y0_norm > 0 else 0.0


class _ContractionFailure(Exception):
    def __init__(self, pair_index: int, ratio: float):
        self.pair_index = pair_index
        self.ratio = ratio


def _run_once(system, model, masks, y0_full, schedule, gamma_sim, quad_nodes,
              verdict, adapt, run_scale, cache):
    records: list[WindowRecord] = []
    controls: list[ControlTrajectory] = []
    state = y0_full
    pair_start_norm = state.norm()
    for w in schedule.windows:
        norm_start = state.norm()
        if w.phase == "active":
            pair_start_norm = norm_start
            low = project_low(state, w.cutoff)
            try:
                ctl = synthesize_control(system, model, masks, low, w.cutoff,
                                         w.length, t0=w.start,
                                         quad_nodes=quad_nodes, verdict=verdict,
                                         run_scale=run_scale, cache=cache)
            except NullCtrlError as exc:
                raise type(exc)(f"window {w.index}: {exc}") from exc
            states = simulate_forward(system, model, masks, state, ctl,
                                      gamma_sim, cache=cache)
            state = states[-1]
            controls.append(ctl)
            cost = ctl.norm
        else:
            state = propagate(system, state, w.length, cache=cache)
            cost = 0.0
        coef, gammas = state.coefficients, state.eigenvalues
        records.append(WindowRecord(
            index=w.index, phase=w.phase, start=w.start, length=w.length,
            cutoff=w.cutoff, norm_start=norm_start, norm_end=state.norm(),
            low_end=float(np.linalg.norm(coef[gammas <= w.cutoff])),
            high_end=float(np.linalg.norm(coef[gammas > w.cutoff])),
            cost=cost,
        ))
        if adapt and w.phase == "passive" and w.index < schedule.num_pairs:
            ratio = state.norm() / pair_start_norm if pair_start_norm > 0 else 0.0
            if ratio > CONTRACTION_RHO:
                raise _ContractionFailure(w.index, ratio)
    return records, controls, state


def run_lr(system: CoupledSystem, model: SpectralModel,
           masks: list[SubdomainMask], y0: ModeState, T: float,
           M: float = 4.0, *, adapt: bool = True,
           gamma_sim: float | None = None, quad_nodes: int = 32,
           verdict: KalmanVerdict | None = None) -> LRResult:
    """Drive ``y0`` to (numerical) zero at time T by dyadic control.

    Each active window controls the modes below its cutoff with a
    minimal-norm control; the excitation it leaks into higher modes
    through the localized subdomains is carried by the simulation and
    removed by later, higher-cutoff windows.  With ``adapt`` on, the
    scale M doubles whenever a completed window pair fails to contract
    the state norm by the factor 0.9, capped at 8 doublings.

    The pair lengths ``T/4/2^k`` do not change when M doubles, so the
    state-free data of a window (forcing integrals, free propagators,
    adjoint flows, subdomain masses) recur across attempts.  The run
    keeps them in one window cache that lives for this call only and
    holds at most one table per window length; every value read from
    it is the one an uncached call computes, so it changes no result.

    Raises
    ------
    ControllabilityError
        If the Kalman certificate fails.
    AdaptationError
        If the contraction cap is exhausted.
    """
    if verdict is None:
        verdict = kalman_certificate(system, model)
    if not verdict.controllable:
        raise ControllabilityError(
            f"Kalman certificate fails at mode {verdict.p0} "
            f"(gamma = {verdict.gamma_p0:.6g}); dyadic control is impossible"
        )
    if gamma_sim is None:
        gamma_sim = model.gamma_max
    if gamma_sim < model.gamma_max:
        raise ValidationError(
            f"gamma_sim = {gamma_sim} drops model modes (top eigenvalue "
            f"{model.gamma_max:.6g}); the dropped tail would be untracked"
        )
    if abs(y0.time) > 0.0:
        raise ValidationError(f"y0 must be timestamped 0, got {y0.time}")

    y0_full = full_state(model, embed(y0, np.arange(model.num_modes), "y0"),
                         time=y0.time)
    y0_norm = y0_full.norm()
    M_cur = float(M)
    doublings = 0
    cache = _WindowCache(system, model, masks, gamma_sim)
    while True:
        schedule = build_schedule(T, M_cur, model.gamma_max)
        if y0_norm == 0.0:
            return LRResult(schedule=schedule, records=(), controls=(),
                            y0_norm=0.0, terminal_norm=0.0, total_cost=0.0,
                            M_used=M_cur, doublings=doublings)
        try:
            records, controls, final = _run_once(
                system, model, masks, y0_full, schedule, gamma_sim,
                quad_nodes, verdict, adapt, y0_norm, cache)
        except _ContractionFailure as fail:
            if doublings >= MAX_ADAPT_DOUBLINGS:
                raise AdaptationError(
                    f"contraction still fails (ratio {fail.ratio:.3f} at pair "
                    f"{fail.pair_index}) after {MAX_ADAPT_DOUBLINGS} doublings "
                    f"of M (reached {M_cur})"
                ) from None
            M_cur *= 2.0
            doublings += 1
            continue
        total_cost = float(np.sqrt(sum(c.norm_sq for c in controls)))
        return LRResult(
            schedule=schedule,
            records=tuple(records),
            controls=tuple(controls),
            y0_norm=y0_norm,
            terminal_norm=final.norm(),
            total_cost=total_cost,
            M_used=M_cur,
            doublings=doublings,
        )


@dataclass(frozen=True)
class SweepRow:
    T: float
    ok: bool
    cost: float
    terminal_rel: float
    M_used: float
    message: str


@dataclass(frozen=True)
class SweepResult:
    """Cost-law measurement: log(cost) regressed against 1/T."""

    rows: tuple[SweepRow, ...]
    alpha: float
    beta: float
    r_squared: float


def cost_sweep(system: CoupledSystem, model: SpectralModel,
               masks: list[SubdomainMask], y0: ModeState,
               T_list, M: float = 4.0, *, adapt: bool = True,
               gamma_sim: float | None = None, quad_nodes: int = 32,
               ) -> SweepResult:
    """Run the dyadic controller over several horizons and fit the cost law.

    Runs that raise a :class:`NullCtrlError` are flagged per row and
    excluded from the fit; any other exception propagates.  The fit
    is ordinary least squares of log(cost) on 1/T, reported as
    (alpha, beta, r_squared) for log(cost) = alpha + beta/T.
    """
    T_vals = [float(t) for t in T_list]
    if len(T_vals) < 4:
        raise ValidationError(f"need at least 4 horizons, got {len(T_vals)}")
    if any(not 0.0 < t <= 1.0 for t in T_vals):
        raise ValidationError("every horizon must lie in (0, 1]")

    verdict = kalman_certificate(system, model)
    rows: list[SweepRow] = []
    for T in T_vals:
        try:
            res = run_lr(system, model, masks, y0, T, M, adapt=adapt,
                         gamma_sim=gamma_sim, quad_nodes=quad_nodes,
                         verdict=verdict)
            rows.append(SweepRow(T=T, ok=True, cost=res.total_cost,
                                 terminal_rel=res.terminal_rel,
                                 M_used=res.M_used, message=""))
        except NullCtrlError as exc:
            rows.append(SweepRow(T=T, ok=False, cost=float("nan"),
                                 terminal_rel=float("nan"), M_used=float("nan"),
                                 message=f"{type(exc).__name__}: {exc}"))

    good = [(r.T, r.cost) for r in rows if r.ok and r.cost > 0.0]
    if len(good) >= 2:
        x = np.array([1.0 / t for t, _ in good])
        y = np.log(np.array([c for _, c in good]))
        beta, alpha = np.polyfit(x, y, 1)
        resid = y - (alpha + beta * x)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    else:
        alpha = beta = r2 = float("nan")
    return SweepResult(rows=tuple(rows), alpha=float(alpha), beta=float(beta),
                       r_squared=float(r2))
