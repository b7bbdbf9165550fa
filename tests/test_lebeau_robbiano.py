import numpy as np
import pytest

from nullctrl import (AdaptationError, ControllabilityError, ModeState,
                      ObservabilityError, ScheduleError, ValidationError,
                      build_schedule, build_system, cost_sweep,
                      dirichlet_interval_model, full_state,
                      kalman_certificate, load_config, mask_from_boxes,
                      propagate, run_lr, simulate_forward, synthesize_control)
from nullctrl import hum
from nullctrl.dynamics import embed, project_low, single_mode_state
from scipy.linalg import expm

from conftest import config_file, controlled_window_oracle, count_calls


def test_schedule_dyadic_layout():
    s = build_schedule(1.0, 4.0, gamma_max=100.0)
    active = [w for w in s.windows if w.phase == "active"]
    assert active[0].length == pytest.approx(0.25)    # first width T/4
    assert active[1].length == pytest.approx(0.125)
    assert active[1].start == pytest.approx(0.5)
    assert active[2].start == pytest.approx(0.75)
    assert [w.cutoff for w in active] == [4.0, 16.0, 64.0, 256.0]
    assert s.kappa == 0.25
    assert s.num_pairs == 4
    assert s.final_cutoff == 256.0


def test_schedule_lengths_sum_exactly():
    for T in (1.0, 0.37, 0.0625):
        s = build_schedule(T, 4.0, gamma_max=400.0)
        assert sum(w.length for w in s.windows) == pytest.approx(T, abs=1e-15)
        # windows tile [0, T] without gaps
        edge = 0.0
        for w in s.windows:
            assert w.start == pytest.approx(edge, abs=1e-12)
            edge += w.length
        assert edge == pytest.approx(T, abs=1e-12)
    assert s.windows[-1].phase == "passive"


def test_schedule_covers_spectrum_inclusively():
    s = build_schedule(1.0, 4.0, gamma_max=64.0)
    # the pair whose cutoff reaches the top eigenvalue is still generated
    assert s.final_cutoff == 64.0
    assert s.num_pairs == 3


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        build_schedule(0.0, 4.0, 100.0)
    with pytest.raises(ScheduleError):
        build_schedule(1.5, 4.0, 100.0)
    with pytest.raises(ScheduleError):
        build_schedule(1.0, 0.0, 100.0)
    with pytest.raises(ScheduleError):
        build_schedule(1.0, np.inf, 100.0)


def test_run_lr_zero_state_trivial(scalar_system, interval10, narrow_mask10):
    y0 = full_state(interval10, np.zeros((10, 1)))
    res = run_lr(scalar_system, interval10, narrow_mask10, y0, 1.0)
    assert res.total_cost == 0.0
    assert res.terminal_norm == 0.0
    assert res.controls == ()


def test_run_lr_scalar_reaches_zero(scalar_system, interval10, narrow_mask10):
    y0 = single_mode_state(interval10, 0, [1.0])
    res = run_lr(scalar_system, interval10, narrow_mask10, y0, 1.0)
    assert res.terminal_rel <= 1e-6
    assert res.total_cost > 0.0
    # cross-check against one HUM shot over the whole horizon at full
    # spectral resolution: the dyadic construction cannot beat the
    # minimal-norm control of the same task
    full = synthesize_control(scalar_system, interval10, narrow_mask10,
                              project_low(full_state(
                                  interval10,
                                  np.eye(10, 1, dtype=float)), 100.0),
                              100.0, 1.0)
    assert res.total_cost >= full.norm * (1.0 - 1e-9)


def test_run_lr_contraction_and_dissipation(case3_system, interval10,
                                            wide_mask10):
    rng = np.random.default_rng(0)
    y0 = full_state(interval10, rng.standard_normal((10, 2)))
    res = run_lr(case3_system, interval10, wide_mask10, y0, 1.0)
    assert res.terminal_rel <= 1e-6

    passive = {r.index: r for r in res.records if r.phase == "passive"}
    active = {r.index: r for r in res.records if r.phase == "active"}

    # completed pairs contract by the adapted factor
    for k, rec in passive.items():
        if k < res.schedule.num_pairs:
            assert rec.norm_end <= 0.9 * active[k].norm_start + 1e-12

    # passive halves dissipate the high-frequency part at least at the
    # rate the decay bound guarantees
    for k, rec in passive.items():
        if k >= res.schedule.num_pairs:
            continue
        bound = case3_system.decay_bound(rec.cutoff, rec.length)
        assert rec.high_end <= bound * active[k].high_end * (1 + 1e-9) + 1e-13

    # total cost is the l2 concatenation of window costs
    window_costs = [r.cost for r in res.records if r.phase == "active"]
    assert res.total_cost == pytest.approx(
        np.sqrt(np.sum(np.square(window_costs))), rel=1e-10)


def test_run_lr_active_windows_clear_low_modes(case3_system, interval10,
                                               wide_mask10):
    rng = np.random.default_rng(1)
    y0 = full_state(interval10, rng.standard_normal((10, 2)))
    res = run_lr(case3_system, interval10, wide_mask10, y0, 1.0)
    for rec in res.records:
        if rec.phase == "active":
            assert rec.low_end <= 1e-7 * max(1.0, rec.norm_start)


def test_run_lr_rejects_uncontrollable(interval10, narrow_mask10):
    s = build_system(D=np.eye(2), Q=np.zeros((2, 2)), R=[[1.0], [1.0]])
    y0 = full_state(interval10, np.ones((10, 2)))
    with pytest.raises(ControllabilityError):
        run_lr(s, interval10, narrow_mask10, y0, 1.0)


def test_run_lr_validation(scalar_system, interval10, narrow_mask10):
    y0 = full_state(interval10, np.ones((10, 1)))
    with pytest.raises(ValidationError):
        run_lr(scalar_system, interval10, narrow_mask10, y0, 1.0,
               gamma_sim=25.0)
    late = full_state(interval10, np.ones((10, 1)), time=0.5)
    with pytest.raises(ValidationError):
        run_lr(scalar_system, interval10, narrow_mask10, late, 1.0)


def test_run_lr_rejects_modes_outside_model(case3_system, interval10,
                                            narrow_mask10):
    # -1 would wrap onto the top mode and 10 would overrun the model
    for k in (-1, interval10.num_modes):
        y0 = ModeState(mode_indices=np.array([k]), eigenvalues=np.array([1.0]),
                       coefficients=np.array([[1.0, 0.0]]))
        with pytest.raises(ValidationError, match=rf"\[{k}\]"):
            run_lr(case3_system, interval10, narrow_mask10, y0, 1.0)


def test_run_lr_narrow_mask_reaches_zero(case3_system, interval10,
                                         narrow_mask10):
    # the covering window's Gramian is ill-conditioned over the narrow
    # subdomain; by then |b| is so small that the residual it leaves is
    # below 1e-12 * |y0|, so the run completes
    rng = np.random.default_rng(0)
    y0 = full_state(interval10, rng.standard_normal((10, 2)))
    res = run_lr(case3_system, interval10, narrow_mask10, y0, 1.0)
    assert res.terminal_rel <= 1e-8
    # replay the schedule with scipy: free windows mode by mode, active
    # ones through the joint state/adjoint exponential
    a = y0.coefficients
    controls = iter(res.controls)
    mats = (interval10.eigenvalues[:, None, None] * case3_system.D
            + case3_system.Q)
    for w in res.schedule.windows:
        if w.phase == "active":
            a = controlled_window_oracle(case3_system, interval10,
                                         narrow_mask10, a, next(controls),
                                         interval10.gamma_max)
        else:
            a = np.stack([expm(-w.length * A) @ ak for A, ak in zip(mats, a)])
    assert next(controls, None) is None
    assert np.linalg.norm(a) <= 1e-8 * y0.norm()
    assert abs(np.linalg.norm(a) - res.terminal_norm) <= 1e-12 * y0.norm()


def test_run_lr_weak_window_reported(case3_system, interval10):
    # over [0.2 pi, 0.3 pi] the first window's Gramian loses directions
    # to the spectral cutoff and broadband data has real content there:
    # the residual stays near |b|, so the run must refuse and name the
    # window
    mask = [mask_from_boxes(interval10, 0, [[[0.2 * np.pi, 0.3 * np.pi]]])]
    rng = np.random.default_rng(0)
    y0 = full_state(interval10, rng.standard_normal((10, 2)))
    with pytest.raises(ObservabilityError, match="window 0"):
        run_lr(case3_system, interval10, mask, y0, 0.25)


def test_run_lr_adaptation_cap(scalar_system, interval10):
    # a subdomain of two quadrature nodes cannot observe ten modes, so
    # no amount of M-doubling makes the pairs contract
    tiny = [mask_from_boxes(interval10, 0, [[[0.2 * np.pi, 0.21 * np.pi]]])]
    y0 = full_state(interval10, np.ones((10, 1)))
    with pytest.raises((AdaptationError, ObservabilityError)):
        run_lr(scalar_system, interval10, tiny, y0, 1.0)


def test_cost_doubles_with_initial_state(case3_system, interval10,
                                         wide_mask10):
    rng = np.random.default_rng(2)
    coef = rng.standard_normal((10, 2))
    r1 = run_lr(case3_system, interval10, wide_mask10,
                full_state(interval10, coef), 1.0, adapt=False)
    r2 = run_lr(case3_system, interval10, wide_mask10,
                full_state(interval10, 2.0 * coef), 1.0, adapt=False)
    assert r2.total_cost == pytest.approx(2.0 * r1.total_cost, rel=1e-9)


def test_cost_sweep_law(case3_system, interval10, wide_mask10):
    y0 = full_state(interval10,
                    np.random.default_rng(3).standard_normal((10, 2)))
    res = cost_sweep(case3_system, interval10, wide_mask10, y0,
                     [1.0, 0.5, 0.25, 0.125, 0.0625])
    assert all(r.ok for r in res.rows)
    assert all(r.terminal_rel <= 1e-6 for r in res.rows)
    assert res.beta > 0.0
    assert res.r_squared >= 0.9
    # costs grow monotonically as the horizon shrinks
    costs = [r.cost for r in res.rows]
    assert all(a < b for a, b in zip(costs, costs[1:]))


def test_cost_sweep_flags_failures(interval10, narrow_mask10):
    s = build_system(D=np.eye(2), Q=np.zeros((2, 2)), R=[[1.0], [1.0]])
    y0 = full_state(interval10, np.ones((10, 2)))
    res = cost_sweep(s, interval10, narrow_mask10, y0,
                     [1.0, 0.5, 0.25, 0.125])
    assert all(not r.ok for r in res.rows)
    assert all("Controllability" in r.message for r in res.rows)
    assert np.isnan(res.beta)


def test_cost_sweep_validation(scalar_system, interval10, narrow_mask10):
    y0 = full_state(interval10, np.ones((10, 1)))
    with pytest.raises(ValidationError):
        cost_sweep(scalar_system, interval10, narrow_mask10, y0, [1.0, 0.5])
    with pytest.raises(ValidationError):
        cost_sweep(scalar_system, interval10, narrow_mask10, y0,
                   [1.0, 0.5, 0.25, 1.5])


@pytest.fixture(scope="module")
def case3_eighth():
    """case3 at T = 1/8 from phi_1 in equation 1 (the ``lr-run`` default
    datum): M doubles three times before the schedule contracts."""
    cfg = load_config(config_file("case3.json"))
    y0 = single_mode_state(cfg.model, 0, [1.0, 0.0])
    return cfg, y0, 0.125


def test_cached_run_replays_bitwise_through_uncached_calls(case3_eighth):
    cfg, y0, T = case3_eighth
    system, model, masks = cfg.system, cfg.model, list(cfg.masks)
    res = run_lr(system, model, masks, y0, T)
    assert res.doublings >= 2 and res.terminal_rel <= 1e-6
    # replay the accepted schedule window by window without the run's cache
    verdict = kalman_certificate(system, model)
    state = full_state(model, embed(y0, np.arange(model.num_modes), "y0"))
    controls = iter(res.controls)
    for w, rec in zip(res.schedule.windows, res.records, strict=True):
        if w.phase == "active":
            ctl = synthesize_control(system, model, masks,
                                     project_low(state, w.cutoff), w.cutoff,
                                     w.length, t0=w.start, verdict=verdict,
                                     run_scale=res.y0_norm)
            got = next(controls)
            assert np.array_equal(ctl.datum, got.datum)
            assert np.array_equal(ctl.coefficients, got.coefficients)
            assert ctl.norm_sq == got.norm_sq
            state = simulate_forward(system, model, masks, state, ctl,
                                     model.gamma_max)[-1]
        else:
            state = propagate(system, state, w.length)
        assert state.norm() == rec.norm_end
    assert next(controls, None) is None
    assert state.norm() == res.terminal_norm


def test_run_samples_no_control_until_one_is_read(case3_eighth, monkeypatch):
    cfg, y0, T = case3_eighth
    calls = count_calls(monkeypatch, hum, "_adjoint_flows")
    res = run_lr(cfg.system, cfg.model, list(cfg.masks), y0, T)
    assert res.doublings >= 2 and res.controls
    assert calls == []
    beta = res.controls[0].coefficients
    assert res.controls[0].coefficients is beta
    assert len(calls) == 1


def test_run_integrates_each_window_length_once(case3_eighth, monkeypatch):
    cfg, y0, T = case3_eighth
    calls, syntheses = [], []
    integrals, synthesize = hum._window_integrals, hum.synthesize_control

    def counted(system, rows, cols, tau):
        calls.append(tau)
        return integrals(system, rows, cols, tau)

    def counted_synthesis(*args, **kwargs):
        syntheses.append(args[5])
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(hum, "_window_integrals", counted)
    monkeypatch.setattr("nullctrl.lebeau_robbiano.synthesize_control",
                        counted_synthesis)
    for run in (1, 2):
        res = run_lr(cfg.system, cfg.model, list(cfg.masks), y0, T)
        # one table per window length, and none outlives its run
        assert sorted(calls) == sorted(set(syntheses))
        assert len(syntheses) > len(calls) > 0
        assert len(res.controls) < len(syntheses)
        calls.clear()
        syntheses.clear()
