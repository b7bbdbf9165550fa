import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm, solve_sylvester

from nullctrl import (ControllabilityError, ModeState, ObservabilityError,
                      PropagationStepError, ValidationError,
                      assemble_gramian, build_system, control_from_datum,
                      control_inner_product, dirichlet_interval_model,
                      full_domain_mask, full_state, load_config,
                      mask_from_boxes, mass_matrix, mode_propagators,
                      project_high, project_low, propagate, simulate_forward,
                      synthesize_control, torus_stokes_model)
from nullctrl import hum
from nullctrl.dynamics import STEP_BOUND, expm_stack
from nullctrl.hum import (_WindowCache, _gramian_matrix, _outer_integrals,
                          _window_integrals)
from conftest import (config_file, controlled_window_oracle, count_calls,
                      dense_time_quadrature)


@pytest.fixture(scope="module")
def one_mode():
    return dirichlet_interval_model(1, np.pi)


@pytest.fixture(scope="module")
def one_mode_full(one_mode):
    return [full_domain_mask(one_mode, 0)]


def test_scalar_gramian_closed_form(scalar_system, one_mode, one_mode_full):
    g = assemble_gramian(scalar_system, one_mode, one_mode_full, 1.0, 1.0)
    expect = (1.0 - np.exp(-2.0)) / 2.0
    assert g.matrix.shape == (1, 1)
    assert abs(g.matrix[0, 0] - expect) <= 1e-12
    assert abs(g.min_eigenvalue - expect) <= 1e-12


def test_zero_observation_gives_zero_gramian(one_mode, one_mode_full):
    s = build_system([[1.0]], [[0.0]], [[0.0]])
    g = assemble_gramian(s, one_mode, one_mode_full, 1.0, 1.0)
    assert np.abs(g.matrix).max() == 0.0
    assert g.min_eigenvalue == 0.0


def test_full_domain_gramian_block_diagonal(case3_system, interval10):
    """With mass = I the Gramian decouples; each block has a 1D oracle."""
    masks = [full_domain_mask(interval10, 0)]
    tau = 0.7
    g = assemble_gramian(case3_system, interval10, masks, 30.0, tau)
    K = len(g.eigenvalues)
    G = g.matrix.reshape(K, 2, K, 2)
    for k in range(K):
        for l in range(K):
            if k != l:
                assert np.abs(G[:, :, l, :][k]).max() <= 1e-10
                continue
            A = case3_system.mode_matrix(float(g.eigenvalues[k]))

            def block(t):
                s = expm(-A * (tau - t)) @ case3_system.R[:, 0]
                return np.outer(s, s)

            oracle = dense_time_quadrature(block, 0.0, tau)
            assert np.abs(G[k, :, l, :] - oracle).max() <= 1e-10


def test_gramian_matches_dense_quadrature(interval10, narrow_mask10):
    # distinct diffusivities make the blocks X[k, l] non-symmetric, so
    # the Gramian's mirrored lower half is checked as well
    s = build_system(np.diag([1.0, 2.0]), [[0.0, 0.0], [1.0, 0.0]],
                     [[1.0], [0.0]])
    tau = 0.3
    g = assemble_gramian(s, interval10, narrow_mask10, 30.0, tau)
    K = len(g.eigenvalues)
    mats = [gam * s.D + s.Q for gam in g.eigenvalues]

    def integrand(t):
        obs = np.stack([expm(-A * t) @ s.R[:, 0] for A in mats])   # (K, n)
        return np.einsum("kl,ka,lb->kalb", g.masses[0], obs, obs)

    oracle = dense_time_quadrature(integrand, 0.0, tau).reshape(2 * K, 2 * K)
    assert np.abs(g.matrix - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_gramian_symmetric_psd(case3_system, interval10, narrow_mask10):
    g = assemble_gramian(case3_system, interval10, narrow_mask10, 100.0, 0.5)
    assert np.abs(g.matrix - g.matrix.T).max() <= 1e-12
    eigs = np.linalg.eigvalsh(g.matrix)
    assert eigs.min() >= -1e-10 * np.trace(g.matrix)
    assert g.min_eigenvalue == pytest.approx(eigs[0], abs=1e-15)


def test_min_eigenvalue_monotone_in_subdomain(scalar_system, interval10):
    inner = [mask_from_boxes(interval10, 0, [[[0.2 * np.pi, 0.5 * np.pi]]])]
    outer = [mask_from_boxes(interval10, 0, [[[0.2 * np.pi, 0.8 * np.pi]]])]
    assert set(np.flatnonzero(inner[0].member)) <= set(np.flatnonzero(outer[0].member))
    lam_in = assemble_gramian(scalar_system, interval10, inner, 25.0, 0.5).min_eigenvalue
    lam_out = assemble_gramian(scalar_system, interval10, outer, 25.0, 0.5).min_eigenvalue
    assert lam_in <= lam_out + 1e-12


def test_gramian_validation(scalar_system, interval10, full_mask10):
    with pytest.raises(ValidationError):
        assemble_gramian(scalar_system, interval10, full_mask10, 100.0, 0.0)
    with pytest.raises(ValidationError):
        assemble_gramian(scalar_system, interval10, full_mask10, 0.5, 1.0)
    with pytest.raises(ValidationError):
        assemble_gramian(scalar_system, interval10, [], 100.0, 1.0)
    with pytest.raises(ValidationError):
        assemble_gramian(scalar_system, interval10, full_mask10, 100.0, 1.0,
                         quad_nodes=1)


@pytest.mark.parametrize("name", ["case1.json", "case2.json", "case2_fail.json",
                                  "case3.json", "torus_stokes.json"])
def test_window_integrals_match_sylvester(name):
    # X solves A_j X + X A_k^T = M - e^{-tau A_j} M e^{-tau A_k^T},
    # M = R_i R_i^T; every pair, the top mode included
    cfg = load_config(config_file(name))
    s, gammas = cfg.system, cfg.model.eigenvalues
    for tau in (0.25, 1 / 32, 1 / 256, 1 / 1024):
        X = _window_integrals(s, gammas[:, None], gammas[None], tau)
        assert X.shape == (len(gammas), len(gammas), s.m, s.n, s.n)
        flows = [expm(-tau * (g * s.D + s.Q)) for g in gammas]
        for j, gj in enumerate(gammas):
            for k, gk in enumerate(gammas):
                for i in range(s.m):
                    M = np.outer(s.R[:, i], s.R[:, i])
                    ref = solve_sylvester(gj * s.D + s.Q, (gk * s.D + s.Q).T,
                                          M - flows[j] @ M @ flows[k].T)
                    assert (np.abs(X[j, k, i] - ref).max()
                            <= 1e-13 * np.abs(ref).max()), (tau, j, k, i)


def test_scalar_control_closed_form(scalar_system, one_mode, one_mode_full):
    y0 = full_state(one_mode, [[1.0]])
    c = synthesize_control(scalar_system, one_mode, one_mode_full, y0, 1.0, 1.0)
    G = (1.0 - np.exp(-2.0)) / 2.0
    assert c.datum[0, 0] == pytest.approx(-np.exp(-1.0) / G, rel=1e-12)
    assert c.norm_sq == pytest.approx(np.exp(-2.0) / G, rel=1e-12)
    states = simulate_forward(scalar_system, one_mode, one_mode_full, y0, c, 1.0)
    assert abs(states[-1].coefficients[0, 0]) <= 1e-10


def test_two_rate_decoupled_control_matches_scalar_formula(one_mode):
    # independent diffusivities with a dedicated channel each reduce
    # exactly to two scalar problems at rates gamma and 2 gamma
    s = build_system(D=np.diag([1.0, 2.0]), Q=np.zeros((2, 2)), R=np.eye(2))
    masks = [full_domain_mask(one_mode, 0), full_domain_mask(one_mode, 1)]
    a0 = np.array([[0.8, -1.3]])
    y0 = full_state(one_mode, a0)
    c = synthesize_control(s, one_mode, masks, y0, 1.0, 1.0)
    expect = 0.0
    for d, a in zip((1.0, 2.0), a0[0]):
        Gd = (1.0 - np.exp(-2.0 * d)) / (2.0 * d)
        expect += np.exp(-2.0 * d) * a ** 2 / Gd
    assert c.norm_sq == pytest.approx(expect, rel=1e-12)


def test_zero_initial_state_gives_zero_control(case3_system, interval10,
                                               narrow_mask10):
    y0 = project_low(full_state(interval10, np.zeros((10, 2))), 25.0)
    c = synthesize_control(case3_system, interval10, narrow_mask10, y0,
                           25.0, 0.5)
    assert c.norm == 0.0
    assert np.abs(c.coefficients).max() == 0.0


def test_control_norm_recomputable(case3_system, interval10, narrow_mask10):
    rng = np.random.default_rng(8)
    y0 = project_low(full_state(interval10, rng.standard_normal((10, 2))), 25.0)
    c = synthesize_control(case3_system, interval10, narrow_mask10, y0,
                           25.0, 0.5)
    ip = control_inner_product(interval10, narrow_mask10, c, c)
    assert ip == pytest.approx(c.norm_sq, rel=1e-10)


def test_control_from_datum_reproduces_synthesized_control(
        case3_system, interval10, narrow_mask10):
    # both are built by one routine, so on the Gramian's grid they agree
    # bit for bit
    rng = np.random.default_rng(10)
    y0 = project_low(full_state(interval10, rng.standard_normal((10, 2))), 25.0)
    g = assemble_gramian(case3_system, interval10, narrow_mask10, 25.0, 0.5)
    c = synthesize_control(case3_system, interval10, narrow_mask10, y0,
                           25.0, 0.5, gramian=g)
    d = control_from_datum(case3_system, interval10, narrow_mask10, c.datum,
                           25.0, 0.5, quad_nodes=len(g.nodes))
    assert np.array_equal(d.coefficients, c.coefficients)
    assert d.norm_sq == c.norm_sq
    assert np.array_equal(d.nodes, c.nodes)
    # the Gramian keeps the masks it observed through and their masses,
    # which synthesis reuses instead of rebuilding them
    assert len(g.masks) == len(g.masses) == 1
    assert g.masks[0] is narrow_mask10[0]
    assert np.array_equal(g.masses[0], mass_matrix(interval10, narrow_mask10[0],
                                                   g.mode_indices))


def test_oneshot_op_samples_its_control_only_when_read(workloads, monkeypatch):
    calls = count_calls(monkeypatch, hum, "_adjoint_flows")
    op = workloads.build_ops("oneshot", 1, "tiny")[0]
    gram, ctl = op.run()
    assert op.check((gram, ctl)) is None
    assert calls == []
    assert ctl.coefficients.shape == (len(gram.nodes), 1,
                                      len(gram.mode_indices))
    assert len(calls) == 1


def test_first_read_samples_the_control_on_the_gramian_grid(
        case3_system, interval10, narrow_mask10, monkeypatch):
    rng = np.random.default_rng(11)
    y0 = project_low(full_state(interval10, rng.standard_normal((10, 2))), 25.0)
    g = assemble_gramian(case3_system, interval10, narrow_mask10, 25.0, 0.5)
    c = synthesize_control(case3_system, interval10, narrow_mask10, y0,
                           25.0, 0.5, t0=0.25, gramian=g)
    d = control_from_datum(case3_system, interval10, narrow_mask10, c.datum,
                           25.0, 0.5, t0=0.25, quad_nodes=len(g.nodes))
    calls = count_calls(monkeypatch, hum, "_adjoint_flows")
    beta, nodes = c.coefficients, c.nodes
    assert np.array_equal(beta, d.coefficients)
    assert np.array_equal(nodes, d.nodes)
    # the expression the control was sampled with before it became lazy
    flows = mode_propagators(case3_system, g.eigenvalues,
                             np.maximum(0.5 - g.nodes, 0.0), adjoint=True)
    assert np.array_equal(beta, hum._beta(case3_system, flows, c.datum))
    assert np.array_equal(nodes, 0.25 + g.nodes)
    assert c.coefficients is beta and c.nodes is nodes
    assert len(calls) == 2                # one per control, none on a reread
    assert not beta.flags.writeable and not nodes.flags.writeable


def test_too_long_window_raises_in_synthesis_not_on_read(case3_system,
                                                         interval10,
                                                         narrow_mask10):
    # the forward propagators' step check bounds the adjoint flows' one,
    # so no step error waits for the first read of the samples
    gamma = 100.0                              # the top mode of interval10
    top = np.linalg.norm(case3_system.mode_matrices(np.array([gamma]))[0], 2)
    edge = STEP_BOUND / top
    zero = project_low(full_state(interval10, np.zeros((10, 2))), gamma)
    with pytest.raises(PropagationStepError):
        synthesize_control(case3_system, interval10, narrow_mask10, zero,
                           gamma, 1.01 * edge)
    # a Gramian relabelled for a longer window leaves the forward check
    # as the only guard between synthesis and the lazy read
    g = assemble_gramian(case3_system, interval10, narrow_mask10, gamma,
                         0.4 * edge)
    for tau, raises in ((1.01 * edge, True), (0.99 * edge, False)):
        long = dataclasses.replace(g, tau=tau,
                                   nodes=hum.gauss_rule(0.0, tau, 32)[0])
        if raises:
            with pytest.raises(PropagationStepError,
                               match="subdivide the step"):
                synthesize_control(case3_system, interval10, narrow_mask10,
                                   zero, gamma, tau, gramian=long)
        else:
            c = synthesize_control(case3_system, interval10, narrow_mask10,
                                   zero, gamma, tau, gramian=long)
            assert np.abs(c.coefficients).max() == 0.0


def test_gramian_on_other_masks_rejected(case3_system, interval10,
                                         narrow_mask10):
    # a Gramian observed through the whole domain yields a control that
    # misses zero on the narrow mask (terminal_rel 0.29 on this y0,
    # against 2e-13 with the matching Gramian), so synthesis refuses it
    rng = np.random.default_rng(11)
    y0 = project_low(full_state(interval10, rng.standard_normal((10, 2))), 25.0)
    wide = assemble_gramian(case3_system, interval10,
                            [full_domain_mask(interval10, 0)], 25.0, 0.5)
    with pytest.raises(ValidationError, match="different masks"):
        synthesize_control(case3_system, interval10, narrow_mask10, y0,
                           25.0, 0.5, gramian=wide)
    g = assemble_gramian(case3_system, interval10, narrow_mask10, 25.0, 0.5)
    relabelled = [mask_from_boxes(interval10, 1, [[[0.2 * np.pi, 0.5 * np.pi]]])]
    assert np.array_equal(relabelled[0].member, narrow_mask10[0].member)
    with pytest.raises(ValidationError, match="different masks"):
        synthesize_control(case3_system, interval10, relabelled, y0,
                           25.0, 0.5, gramian=g)
    with pytest.raises(ValidationError, match="different masks"):
        synthesize_control(case3_system, interval10, narrow_mask10 * 2, y0,
                           25.0, 0.5, gramian=g)
    c = synthesize_control(case3_system, interval10, narrow_mask10, y0,
                           25.0, 0.5, gramian=g)
    states = simulate_forward(case3_system, interval10, narrow_mask10, y0, c,
                              25.0)
    assert states[-1].norm() <= 1e-8 * y0.norm()


def test_beta_at_reproduces_grid_samples(case3_system, interval10,
                                         narrow_mask10):
    rng = np.random.default_rng(9)
    y0 = project_low(full_state(interval10, rng.standard_normal((10, 2))), 25.0)
    c = synthesize_control(case3_system, interval10, narrow_mask10, y0,
                           25.0, 0.5)
    np.testing.assert_allclose(c.beta_at(c.nodes), c.coefficients, atol=1e-13)
    with pytest.raises(ValidationError):
        c.beta_at(c.t1 + 0.1)


def test_uncontrollable_system_rejected(interval10, narrow_mask10):
    s = build_system(D=np.eye(2), Q=np.zeros((2, 2)), R=[[1.0], [1.0]])
    y0 = project_low(full_state(interval10, np.ones((10, 2))), 25.0)
    with pytest.raises(ControllabilityError):
        synthesize_control(s, interval10, narrow_mask10, y0, 25.0, 0.5)


def test_uncontrollable_gramian_singular(interval10, narrow_mask10):
    s = build_system(D=np.eye(2), Q=np.zeros((2, 2)), R=[[1.0], [1.0]])
    lam = assemble_gramian(s, interval10, narrow_mask10, 4.0, 0.5).min_eigenvalue
    assert lam <= 1e-10


def test_observability_failure_reported(scalar_system, interval20):
    mask = [mask_from_boxes(interval20, 0, [[[0.2 * np.pi, 0.205 * np.pi]]])]
    rng = np.random.default_rng(1)
    y0 = full_state(interval20, rng.standard_normal((20, 1)))
    with pytest.raises(ObservabilityError):
        synthesize_control(scalar_system, interval20, mask, y0, 400.0, 0.05)


def test_synthesize_validation(case3_system, interval10, narrow_mask10):
    rng = np.random.default_rng(2)
    y0 = full_state(interval10, rng.standard_normal((10, 2)))
    with pytest.raises(ValidationError):
        synthesize_control(case3_system, interval10, narrow_mask10, y0,
                           25.0, 0.5)  # carries modes above the cutoff
    low = project_low(y0, 25.0)
    g = assemble_gramian(case3_system, interval10, narrow_mask10, 25.0, 0.5)
    with pytest.raises(ValidationError):
        synthesize_control(case3_system, interval10, narrow_mask10, low,
                           16.0, 0.5, gramian=g)


def test_zero_control_matches_free_flow(case3_system, interval10,
                                        narrow_mask10):
    rng = np.random.default_rng(3)
    y0 = full_state(interval10, rng.standard_normal((10, 2)))
    K = int(np.sum(interval10.eigenvalues <= 25.0))
    zero = control_from_datum(case3_system, interval10, narrow_mask10,
                              np.zeros((K, 2)), 25.0, 0.5)
    states = simulate_forward(case3_system, interval10, narrow_mask10, y0,
                              zero, 100.0)
    free = propagate(case3_system, y0, 0.5)
    err = np.abs(states[-1].coefficients - free.coefficients).max()
    assert err <= 1e-12 * max(1.0, np.abs(free.coefficients).max())
    assert states[-1].time == pytest.approx(0.5)


def test_window_cache_reads_are_the_uncached_results(case3_system, interval10,
                                                     narrow_mask10):
    rng = np.random.default_rng(8)
    y0 = full_state(interval10, rng.standard_normal((10, 2)))
    cache = _WindowCache(case3_system, interval10, narrow_mask10, 100.0)
    for gamma, tau in ((25.0, 0.5), (50.0, 0.5), (25.0, 0.25)):
        low = project_low(y0, gamma)
        g = assemble_gramian(case3_system, interval10, narrow_mask10, gamma, tau)
        g_cached = assemble_gramian(case3_system, interval10, narrow_mask10,
                                    gamma, tau, cache=cache)
        assert np.array_equal(g.matrix, g_cached.matrix)
        c = synthesize_control(case3_system, interval10, narrow_mask10, low,
                               gamma, tau)
        c_cached = synthesize_control(case3_system, interval10, narrow_mask10,
                                      low, gamma, tau, cache=cache)
        assert np.array_equal(c.coefficients, c_cached.coefficients)
        assert c.norm_sq == c_cached.norm_sq
        end = simulate_forward(case3_system, interval10, narrow_mask10, y0,
                               c, 100.0)[-1]
        end_cached = simulate_forward(case3_system, interval10, narrow_mask10,
                                      y0, c, 100.0, cache=cache)[-1]
        assert np.array_equal(end.coefficients, end_cached.coefficients)
        free = propagate(case3_system, y0, tau, cache=cache)
        assert np.array_equal(free.coefficients,
                              propagate(case3_system, y0, tau).coefficients)


def test_window_cache_rejects_another_runs_data(case3_system, scalar_system,
                                                interval10, narrow_mask10,
                                                wide_mask10):
    cache = _WindowCache(case3_system, interval10, narrow_mask10, 100.0)
    y0 = full_state(interval10, np.ones((10, 1)))
    with pytest.raises(ValidationError):
        assemble_gramian(case3_system, interval10, wide_mask10, 25.0, 0.5,
                         cache=cache)
    with pytest.raises(ValidationError):
        propagate(scalar_system, y0, 0.5, cache=cache)
    c = synthesize_control(case3_system, interval10, narrow_mask10,
                           project_low(full_state(interval10, np.ones((10, 2))),
                                       25.0), 25.0, 0.5)
    with pytest.raises(ValidationError):   # simulated modes differ
        simulate_forward(case3_system, interval10, narrow_mask10,
                         full_state(interval10, np.ones((10, 2))), c, 50.0,
                         cache=cache)


def test_window_cache_rejects_modes_outside_the_simulated_set(
        case3_system, interval10, narrow_mask10):
    cache = _WindowCache(case3_system, interval10, narrow_mask10, 50.0)
    inside = np.arange(7)                  # eigenvalues 1, 4, ..., 49
    assert cache.propagators(0.5, inside).shape == (7, 2, 2)
    for outside in ([7], [10], [-1], [0, 9]):
        with pytest.raises(ValidationError, match="outside the 7-mode set"):
            cache.propagators(0.5, np.array(outside))
        with pytest.raises(ValidationError):
            cache.integrals(0.5, inside[:, None], np.array(outside)[None])


def _torus(num_modes):
    cfg = load_config(config_file("torus_stokes.json"))
    model = torus_stokes_model(num_modes)
    return cfg.system, model, [mask_from_boxes(model, 0, list(cfg.masks[0].boxes))]


def test_repeated_eigenvalues_get_the_per_mode_flows_and_integrals():
    # torus modes share eigenvalues (20 modes, 4 values); every flow and
    # window integral must be the one a mode-by-mode evaluation gives
    system, model, masks = _torus(20)
    g = model.eigenvalues
    assert len(np.unique(g)) == 4
    for adjoint in (False, True):
        for dt in (0.0, 0.125, 0.5):
            ref = np.stack([expm_stack(-dt * system.mode_matrices(g[k:k + 1],
                                                                  adjoint))[0]
                            for k in range(len(g))])
            assert np.array_equal(mode_propagators(system, g, dt, adjoint), ref)
    tau = 0.125
    gram = assemble_gramian(system, model, masks, model.gamma_max, tau)
    rows, cols = np.triu_indices(len(g))
    upper = np.stack([_window_integrals(system, g[k:k + 1], g[l:l + 1], tau)[0]
                      for k, l in zip(rows, cols)])
    assert np.array_equal(gram.matrix, _gramian_matrix(system, g, gram.masses,
                                                       tau, upper))
    outer = _outer_integrals(system, g, g[:7], tau)
    assert np.array_equal(outer, _window_integrals(system, g[:, None],
                                                   g[None, :7], tau))


def test_gramian_integrates_each_distinct_eigenvalue_pair_once(monkeypatch):
    # 48 torus modes carry 9 distinct eigenvalues: 45 pairs, not 1,176
    system, model, masks = _torus(48)
    assert len(np.unique(model.eigenvalues)) == 9
    blocks = []

    def counting(A):
        blocks.append(int(np.prod(np.shape(A)[:-2])))
        return expm_stack(A)

    monkeypatch.setattr(hum, "expm_stack", counting)
    assemble_gramian(system, model, masks, model.gamma_max, 0.125)
    assert blocks == [45]


def test_full_domain_high_modes_evolve_freely(case3_system, interval10):
    masks = [full_domain_mask(interval10, 0)]
    rng = np.random.default_rng(4)
    y0 = full_state(interval10, rng.standard_normal((10, 2)))
    c = synthesize_control(case3_system, interval10, masks,
                           project_low(y0, 25.0), 25.0, 0.5)
    states = simulate_forward(case3_system, interval10, masks, y0, c, 100.0)
    high_end = project_high(states[-1], 25.0)
    free_high = propagate(case3_system, project_high(y0, 25.0), 0.5)
    np.testing.assert_allclose(high_end.coefficients, free_high.coefficients,
                               atol=1e-12)


def test_terminal_exactness_randomized(case3_system, interval10,
                                       narrow_mask10):
    rng = np.random.default_rng(0)
    g = assemble_gramian(case3_system, interval10, narrow_mask10, 25.0, 0.5)
    for _ in range(10):
        y0 = project_low(
            full_state(interval10, rng.standard_normal((10, 2))), 25.0)
        c = synthesize_control(case3_system, interval10, narrow_mask10, y0,
                               25.0, 0.5, gramian=g)
        states = simulate_forward(case3_system, interval10, narrow_mask10,
                                  y0, c, 25.0)
        assert states[-1].norm() <= 1e-8 * y0.norm()


def test_simulate_forward_validation(case3_system, interval10, narrow_mask10):
    rng = np.random.default_rng(5)
    y0 = project_low(full_state(interval10, rng.standard_normal((10, 2))), 25.0)
    c = synthesize_control(case3_system, interval10, narrow_mask10, y0,
                           25.0, 0.5)
    with pytest.raises(ValidationError):
        simulate_forward(case3_system, interval10, narrow_mask10, y0, c, 9.0)
    shifted = full_state(interval10, np.zeros((10, 2)), time=0.3)
    with pytest.raises(ValidationError):
        simulate_forward(case3_system, interval10, narrow_mask10, shifted,
                         c, 25.0)


@pytest.mark.parametrize("name", ["case1.json", "case3.json"])
def test_simulate_forward_matches_joint_expm(name):
    # case1's generators are Jordan-type (D = 2I, nilpotent Q)
    cfg = load_config(config_file(name))
    model, masks = cfg.model, list(cfg.masks)
    gamma, tau = 30.0, 0.25
    K = int(np.sum(model.eigenvalues <= gamma))
    rng = np.random.default_rng(8)
    control = control_from_datum(cfg.system, model, masks,
                                 rng.standard_normal((K, cfg.system.n)),
                                 gamma, tau, t0=0.5, quad_nodes=16)
    y0 = full_state(model, rng.standard_normal((model.num_modes, cfg.system.n)),
                    time=0.5)
    states = simulate_forward(cfg.system, model, masks, y0, control,
                              model.gamma_max)
    ref = controlled_window_oracle(cfg.system, model, masks, y0.coefficients,
                                   control, model.gamma_max)
    assert [st.time for st in states] == [0.5, 0.75]
    assert np.array_equal(states[0].coefficients, y0.coefficients)
    scale = max(np.linalg.norm(y0.coefficients), np.linalg.norm(ref))
    assert np.linalg.norm(states[-1].coefficients - ref) <= 1e-12 * scale


def test_simulate_forward_step_bound(interval10):
    # a stiff diffusion makes the window's step exceed STEP_BOUND at the
    # top mode, both for the flow and for the Gramian's integrals
    stiff = build_system([[1e3]], [[0.0]], [[1.0]])
    masks = [full_domain_mask(interval10, 0)]
    c = control_from_datum(stiff, interval10, masks, [[1.0]], 1.0, 1.0,
                           quad_nodes=2)
    y0 = full_state(interval10, np.zeros((10, 1)))
    with pytest.raises(PropagationStepError):
        simulate_forward(stiff, interval10, masks, y0, c, 100.0)
    with pytest.raises(PropagationStepError):
        assemble_gramian(stiff, interval10, masks, 100.0, 1.0)


def test_step_checks_take_two_norms_only_near_the_bound(interval10,
                                                         monkeypatch):
    """Every step check passes a step whose Frobenius bound is within
    STEP_BOUND without a 2-norm, and decides any other step on the
    2-norms, with the same message: here |A|_F = 2 |A|_2 = 2 gamma."""
    system = build_system(np.eye(4), np.zeros((4, 4)), np.ones((4, 1)))
    masks = [full_domain_mask(interval10, 0)]
    two_norm_calls = [0]
    real_norm = np.linalg.norm

    def counted(x, ord=None, *args, **kw):
        two_norm_calls[0] += ord == 2
        return real_norm(x, ord, *args, **kw)

    monkeypatch.setattr(np.linalg, "norm", counted)
    flow_error = "dt*|gamma D + Q| = {:.3g} exceeds 1e+04; subdivide the step"
    integral_error = "tau*(|A_j| + |A_k|) = {:.3g} exceeds 1e+04; shorten the window"
    gamma, top = 100.0, [9]                    # the top mode of interval10
    for share, exact in ((0.4, False), (0.6, True)):  # of STEP_BOUND, by 2-norm
        dt = share * STEP_BOUND / gamma
        for check in (
                lambda: mode_propagators(system, np.array([1.0, gamma]), dt),
                lambda: hum._checked_integrals(system, [gamma], [1.0, gamma],
                                               dt / 2.0),
                lambda: _WindowCache(system, interval10, masks,
                                     gamma).propagators(dt, top),
                lambda: _WindowCache(system, interval10, masks,
                                     gamma).integrals(dt / 2.0, top, top)):
            two_norm_calls[0] = 0
            check()
            assert (two_norm_calls[0] > 0) == exact
    dt = 1.5 * STEP_BOUND / gamma
    cache = _WindowCache(system, interval10, masks, gamma)
    for check, message in (
            (lambda: mode_propagators(system, np.array([gamma]), dt), flow_error),
            (lambda: cache.propagators(dt, top), flow_error),
            (lambda: hum._checked_integrals(system, [gamma], [gamma], dt / 2.0),
             integral_error),
            (lambda: cache.integrals(dt / 2.0, top, top), integral_error)):
        with pytest.raises(PropagationStepError) as err:
            check()
        assert str(err.value) == message.format(1.5 * STEP_BOUND)
    cache.propagators(dt, [0])                 # a mild mode still passes


def _adjoint_initial_value(system, gammas, tau, datum):
    props = mode_propagators(system, gammas, tau, adjoint=True)
    return np.einsum("kab,kb->ka", props, datum)


def test_duality_identity(case3_system, interval10, narrow_mask10):
    """Terminal pairing minus initial pairing equals the work integral."""
    rng = np.random.default_rng(0)
    gamma, tau = 25.0, 0.5
    K = int(np.sum(interval10.eigenvalues <= gamma))
    gammas = interval10.eigenvalues[:K]
    for _ in range(20):
        datum_v = rng.standard_normal((K, 2))
        datum_z = rng.standard_normal((K, 2))
        v = control_from_datum(case3_system, interval10, narrow_mask10,
                               datum_v, gamma, tau)
        z = control_from_datum(case3_system, interval10, narrow_mask10,
                               datum_z, gamma, tau)
        y0 = project_low(
            full_state(interval10, rng.standard_normal((10, 2))), gamma)
        states = simulate_forward(case3_system, interval10, narrow_mask10,
                                  y0, v, gamma)
        y_tau = states[-1].coefficients
        lhs = float(np.sum(y_tau * datum_z))
        phi0 = _adjoint_initial_value(case3_system, gammas, tau, datum_z)
        a0 = np.zeros((K, 2))
        pos = np.searchsorted(np.arange(K), y0.mode_indices)
        a0[pos] = y0.coefficients
        lhs -= float(np.sum(a0 * phi0))
        rhs = control_inner_product(interval10, narrow_mask10, v, z)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_minimal_norm_first_order(case3_system, interval10, narrow_mask10):
    """The HUM control is orthogonal to every feasible perturbation."""
    rng = np.random.default_rng(0)
    gamma, tau = 25.0, 0.5
    K = int(np.sum(interval10.eigenvalues <= gamma))
    gammas = interval10.eigenvalues[:K]
    g = assemble_gramian(case3_system, interval10, narrow_mask10, gamma, tau)
    props = mode_propagators(case3_system, gammas, tau)
    zero = project_low(full_state(interval10, np.zeros((10, 2))), gamma)
    y0 = project_low(full_state(interval10,
                                rng.standard_normal((10, 2))), gamma)
    v_hat = synthesize_control(case3_system, interval10, narrow_mask10, y0,
                               gamma, tau, gramian=g)
    for _ in range(20):
        w = control_from_datum(case3_system, interval10, narrow_mask10,
                               rng.standard_normal((K, 2)), gamma, tau)
        # terminal effect of w from rest, pulled back to a fictitious
        # initial state whose HUM control cancels it exactly
        e = simulate_forward(case3_system, interval10, narrow_mask10, zero,
                             w, gamma)[-1].coefficients
        a0 = np.stack([np.linalg.solve(props[k], e[k]) for k in range(K)])
        fictitious = ModeState(mode_indices=np.arange(K), eigenvalues=gammas,
                               coefficients=a0, time=0.0)
        v_corr = synthesize_control(case3_system, interval10, narrow_mask10,
                                    fictitious, gamma, tau, gramian=g)
        ip = (control_inner_product(interval10, narrow_mask10, v_hat, w)
              + control_inner_product(interval10, narrow_mask10, v_hat, v_corr))
        delta_sq = (w.norm_sq + v_corr.norm_sq
                    + 2 * control_inner_product(interval10, narrow_mask10,
                                                w, v_corr))
        scale = v_hat.norm * np.sqrt(max(delta_sq, 0.0))
        assert abs(ip) <= 1e-8 * max(scale, 1.0)
