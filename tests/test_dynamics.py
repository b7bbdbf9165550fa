import ast
from pathlib import Path

import numpy as np
import pytest

import nullctrl
from nullctrl import (ModeState, PropagationStepError, ValidationError,
                      build_system, dirichlet_interval_model,
                      dissipation_check, full_state, mode_propagators,
                      project_high, project_low, propagate,
                      reconstruct, single_mode_state)
from nullctrl.dynamics import STEP_BOUND, expm_stack
from conftest import taylor_expm


def test_mode_matrix_values(case3_system):
    s = build_system(D=np.eye(2), Q=np.zeros((2, 2)), R=np.eye(2))
    np.testing.assert_allclose(s.mode_matrix(4.0), 4.0 * np.eye(2))
    np.testing.assert_allclose(case3_system.mode_matrix(2.0),
                               [[2.0, 0.0], [1.0, 2.0]])
    with pytest.raises(ValidationError):
        s.mode_matrix(0.0)


def test_package_imports_nothing_from_scipy():
    # expm_stack is the one flow kernel; scipy stays a test oracle only
    src = Path(nullctrl.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), \
                f"{path.name}:{node.lineno} imports {names}"


def test_propagators_match_taylor_series_oracle():
    rng = np.random.default_rng(7)
    systems = [
        build_system(D=np.eye(2), Q=[[0.0, 1.0], [0.0, 0.0]], R=np.eye(2)),
        build_system(D=np.diag([1.0, 3.0]) + np.array([[0, 0.4], [-0.4, 0]]),
                     Q=rng.standard_normal((2, 2)), R=np.eye(2)),
        build_system(D=np.diag([0.5, 1.0, 2.0]),
                     Q=rng.standard_normal((3, 3)), R=np.eye(3)),
    ]
    for s in systems:
        gammas = np.array([1.0, 4.0, 9.0])
        for dt in (0.1, 1.0):
            props = mode_propagators(s, gammas, dt)
            for g, P in zip(gammas, props):
                expect = taylor_expm(-dt * s.mode_matrix(g))
                assert np.abs(P - expect).max() <= 1e-12


def _stable_generator(rng, n, norm):
    """Random generator with positive definite symmetric part and |M|_2 = norm."""
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    skew = rng.standard_normal((n, n))
    M = (V @ np.diag(rng.uniform(0.5, 2.0, n)) @ V.T + skew - skew.T
         + 0.5 * rng.standard_normal((n, n)))
    return M * (norm / np.linalg.norm(M, 2))


def _assert_matches_taylor(stack):
    # scaling and squaring loses about eps * |A| in the 2-norm
    for A, E in zip(stack, expm_stack(stack)):
        tol = 100 * np.finfo(float).eps * max(1.0, np.linalg.norm(A, 2))
        assert np.linalg.norm(E - taylor_expm(A), 2) <= tol


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_expm_stack_matches_taylor_on_random_generators(n):
    rng = np.random.default_rng(n)
    _assert_matches_taylor(np.stack([-_stable_generator(rng, n, nu)
                                     for nu in (1e-3, 0.3, 2.0, 40.0)]))


def test_expm_stack_mixed_norms_up_to_step_bound():
    # each matrix gets its own scaling: the small ones must not be
    # squared as often as the largest one
    rng = np.random.default_rng(11)
    norms = np.logspace(-6, np.log10(0.9 * STEP_BOUND), 12)
    _assert_matches_taylor(np.stack([-_stable_generator(rng, 3, nu)
                                     for nu in norms]))


def test_expm_stack_jordan_zero_and_empty(interval10):
    # case1's generator 2*gamma*I plus a cascade is a Jordan block
    s = build_system(D=2.0 * np.eye(2), Q=[[0.0, 0.0], [1.0, 0.0]],
                     R=[[1.0], [0.0]])
    gens = np.stack([-0.5 * s.mode_matrix(g) for g in interval10.eigenvalues])
    _assert_matches_taylor(gens)
    J = np.array([[2.0, 1.0], [0.0, 2.0]])
    np.testing.assert_allclose(expm_stack(-J), np.exp(-2.0) * np.array(
        [[1.0, -1.0], [0.0, 1.0]]), rtol=1e-14)
    assert np.array_equal(expm_stack(np.zeros((3, 4, 4))),
                          np.broadcast_to(np.eye(4), (3, 4, 4)))
    assert expm_stack(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_propagators_accept_an_array_of_steps(case3_system, interval10):
    dt = np.array([[0.0, 0.1, 0.2], [0.3, 0.4, 0.5]])
    props = mode_propagators(case3_system, interval10.eigenvalues, dt,
                             adjoint=True)
    assert props.shape == (2, 3, 10, 2, 2)
    for idx in np.ndindex(dt.shape):
        np.testing.assert_array_equal(
            props[idx], mode_propagators(case3_system, interval10.eigenvalues,
                                         dt[idx], adjoint=True))
    assert mode_propagators(case3_system, interval10.eigenvalues[:0],
                            dt).shape == (2, 3, 0, 2, 2)


def test_propagate_defective_generator(interval10):
    # D = I with a nilpotent coupling gives a Jordan block at every mode:
    # exp(-t[[1,1],[0,1]]) = e^{-t} [[1,-t],[0,1]]
    s = build_system(D=np.eye(2), Q=[[0.0, 1.0], [0.0, 0.0]], R=np.eye(2))
    st = single_mode_state(interval10, 0, [0.0, 1.0])
    out = propagate(s, st, 1.0)
    np.testing.assert_allclose(out.coefficients[0],
                               np.exp(-1.0) * np.array([-1.0, 1.0]),
                               rtol=1e-12)
    oracle = taylor_expm(-1.0 * s.mode_matrix(1.0)) @ [0.0, 1.0]
    np.testing.assert_allclose(out.coefficients[0], oracle, rtol=1e-12)


def test_propagate_scalar_decay(scalar_system, interval10):
    st = single_mode_state(interval10, 0, [1.0])
    out = propagate(scalar_system, st, 1.0)
    assert out.coefficients[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-13)
    assert out.time == pytest.approx(1.0)


def test_propagate_zero_step_is_identity(case3_system, interval10):
    rng = np.random.default_rng(0)
    st = full_state(interval10, rng.standard_normal((10, 2)))
    out = propagate(case3_system, st, 0.0)
    np.testing.assert_allclose(out.coefficients, st.coefficients, atol=1e-15)


def test_semigroup_property(case3_system, interval10):
    rng = np.random.default_rng(1)
    st = full_state(interval10, rng.standard_normal((10, 2)))
    for t1, t2 in [(0.1, 0.2), (0.05, 0.5)]:
        two = propagate(case3_system, propagate(case3_system, st, t1), t2)
        one = propagate(case3_system, st, t1 + t2)
        err = np.abs(two.coefficients - one.coefficients).max()
        assert err <= 1e-10 * max(np.abs(one.coefficients).max(), 1.0)
        assert two.time == pytest.approx(one.time)


def test_adjoint_duality(case3_system, interval10):
    """Forward flow applied to y pairs with the adjoint flow applied to z."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = full_state(interval10, rng.standard_normal((10, 2)))
        z = full_state(interval10, rng.standard_normal((10, 2)))
        t = rng.uniform(0.05, 0.8)
        lhs = np.sum(propagate(case3_system, y, t).coefficients * z.coefficients)
        rhs = np.sum(y.coefficients
                     * propagate(case3_system, z, t, adjoint=True).coefficients)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_adjoint_propagator_is_transpose(case3_system):
    gammas = np.array([1.0, 4.0])
    fwd = mode_propagators(case3_system, gammas, 0.3)
    adj = mode_propagators(case3_system, gammas, 0.3, adjoint=True)
    np.testing.assert_allclose(adj, np.transpose(fwd, (0, 2, 1)), atol=1e-14)


def test_projections_split_at_cutoff(case3_system, interval10):
    rng = np.random.default_rng(3)
    st = full_state(interval10, rng.standard_normal((10, 2)))
    low = project_low(st, 5.0)
    high = project_high(st, 5.0)
    assert low.mode_indices.tolist() == [0, 1]          # eigenvalues 1 and 4
    assert high.mode_indices.tolist() == list(range(2, 10))
    back = np.concatenate([low.coefficients, high.coefficients])
    np.testing.assert_array_equal(back, st.coefficients)
    assert low.time == high.time == st.time


def test_projection_edge_cutoffs(interval10):
    rng = np.random.default_rng(4)
    st = full_state(interval10, rng.standard_normal((10, 2)))
    assert project_low(st, 0.5).num_modes == 0
    assert project_low(st, 1e6).num_modes == 10
    assert project_high(st, 1e6).num_modes == 0
    with pytest.raises(ValidationError):
        project_low(st, 0.0)


def test_parseval_norm_matches_quadrature(interval10):
    rng = np.random.default_rng(6)
    st = full_state(interval10, rng.standard_normal((10, 1)))
    field = reconstruct(interval10, st)          # quadrature nodes by default
    quad_sq = np.einsum("p,pic->", interval10.weights, field ** 2)
    assert np.sqrt(quad_sq) == pytest.approx(st.norm(), rel=1e-8)


def test_reconstruct_single_mode(interval10):
    st = single_mode_state(interval10, 2, [0.0, 1.5])
    pts = np.linspace(0.2, 3.0, 9)[:, None]
    field = reconstruct(interval10, st, pts)
    assert field.shape == (9, 2, 1)
    np.testing.assert_allclose(field[:, 0, 0], 0.0, atol=0)
    np.testing.assert_allclose(
        field[:, 1, 0], 1.5 * np.sqrt(2 / np.pi) * np.sin(3 * pts[:, 0]),
        rtol=1e-12)


def test_dissipation_single_mode_exact(scalar_system, interval10):
    report = dissipation_check(scalar_system, interval10, gamma=5.0, t=0.3,
                               trials=50, seed=1)
    # every high mode decays at least like the slowest one, e^{-9t}
    assert report.max_ratio <= np.exp(-9.0 * 0.3) * (1.0 + 1e-12)
    assert report.bound == pytest.approx(np.exp(-5.0 * 0.3))
    assert report.satisfied


def test_dissipation_componentwise_rates(interval10):
    # D = diag(1, 2), Q = 0: components decay at e^{-gamma t} and
    # e^{-2 gamma t}, so the bound with coercivity 1 holds strictly
    s = build_system(D=np.diag([1.0, 2.0]), Q=np.zeros((2, 2)), R=np.eye(2))
    report = dissipation_check(s, interval10, gamma=5.0, t=0.5, trials=100)
    assert report.satisfied
    assert report.max_ratio <= np.exp(-9.0 * 0.5) * (1.0 + 1e-12)


def test_dissipation_zero_time(case3_system, interval10):
    report = dissipation_check(case3_system, interval10, gamma=5.0, t=0.0)
    assert report.max_ratio == pytest.approx(1.0, rel=1e-12)
    assert report.bound == pytest.approx(1.0)
    assert report.satisfied


def test_dissipation_validation(case3_system, interval10):
    with pytest.raises(ValidationError):
        dissipation_check(case3_system, interval10, gamma=5.0, t=1.5)
    with pytest.raises(ValidationError):
        dissipation_check(case3_system, interval10, gamma=200.0, t=0.5)


def test_step_guard(scalar_system):
    with pytest.raises(PropagationStepError):
        mode_propagators(scalar_system, np.array([1e6]), 1.0)
    with pytest.raises(ValidationError):
        mode_propagators(scalar_system, np.array([1.0]), -0.1)


def test_state_validation(interval10):
    with pytest.raises(ValidationError):
        ModeState(mode_indices=np.array([0, 1]), eigenvalues=np.array([1.0]),
                  coefficients=np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        ModeState(mode_indices=np.array([1, 0]),
                  eigenvalues=np.array([4.0, 1.0]),
                  coefficients=np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        ModeState(mode_indices=np.array([0]), eigenvalues=np.array([1.0]),
                  coefficients=np.array([[np.nan]]))
    with pytest.raises(ValidationError):
        full_state(interval10, np.zeros((3, 2)))
    with pytest.raises(ValidationError):
        single_mode_state(interval10, 10, [1.0])


def test_state_norm_is_frobenius(interval10):
    st = full_state(interval10, np.full((10, 2), 0.5))
    assert st.norm() == pytest.approx(np.sqrt(10 * 2 * 0.25))
