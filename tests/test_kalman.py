import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from nullctrl import (InvalidKernelError, ValidationError, build_system,
                      dirichlet_interval_model, invisible_adjoint_solution,
                      kalman_certificate, torus_stokes_model)
from nullctrl import kalman
from nullctrl.kalman import (MATCH_RTOL, SNAP_RTOL, _cluster, _confirm,
                             _full_rank, _full_rank_stack, _kalman_stack,
                             _nearest, _ranks, _real_roots, bad_set, build_Kp,
                             kernel_vector, minor_polynomials, rank_at)


@pytest.fixture(scope="module")
def diag_pair():
    # two heat equations with distinct diffusivities, one control each
    return build_system(D=np.diag([1.0, 2.0]), Q=np.zeros((2, 2)), R=np.eye(2))


@pytest.fixture(scope="module")
def rank_one_pair():
    # equal diffusivities driven through a single shared channel:
    # the Kalman matrix is rank one at every gamma
    return build_system(D=np.eye(2), Q=np.zeros((2, 2)), R=[[1.0], [1.0]])


@pytest.fixture(scope="module")
def bad_root_system():
    # cascade whose single Kalman minor is gamma - 1: the rank drops
    # exactly at gamma = 1
    return build_system(D=np.diag([1.0, 2.0]), Q=[[0.0, 1.0], [0.0, 0.0]],
                        R=[[1.0], [1.0]])


def test_build_Kp_diagonal_pair(diag_pair):
    K = build_Kp(diag_pair, 3.0)
    np.testing.assert_allclose(K, [[1, 0, 3, 0], [0, 1, 0, 6]])


def test_build_Kp_cascade(case3_system):
    K = build_Kp(case3_system, 2.0)
    np.testing.assert_allclose(K, [[1, 2], [0, 1]])


def test_build_Kp_single_equation(scalar_system):
    K = build_Kp(scalar_system, 7.0)
    np.testing.assert_allclose(K, [[1.0]])


def _loop_Kp(system, gamma):
    """K(gamma) built block by block, the unbatched reference."""
    A = system.mode_matrix(gamma)
    blocks = [np.array(system.R)]
    for _ in range(system.n - 1):
        blocks.append(A @ blocks[-1])
    return np.concatenate(blocks, axis=1)


def _loop_rank(system, gamma):
    """rank_at's rule on one column-normalized K(gamma), one SVD."""
    K = _loop_Kp(system, gamma)
    norms = np.linalg.norm(K, axis=0)
    s = np.linalg.svd(K / np.where(norms == 0.0, 1.0, norms), compute_uv=False)
    return 0 if s[0] == 0.0 else int(np.sum(s > 1e-10 * s[0]))


def _stack_systems(workloads, model):
    """Random, crossing and structural systems for n = 2..5."""
    rng = np.random.default_rng(3)
    return [build_system(*workloads.certify_system(rng, n, m, kind,
                                                   model.eigenvalues)[:3])
            for n in range(2, 6) for m in (1, 2)
            for kind in ("random", "crossing", "structural")]


def test_kalman_stack_and_ranks_match_one_matrix_at_a_time(workloads):
    model = dirichlet_interval_model(40, np.pi)
    gammas = model.eigenvalues
    zero_input = build_system(np.eye(3), np.ones((3, 3)), np.zeros((3, 2)))
    for s in _stack_systems(workloads, model) + [zero_input]:
        K = _kalman_stack(s, gammas)
        assert np.array_equal(K, np.stack([build_Kp(s, g) for g in gammas]))
        assert np.array_equal(K, np.stack([_loop_Kp(s, g) for g in gammas]))
        ranks = _ranks(s, gammas)
        assert ranks.tolist() == [rank_at(s, g) for g in gammas]
        assert ranks.tolist() == [_loop_rank(s, g) for g in gammas]
        assert _kalman_stack(s, []).shape == (0, s.n, s.n * s.m)
        assert _ranks(s, []).shape == (0,)
    assert not _ranks(zero_input, gammas).any()
    with pytest.raises(ValidationError):
        _kalman_stack(zero_input, [1.0, 0.0])


def _svd_full_rank(K):
    """rank_at's rule on a raw stack: rank == n by one SVD per matrix."""
    norms = np.linalg.norm(K, axis=-2, keepdims=True)
    s = np.linalg.svd(K / np.where(norms == 0.0, 1.0, norms), compute_uv=False)
    return (s > 1e-10 * s[:, :1]).sum(axis=-1) == K.shape[-2]


def test_full_rank_screen_agrees_with_svd_on_certify_stacks(workloads,
                                                            monkeypatch):
    """Every stack the certificate ranks in the benchmark's certify ops
    (the samples, the spectrum, and the candidates) gets the SVD rule's
    answer, while the SVD sees only the matrices the screen leaves: near
    drops, and all of a structurally uncontrollable system's samples."""
    stacks, svd_matrices = [], [0]
    real_screen, real_svd = kalman._full_rank_stack, np.linalg.svd

    def recorded(K):
        stacks.append(K)
        return real_screen(K)

    def counted(a, *args, **kw):
        svd_matrices[0] += int(np.prod(np.shape(a)[:-2]))
        return real_svd(a, *args, **kw)

    monkeypatch.setattr(kalman, "_full_rank_stack", recorded)
    monkeypatch.setattr(np.linalg, "svd", counted)
    for seed in (1, 2, 3, 4):
        for op in workloads.build_ops("certify", seed):
            op.run()
    monkeypatch.undo()
    screened = sum(len(K) for K in stacks)
    assert screened > 20000
    assert svd_matrices[0] < 0.2 * screened
    for K in stacks:
        assert np.array_equal(_full_rank_stack(K), _svd_full_rank(K))


def _designed_kalman(rng, n, copies, k):
    """An (n, 2 (n-1) copies) matrix of unit columns with s_n / s_1 = 10^-k.

    Columns ``cos(a) e_i +- sin(a) e_n`` (i < n) make ``K K^T`` diagonal
    with ``s_n / s_1 = sqrt(n - 1) tan(a)``; a random rotation of the
    rows keeps the singular values and the column norms.
    """
    t = 10.0 ** -k / np.sqrt(n - 1)
    cols = np.zeros((n - 1, 2, copies, n))
    cols[..., -1] = np.array([1.0, -1.0])[:, None] * t
    cols[np.arange(n - 1), ..., np.arange(n - 1)] = 1.0
    K = cols.reshape(-1, n).T / np.sqrt(1.0 + t * t)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.sign(np.diag(r))) @ K


def test_full_rank_screen_agrees_with_svd_on_designed_conditioning(
        scalar_system):
    """Kalman-like matrices with s_n / s_1 = 10^-k, k = 1..13, with
    scaled and zero columns, on typical and very wide shapes (where
    ``det H`` alone would say nothing), an all-zero K and n = 1."""
    rng = np.random.default_rng(5)
    for n, copies in ((2, 1), (3, 2), (5, 1), (8, 125)):
        for _ in range(3):
            K = np.stack([_designed_kalman(rng, n, copies, k)
                          for k in range(1, 14)])
            expected = _svd_full_rank(K)
            assert expected[:9].all() and not expected[-3:].any()
            assert np.array_equal(_full_rank_stack(K), expected)
            scaled = K * 10.0 ** rng.uniform(-3.0, 3.0, K.shape[-1])
            scaled[..., ::3] = 0.0
            assert np.array_equal(_full_rank_stack(scaled),
                                  _svd_full_rank(scaled))
    zero = np.zeros((4, 3, 6))
    assert not _full_rank_stack(zero).any() and not _svd_full_rank(zero).any()
    one_row = np.array([[[0.0, 2.0, -1e-300]], [[0.0, 0.0, 0.0]]])
    assert _full_rank_stack(one_row).tolist() == [True, False]
    gammas = dirichlet_interval_model(40, np.pi).eigenvalues
    assert _full_rank(scalar_system, gammas).all()
    assert np.array_equal(_full_rank(scalar_system, gammas),
                          _ranks(scalar_system, gammas) == 1)
    assert _full_rank(scalar_system, []).shape == (0,)


def _cluster_loop(roots):
    """The one-root-at-a-time clustering, the reference for _cluster."""
    out = []
    for r in np.sort(roots):
        if out and abs(r - out[-1]) <= MATCH_RTOL * (1.0 + abs(out[-1])):
            out[-1] = float(0.5 * (out[-1] + r))
        else:
            out.append(float(r))
    return out


def _confirm_loop(candidates, drops, eigenvalues, eigen_drops):
    """The one-candidate-at-a-time confirm pass, the reference for _confirm."""
    confirmed = []
    for g, drop in zip(candidates, drops):
        if len(eigenvalues):
            p = np.argmin(np.abs(eigenvalues - g))
            e = float(eigenvalues[p])
            gap = abs(g - e)
            matched = drop and gap <= MATCH_RTOL * (1.0 + e)
            if gap <= SNAP_RTOL * (1.0 + e) and not matched:
                if e in confirmed:
                    continue
                if eigen_drops[p]:
                    confirmed.append(e)
                    continue
        if drop:
            confirmed.append(g)
    return confirmed


def _typed(values):
    return [(type(v), float(v).hex()) for v in values]


def test_cluster_matches_one_root_at_a_time():
    rng = np.random.default_rng(8)
    delta = MATCH_RTOL * (1.0 + 9.0)
    runs = [
        np.empty(0), np.array([4.0]), np.array([3.0, 3.0, 3.0]),
        # chains where the running mean decides: each root is close to
        # the previous one but not always to the cluster value
        9.0 + delta * np.array([0.0, 0.9, 1.8, 2.7, 3.6, 4.5]),
        9.0 + delta * np.array([0.0, 0.6, 1.2, 1.3, 2.2, 2.21, 3.5]),
        np.array([-2.0, -2.0 + 1e-9, -1e-9, 0.0, 1e-9, 5.0]),
    ]
    for _ in range(200):
        centers = rng.uniform(0.1, 60.0, rng.integers(1, 8))
        sizes = rng.integers(1, 6, len(centers))
        runs.append(np.concatenate([
            c + np.cumsum(rng.uniform(0.2, 1.6, s)) * MATCH_RTOL * (1.0 + c)
            for c, s in zip(centers, sizes)]))
    for roots in runs:
        assert _typed(_cluster(rng.permutation(roots))) == _typed(
            _cluster_loop(roots))


def test_nearest_matches_argmin():
    rng = np.random.default_rng(2)
    torus = torus_stokes_model(48).eigenvalues
    for values in (torus, dirichlet_interval_model(40, np.pi).eigenvalues,
                   np.array([7.0]), np.array([1.0, 2.0])):
        points = np.concatenate([
            values, 0.5 * (values[1:] + values[:-1]),
            rng.uniform(0.0, 1.2 * values[-1] + 1.0, 300),
            values[rng.integers(0, len(values), 50)] * (1.0 + 1e-4
                                                        * rng.standard_normal(50)),
            [values[0] - 1.0, values[-1] + 1.0, 1e20, np.inf]])
        expected = [np.argmin(np.abs(values - x)) for x in points]
        assert _nearest(values, points).tolist() == expected
    # exactly midway between two eigenvalues: the lower one, as argmin
    assert _nearest(np.array([8.0, 8.0 + 2.0 ** -10]),
                    np.array([8.0 + 2.0 ** -11])).tolist() == [0]


def test_confirm_matches_one_candidate_at_a_time():
    rng = np.random.default_rng(4)
    torus = torus_stokes_model(48).eigenvalues
    interval = dirichlet_interval_model(40, np.pi).eigenvalues
    close = [8.0, 8.0 + 2.0 ** -10]
    cases = [
        # midway between two close eigenvalues, only the upper one drops
        ([8.0 + 2.0 ** -11], [False], np.array(close), [False, True]),
        ([8.0 + 2.0 ** -11], [True], np.array(close), [False, True]),
        # a dropping exact match first, then a snap to that same value
        ([4.0, 4.0 + 1e-6, 4.0 + 2e-6], [True, False, True], interval[:5],
         [False, False, False, True, False]),
        # a snap confirms the eigenvalue, a later snap to it is skipped
        ([1.0 + 1e-5, 1.0 + 3e-5], [False, True], interval[:3],
         [True, False, False]),
    ]
    for _ in range(300):
        values = torus if rng.random() < 0.5 else interval
        picks = values[rng.integers(0, len(values), rng.integers(1, 30))]
        offsets = rng.choice([0.0, 1e-9, 1e-6, 5e-4, 2e-3, 0.3], len(picks))
        signs = rng.choice([-1.0, 1.0], len(picks))
        candidates = _cluster(picks * (1.0 + signs * offsets))
        cases.append((candidates, rng.random(len(candidates)) < 0.4, values,
                      rng.random(len(values)) < 0.3))
    for candidates, drops, values, eigen_drops in cases:
        drops, eigen_drops = np.array(drops), np.array(eigen_drops)
        assert _typed(_confirm(candidates, drops, values, eigen_drops)) == \
            _typed(_confirm_loop(candidates, drops, values, eigen_drops))
        # without a spectrum (bad_set) every dropping candidate is kept
        no_spectrum = _confirm(candidates, drops, np.empty(0),
                               np.empty(0, dtype=bool))
        assert _typed(no_spectrum) == _typed(_confirm_loop(
            candidates, drops, np.empty(0), np.empty(0, dtype=bool)))
        assert _typed(no_spectrum) == _typed(
            [g for g, d in zip(candidates, drops) if d])


def _row_real_roots(c):
    """chebtrim + chebroots + the real filter on one row, the reference."""
    scale = np.abs(c).max()
    if scale == 0.0:
        return np.empty(0)
    c = C.chebtrim(c, tol=1e-12 * scale)
    if len(c) < 2:
        return np.empty(0)
    r = C.chebroots(c)
    return r[np.abs(r.imag) <= 1e-6 * (1.0 + np.abs(r.real))].real


def test_real_roots_match_row_reference(workloads):
    def padded(c, width=7):
        return np.pad(np.real(c), (0, width - len(c)))

    rows = np.array([
        np.zeros(7),                                          # no roots
        [3.0, 1e-13, -1e-14, 0.0, 0.0, 0.0, 0.0],             # trims to a constant
        padded([0.25, 2.0]),                                  # length 2
        [0.5, -1.0, 0.0, 0.0, 0.0, 0.0, 1e-13],               # length 2 after trim
        padded(C.chebfromroots([-0.3, 0.1, 0.5])),            # cubic, real roots
        padded(C.chebfromroots([0.2, 0.3 + 0.4j, 0.3 - 0.4j])),  # cubic, complex pair
        padded(C.chebfromroots([0.9, 2.0, -1.5, 0.4 + 1j, 0.4 - 1j])),
        np.random.default_rng(0).standard_normal(7),
    ])
    model = dirichlet_interval_model(40, np.pi)
    blocks = [rows] + [minor_polynomials(s, 1.0)[1]
                       for s in _stack_systems(workloads, model)]
    for coeffs in blocks:
        for c in coeffs:
            assert np.array_equal(_real_roots(c), _row_real_roots(c))


def _fitted_minors(monkeypatch, system, gamma_lo):
    """The Chebyshev coefficients whose roots bad_set takes, one array per
    root call."""
    seen, real = [], kalman._real_roots

    def recorded(coeffs):
        seen.append(coeffs)
        return real(coeffs)

    monkeypatch.setattr(kalman, "_real_roots", recorded)
    bad_set(system, gamma_lo)
    monkeypatch.undo()
    return seen


def test_single_input_candidates_come_from_the_one_minor(workloads,
                                                         monkeypatch):
    """With one control there is one minor, and the certificate fits it
    to the bit as minor_polynomials does."""
    model = dirichlet_interval_model(40, np.pi)
    lo = float(model.eigenvalues[0])
    fitted = 0
    for s in _stack_systems(workloads, model):
        if s.m != 1:
            continue
        seen = _fitted_minors(monkeypatch, s, lo)
        expected = minor_polynomials(s, lo)[1]
        assert expected.shape[0] == 1 and len(seen) <= 1
        for coeffs in seen:
            assert np.array_equal(coeffs, expected[0])
        fitted += len(seen)
    assert fitted >= 4


def test_candidate_minor_is_the_largest_at_a_full_rank_sample(workloads,
                                                              monkeypatch):
    """The roots come from one minor, the largest of the column-normalized
    minors at the middle full-rank sample, which is therefore nonzero."""
    from itertools import combinations

    model = dirichlet_interval_model(40, np.pi)
    lo = float(model.eigenvalues[0])
    for s in _stack_systems(workloads, model):
        seen = _fitted_minors(monkeypatch, s, lo)
        samples, coeffs = minor_polynomials(s, lo)
        full = [rank_at(s, g) == s.n for g in samples]
        assert len(seen) == any(full)
        if not seen:
            continue
        g = samples[np.flatnonzero(full)[sum(full) // 2]]
        K = build_Kp(s, g)
        K_hat = K / np.linalg.norm(K, axis=0)
        dets = [abs(np.linalg.det(K_hat[:, sel]))
                for sel in combinations(range(s.n * s.m), s.n)]
        best = int(np.argmax(dets))
        assert dets[best] > 0.0
        np.testing.assert_allclose(seen[0], coeffs[best], rtol=1e-12,
                                   atol=1e-12 * np.abs(coeffs[best]).max())


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_certificate_finds_crossings_planted_off_the_spectrum(workloads, n, m):
    """A rank drop between the eigenvalues, or beyond them, is found by
    the fitted roots alone, within 1e-6 relative."""
    model = dirichlet_interval_model(workloads.CERTIFY_MODES)
    for plants in ([2.5, 6.25, 12.25], [50.5, 200.25, 612.5]):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            s = build_system(*workloads.certify_system(rng, n, m, "crossing",
                                                       plants)[:3])
            dropping = [g for g in plants if rank_at(s, g) < n]
            assert dropping, f"seed {seed}: no drop planted at {plants}"
            v = kalman_certificate(s, model)
            for g in dropping:
                assert any(abs(b - g) <= 1e-6 * g for b in v.bad_gammas), \
                    f"seed {seed}: drop at {g} not in {v.bad_gammas}"


def test_rank_at(diag_pair, rank_one_pair, bad_root_system):
    assert rank_at(diag_pair, 3.0) == 2
    assert rank_at(rank_one_pair, 5.0) == 1
    assert rank_at(bad_root_system, 1.0) == 1
    assert rank_at(bad_root_system, 2.0) == 2


def test_rank_at_zero_input():
    s = build_system(D=np.eye(2), Q=np.zeros((2, 2)), R=np.zeros((2, 1)))
    assert rank_at(s, 1.0) == 0


def test_kernel_vector_sign_and_residual(rank_one_pair):
    z = kernel_vector(rank_one_pair, 1.0)
    np.testing.assert_allclose(z, [1, -1] / np.sqrt(2), atol=1e-12)
    assert np.linalg.norm(build_Kp(rank_one_pair, 1.0).T @ z) <= 1e-12


def test_minor_polynomial_degree_bound(diag_pair, bad_root_system):
    for s in (diag_pair, bad_root_system):
        deg = s.n * (s.n - 1)
        samples, coeffs = minor_polynomials(s, 1.0)
        assert samples.shape == (deg + 1,)
        assert coeffs.shape[1] == deg + 1


def test_minor_polynomials_reproduce_held_out_points(diag_pair):
    """Fitted minors must match direct evaluation at fresh gamma points."""
    from itertools import combinations

    rng = np.random.default_rng(42)
    for s in (diag_pair,
              build_system(D=np.diag([1.0, 2.0, 3.0]),
                           Q=[[0.0, 5.0, 0.0], [0.0, 0.0, -3.0],
                              [0.0, 0.0, 0.0]],
                           R=np.column_stack([np.ones(3), [0, 1, 0]]))):
        deg = s.n * (s.n - 1)
        lo = 1.0
        hi = lo + deg + 1.0
        _, coeffs = minor_polynomials(s, lo)
        cols = list(combinations(range(s.n * s.m), s.n))
        held_out = rng.uniform(lo, hi, size=10)
        for g in held_out:
            K = build_Kp(s, g)
            u = 2.0 * (g - lo) / (hi - lo) - 1.0
            for j, sel in enumerate(cols):
                direct = np.linalg.det(K[:, sel])
                fitted = C.chebval(u, coeffs[j])
                assert abs(fitted - direct) <= 1e-9 * (1.0 + abs(direct))


def test_minor_polynomials_reject_bad_gamma_lo(diag_pair):
    with pytest.raises(ValidationError):
        minor_polynomials(diag_pair, 0.0)


def test_bad_set_single_root(bad_root_system):
    bad, degenerate = bad_set(bad_root_system, 1.0)
    assert not degenerate
    assert len(bad) == 1
    assert bad[0] == pytest.approx(1.0, abs=1e-10)


def test_bad_set_roots_far_from_sampling_window():
    # the fitted minors are exact polynomials, so roots well outside the
    # sampled interval are still located
    for a in (2.5, 7.0, 123.75):
        s = build_system(D=np.diag([1.0, 2.0]), Q=[[0.0, a], [0.0, 0.0]],
                         R=[[1.0], [1.0]])
        bad, degenerate = bad_set(s, 1.0)
        assert not degenerate
        assert len(bad) == 1
        assert bad[0] == pytest.approx(a, rel=1e-10)


def test_bad_set_three_equation_cascade_against_polyfit_oracle():
    s = build_system(D=np.diag([1.0, 2.0, 3.0]),
                     Q=[[0.0, 5.0, 0.0], [0.0, 0.0, -3.0], [0.0, 0.0, 0.0]],
                     R=[[1.0], [1.0], [1.0]])
    # independent oracle: the lone minor is a cubic in gamma, recovered
    # here by least squares on a dense grid and solved with np.roots
    gs = np.linspace(0.2, 30.0, 41)
    dets = [np.linalg.det(build_Kp(s, g)) for g in gs]
    roots = np.roots(np.polyfit(gs, dets, 3))
    expected = sorted(r.real for r in roots
                      if abs(r.imag) < 1e-8 and r.real > 0)
    bad, degenerate = bad_set(s, 1.0)
    assert not degenerate
    np.testing.assert_allclose(bad, expected, rtol=1e-9)


def test_bad_set_degenerate(rank_one_pair):
    bad, degenerate = bad_set(rank_one_pair, 1.0)
    assert degenerate and bad == []


def test_bad_set_empty_for_controllable(diag_pair):
    assert bad_set(diag_pair, 1.0) == ([], False)


def test_certificate_controllable(diag_pair, interval10, case3_system):
    for s in (diag_pair, case3_system,
              build_system(D=np.eye(2), Q=[[0.0, 1.0], [0.0, 0.0]],
                           R=[[0.0], [1.0]])):
        v = kalman_certificate(s, interval10)
        assert v.controllable
        assert not v.degenerate
        assert v.p0 is None and v.z0 is None
        assert v.bad_gammas == ()


def test_certificate_fails_when_root_hits_spectrum(bad_root_system, interval10):
    v = kalman_certificate(bad_root_system, interval10)
    assert not v.controllable
    assert not v.degenerate
    assert v.p0 == 0
    assert v.gamma_p0 == pytest.approx(1.0)
    assert v.bad_gammas[0] == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(build_Kp(bad_root_system, 1.0).T @ v.z0) <= 1e-10


def test_certificate_controllable_when_root_misses_spectrum(bad_root_system):
    # same system, but on a unit interval the spectrum starts at pi^2
    # and never meets the bad root at 1
    model = dirichlet_interval_model(10, 1.0)
    v = kalman_certificate(bad_root_system, model)
    assert v.controllable
    assert v.bad_gammas[0] == pytest.approx(1.0, abs=1e-8)


def test_certificate_reports_merged_roots_as_floats(interval10):
    # two equal channels: several minors share the root 2.5, and their
    # fitted copies merge into one cluster value
    s = build_system(D=np.diag([1.0, 2.0]), Q=[[0.0, 2.5], [0.0, 0.0]],
                     R=[[1.0, 1.0], [1.0, 1.0]])
    for model in (interval10, dirichlet_interval_model(10, 1.0)):
        v = kalman_certificate(s, model)
        assert v.bad_gammas[0] == pytest.approx(2.5, rel=1e-10)
        assert all(type(g) is float for g in v.bad_gammas)
    assert all(type(g) is float for g in bad_set(s, 1.0)[0])


@pytest.mark.parametrize("n, m", [(3, 2), (4, 2), (5, 2), (5, 1)],
                         ids=["3", "4", "5", "5-1"])
def test_certificate_finds_planted_crossings(workloads, n, m):
    """Rank drops planted at a low eigenvalue agree with a rank scan.

    The degree-n(n-1) minor fits can place these roots too far from the
    eigenvalue for the rank check or the 1e-8 match, or, for the single
    degree-20 minor at (5, 1), beyond any snap window; the certificate
    must still see the drop there.
    """
    model = dirichlet_interval_model(40, np.pi)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        D, Q, R, _ = workloads.certify_system(rng, n, m, "crossing",
                                              model.eigenvalues)
        s = build_system(D, Q, R)
        v = kalman_certificate(s, model)
        ranks = np.array([rank_at(s, float(g)) for g in model.eigenvalues])
        deficient = np.flatnonzero(ranks < n)
        assert deficient.size > 0
        assert not v.controllable, f"seed {seed}: drop at {deficient} missed"
        assert v.p0 == deficient[0]
        assert any(abs(b - v.gamma_p0) <= v.checked_tolerance * (1.0 + v.gamma_p0)
                   for b in v.bad_gammas)


def test_certificate_makes_few_batched_linalg_calls(workloads, monkeypatch):
    """Ranks are taken on stacks and roots from one minor: a few SVD calls
    (the samples, the spectrum, the candidate roots, a failing verdict's
    kernel vector) and at most one eigvals call.  The
    determinant screen clears a random system's Kalman matrices, so
    hardly any of them reaches the SVD."""
    model = dirichlet_interval_model(workloads.CERTIFY_MODES)
    rng = np.random.default_rng(0)
    s = build_system(*workloads.certify_system(rng, 4, 3, "random",
                                               model.eigenvalues)[:3])
    counts = {"svd": 0, "eigvals": 0}
    svd_matrices = [0]
    for name in counts:
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kw):
            counts[_name] += 1
            if _name == "svd":
                svd_matrices[0] += int(np.prod(np.shape(args[0])[:-2]))
            return _real(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    kalman_certificate(s, model)
    assert counts["svd"] <= 4
    assert counts["eigvals"] <= 1
    assert svd_matrices[0] <= 10


def test_certificate_degenerate(rank_one_pair, interval10):
    v = kalman_certificate(rank_one_pair, interval10)
    assert not v.controllable
    assert v.degenerate
    assert v.p0 == 0
    assert v.gamma_p0 == pytest.approx(1.0)
    np.testing.assert_allclose(np.abs(v.z0), [1, -1] / np.sqrt(2) * [1, -1],
                               atol=1e-12)


def test_certificate_agrees_with_brute_force(diag_pair, rank_one_pair,
                                             bad_root_system, case3_system):
    """Verdicts must match a direct rank scan over 500 eigenvalues."""
    model = dirichlet_interval_model(500, np.pi)
    for s in (diag_pair, rank_one_pair, bad_root_system, case3_system):
        v = kalman_certificate(s, model)
        ranks = [rank_at(s, float(g)) for g in model.eigenvalues]
        full = [r == s.n for r in ranks]
        assert v.controllable == all(full)
        if not v.controllable:
            assert v.p0 == full.index(False)


def test_certificate_fields_match_rank_scan_on_planted_systems(workloads):
    """Every verdict field agrees with rank_at on each model eigenvalue
    and fit sample: planted crossings and structural failures, n 2..5."""
    model = dirichlet_interval_model(workloads.CERTIFY_MODES)
    lo = float(model.eigenvalues[0])
    for n in range(2, 6):
        for m in (1, 2, 3):
            for kind in ("crossing", "structural"):
                for seed in range(3):
                    rng = np.random.default_rng(seed)
                    s = build_system(*workloads.certify_system(
                        rng, n, m, kind, model.eigenvalues)[:3])
                    v = kalman_certificate(s, model)
                    ranks = np.array([rank_at(s, float(g))
                                      for g in model.eigenvalues])
                    deficient = np.flatnonzero(ranks < n)
                    samples = minor_polynomials(s, lo)[0]
                    degenerate = all(rank_at(s, g) < n for g in samples)
                    assert not v.controllable and deficient.size
                    assert v.degenerate == degenerate
                    p0 = 0 if degenerate else int(deficient[0])
                    assert v.p0 == p0
                    assert v.gamma_p0 == model.eigenvalues[p0]
                    assert np.array_equal(v.z0, kernel_vector(s, v.gamma_p0))
                    if not degenerate:
                        assert all(any(abs(b - g) <= MATCH_RTOL * (1.0 + g)
                                       for b in v.bad_gammas)
                                   for g in model.eigenvalues[deficient])


def test_invisible_solution_unseen_but_nonzero(rank_one_pair, interval10):
    v = kalman_certificate(rank_one_pair, interval10)
    sol = invisible_adjoint_solution(rank_one_pair, interval10, v.p0, v.z0,
                                     horizon=1.0)
    times = np.linspace(0.0, 1.0, 100)
    obs = sol.observation(times)
    assert np.abs(obs).max() <= 1e-10
    assert np.linalg.norm(sol.coefficient(0.0)) > 1e-3
    np.testing.assert_allclose(sol.coefficient(1.0), v.z0, atol=1e-14)


def test_invisible_solution_coefficient_closed_form(rank_one_pair, interval10):
    # equal unit diffusivities at gamma = 1: z(t) = e^{-(1-t)} z0
    z0 = np.array([1.0, -1.0]) / np.sqrt(2)
    sol = invisible_adjoint_solution(rank_one_pair, interval10, 0, z0, 1.0)
    for t in (0.0, 0.3, 0.9):
        np.testing.assert_allclose(sol.coefficient(t),
                                   np.exp(-(1.0 - t)) * z0, rtol=1e-12)


def test_invisible_solution_field_shape(rank_one_pair, interval10):
    z0 = np.array([1.0, -1.0]) / np.sqrt(2)
    sol = invisible_adjoint_solution(rank_one_pair, interval10, 0, z0, 1.0)
    pts = np.linspace(0.1, 3.0, 7)[:, None]
    field = sol.field(0.5, pts)
    assert field.shape == (7, 2, 1)
    phi = interval10.eigenfunctions(pts)[0, :, 0]
    np.testing.assert_allclose(field[:, 0, 0],
                               sol.coefficient(0.5)[0] * phi, rtol=1e-12)


def test_invisible_solution_rejections(rank_one_pair, diag_pair, interval10):
    good = np.array([1.0, -1.0]) / np.sqrt(2)
    with pytest.raises(InvalidKernelError):
        invisible_adjoint_solution(rank_one_pair, interval10, 0,
                                   [1.0, -1.0], 1.0)  # not unit length
    with pytest.raises(InvalidKernelError):
        invisible_adjoint_solution(diag_pair, interval10, 0, good, 1.0)
    with pytest.raises(ValidationError):
        invisible_adjoint_solution(rank_one_pair, interval10, 99, good, 1.0)
    with pytest.raises(ValidationError):
        invisible_adjoint_solution(rank_one_pair, interval10, 0, good, 0.0)
    sol = invisible_adjoint_solution(rank_one_pair, interval10, 0, good, 1.0)
    with pytest.raises(ValidationError):
        sol.coefficient(1.5)
