import numpy as np
import pytest

from nullctrl import CoercivityError, ValidationError, build_system
from nullctrl.system import _einsum, _einsum_path


def test_shapes_and_constants():
    sys_ = build_system([[2.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [1.0, 0.0]],
                        [[1.0], [0.0]])
    assert sys_.n == 2 and sys_.m == 1
    assert sys_.coercivity_c == pytest.approx(2.0)
    assert sys_.q_norm == pytest.approx(1.0)


def test_column_vector_R_promoted():
    sys_ = build_system(np.eye(2), np.zeros((2, 2)), [1.0, 0.0])
    assert sys_.R.shape == (2, 1)


def test_coercivity_constant_is_min_symmetric_part_eigenvalue():
    # non-symmetric D: the skew part must not contribute
    D = np.array([[1.0, 3.0], [-3.0, 2.0]])
    sys_ = build_system(D, np.zeros((2, 2)), np.eye(2))
    expect = np.linalg.eigvalsh(0.5 * (D + D.T))[0]
    assert sys_.coercivity_c == pytest.approx(expect, rel=1e-14)


def test_rejects_non_coercive_D():
    with pytest.raises(CoercivityError):
        build_system([[1.0, 0.0], [0.0, -0.5]], np.zeros((2, 2)), np.eye(2))
    with pytest.raises(CoercivityError):
        # symmetric part singular
        build_system([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)), np.eye(2))


def test_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValidationError):
        build_system(np.eye(2), np.zeros((3, 3)), np.eye(2))
    with pytest.raises(ValidationError):
        build_system(np.eye(2), np.zeros((2, 2)), np.ones((3, 1)))
    with pytest.raises(ValidationError):
        build_system([[1.0, np.nan], [0.0, 1.0]], np.zeros((2, 2)), np.eye(2))


def test_matrices_are_frozen():
    sys_ = build_system(np.eye(2), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError):
        sys_.D[0, 0] = 5.0


def test_mode_matrix_and_gamma_validation():
    sys_ = build_system(np.eye(2), [[0.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]])
    np.testing.assert_allclose(sys_.mode_matrix(2.0),
                               [[2.0, 0.0], [1.0, 2.0]])
    with pytest.raises(ValidationError):
        sys_.mode_matrix(0.0)
    with pytest.raises(ValidationError):
        sys_.mode_matrix(-1.0)


def test_mode_matrices_stack_the_scalar_generator():
    sys_ = build_system([[1.0, 0.5], [0.0, 2.0]], [[0.0, 0.0], [1.0, 0.0]],
                        [[1.0], [0.0]])
    gammas = np.array([[1.0, 4.0], [9.0, 16.0]])
    mats = sys_.mode_matrices(gammas)
    assert mats.shape == (2, 2, 2, 2)
    for g, mat in zip(gammas.ravel(), mats.reshape(-1, 2, 2)):
        assert np.array_equal(mat, sys_.mode_matrix(float(g)))
    adj = sys_.mode_matrices(gammas, adjoint=True)
    assert np.array_equal(adj, np.swapaxes(mats, -1, -2))


def test_einsum_plans_once_and_keeps_the_bits():
    rng = np.random.default_rng(0)
    v, w = rng.standard_normal((7, 30, 2)), rng.random(30)
    _einsum_path.cache_clear()
    for _ in range(3):
        got = _einsum("kpc,lpc,p->kl", v, v, w)
        assert np.array_equal(got, np.einsum("kpc,lpc,p->kl", v, v, w,
                                             optimize=True))
    info = _einsum_path.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_decay_bound_formula():
    sys_ = build_system(np.diag([1.0, 2.0]), [[0.0, 1.0], [0.0, 0.0]],
                        np.eye(2))
    # coercivity 1, q_norm 1
    assert sys_.decay_bound(4.0, 0.5) == pytest.approx(np.exp((1 - 4) * 0.5))
