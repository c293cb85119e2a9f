import re

import numpy as np
import pytest

from transferhash.baselines import cca_itq_fit
from transferhash.errors import NumericalError
from transferhash.model import CenteringInfo, HashModel, LinearProjection
from transferhash.preprocess import cca_fit, pca_fit, project


def centered(x):
    x = np.asarray(x, dtype=np.float64)
    return x - x.mean(axis=0)


def test_pca_degenerate_line():
    t = np.linspace(-2, 2, 30)
    x = centered(np.stack([t, t], axis=1))
    proj = pca_fit(x, 1.0)
    assert proj.d_out == 1
    direction = proj.matrix[:, 0]
    assert np.allclose(direction, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_pca_energy_arithmetic():
    # column variances exactly 9 and 1, zero mean
    x = np.array([[3.0, 1.0], [-3.0, -1.0], [3.0, -1.0], [-3.0, 1.0]])
    proj = pca_fit(x, 0.6)
    assert proj.d_out == 1
    assert np.allclose(proj.matrix[:, 0], [1.0, 0.0], atol=1e-12)
    assert pca_fit(x, 0.95).d_out == 2  # 9/10 < 0.95 forces both


def test_pca_full_energy_preserves_geometry():
    rng = np.random.default_rng(0)
    x = centered(rng.standard_normal((100, 6)))
    proj = pca_fit(x, 1.0)
    assert proj.d_out == 6
    z = project(x, proj)
    assert np.abs(z @ z.T - x @ x.T).max() < 1e-8


def test_pca_orthonormal_columns():
    rng = np.random.default_rng(1)
    x = centered(rng.standard_normal((80, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1]))
    proj = pca_fit(x, 0.9)
    gram = proj.matrix.T @ proj.matrix
    assert np.abs(gram - np.eye(proj.d_out)).max() < 1e-8


def test_pca_projected_variance_matches_eigenvalues():
    rng = np.random.default_rng(2)
    x = centered(rng.standard_normal((200, 6)) * np.array([4, 3, 2, 1, 0.5, 0.2]))
    cov = x.T @ x / x.shape[0]
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    proj = pca_fit(x, 0.8)
    z = project(x, proj)
    projected_var = np.trace(z.T @ z / z.shape[0])
    retained = eigvals[:proj.d_out].sum()
    assert abs(projected_var - retained) <= 1e-6 * retained


def test_pca_rank_zero_errors():
    with pytest.raises(NumericalError):
        pca_fit(np.zeros((10, 3)), 0.5)


def test_cca_identical_views():
    rng = np.random.default_rng(3)
    x = centered(rng.standard_normal((120, 4)))
    _, _, corr = cca_fit(x, x.copy(), 1)
    assert abs(corr[0] - 1.0) < 1e-3


def test_cca_independent_views_low_correlation():
    rng = np.random.default_rng(4)
    x_a = centered(rng.standard_normal((500, 6)))
    x_b = centered(rng.standard_normal((500, 5)))
    _, _, corr = cca_fit(x_a, x_b, 1)
    assert corr[0] < 0.3
    # permutation-null oracle: paired-but-shuffled data shows the same scale
    perm = rng.permutation(500)
    _, _, null_corr = cca_fit(x_a, x_b[perm], 1)
    assert abs(corr[0] - null_corr[0]) < 0.15


def test_cca_recovers_shared_coordinate():
    rng = np.random.default_rng(5)
    shared = rng.standard_normal(400)
    x_a = centered(np.stack([shared, rng.standard_normal(400)], axis=1))
    x_b = centered(np.stack([shared + 0.01 * rng.standard_normal(400),
                             rng.standard_normal(400)], axis=1))
    left, right, corr = cca_fit(x_a, x_b, 1)
    for proj in (left, right):
        direction = proj.matrix[:, 0]
        cos = abs(direction[0]) / np.linalg.norm(direction)
        assert cos >= 0.99
    assert corr[0] > 0.98


def test_cca_swap_symmetry():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((150, 3))
    x_a = centered(z @ rng.standard_normal((3, 5)) + 0.1 * rng.standard_normal((150, 5)))
    x_b = centered(z @ rng.standard_normal((3, 4)) + 0.1 * rng.standard_normal((150, 4)))
    left, right, corr = cca_fit(x_a, x_b, 3)
    left2, right2, corr2 = cca_fit(x_b, x_a, 3)
    assert np.abs(corr - corr2).max() < 1e-8
    assert np.abs(left.matrix - right2.matrix).max() < 1e-8
    assert np.abs(right.matrix - left2.matrix).max() < 1e-8


def test_cca_errors():
    rng = np.random.default_rng(7)
    x_a = centered(rng.standard_normal((30, 3)))
    x_b = centered(rng.standard_normal((30, 2)))
    with pytest.raises(ValueError):
        cca_fit(x_a, x_b, 3)
    # a view with no variance: the trace-scaled ridge is 0 as well
    with pytest.raises(NumericalError, match="right view: covariance is singular"):
        cca_fit(x_a, np.zeros_like(x_b), 1)


@pytest.mark.parametrize("c", [-1, 0, True, 2.5, float("nan"), "3", None])
def test_cca_refuses_a_code_length_that_is_not_a_count(c):
    # -1, 0 and True once passed `c > min(d_a, d_b)` and sliced 4, 0 and 1
    # canonical columns; the rest raised a bare TypeError
    rng = np.random.default_rng(7)
    x_a = centered(rng.standard_normal((50, 6)))
    x_b = centered(rng.standard_normal((50, 5)))
    message = re.escape(f"c={c} must be an integer >= 1")
    with pytest.raises(ValueError, match=message):
        cca_fit(x_a, x_b, c)
    with pytest.raises(ValueError, match=message):
        cca_itq_fit(x_a, x_b, c, iters=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cca_refuses_non_finite_views(bad):
    rng = np.random.default_rng(7)
    x_a = centered(rng.standard_normal((30, 3)))
    x_b = x_a.copy()
    x_b[4, 1] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        cca_fit(x_a, x_b, 2)


@pytest.mark.parametrize("x", [np.float64(1.0), np.ones(2), np.ones((1, 2, 1)), None])
def test_project_refuses_an_input_that_is_not_a_matrix(x):
    # it read x.shape[1] first, so a 0-d or 1-d input raised a bare IndexError
    with pytest.raises(ValueError, match=r"x of shape \(.*\) is not a matrix"):
        project(x, LinearProjection.identity(2))


def test_project_refuses_non_finite_input():
    with pytest.raises(NumericalError, match="non-finite"):
        project(np.array([[1.0, np.inf]]), LinearProjection.identity(2))


def test_project_identity_and_selection():
    x = np.array([[3.0, 4.0]])
    assert np.array_equal(project(x, LinearProjection.identity(2)), x)
    pick = LinearProjection(np.array([[1.0], [0.0]]), "identity")
    assert np.array_equal(project(x, pick), [[3.0]])
    model = HashModel("itq", CenteringInfo(np.zeros(2)), pick, np.array([[-1.0]]), 1)
    assert np.array_equal(model.encoder, [[-1.0], [0.0]])  # applied under kind "identity"
    with pytest.raises(ValueError):
        project(np.ones((2, 3)), pick)


def test_project_pca_decorrelates():
    rng = np.random.default_rng(8)
    x = centered(rng.standard_normal((300, 5)) @ rng.standard_normal((5, 5)))
    z = project(x, pca_fit(x, 1.0))
    cov = z.T @ z / z.shape[0]
    off_diag = cov - np.diag(np.diag(cov))
    assert np.abs(off_diag).max() < 1e-6
