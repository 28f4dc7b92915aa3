import numpy as np
import pytest
from scipy import stats as sstats

from stratapc.covariance import (
    AdjacencyGraph,
    CrossStrataStructure,
    DisconnectedGraphError,
    MatrixNormalParams,
    bym2_corr,
    exchangeable_corr,
    icar_precision,
    matrix_normal_logpdf,
    scaled_generalized_inverse,
)


def random_spd(rng, n, jitter=0.5):
    a = rng.normal(size=(n, n))
    return a @ a.T + jitter * np.eye(n)


def random_connected_graph(rng, n):
    """Random spanning tree plus random extra edges."""
    order = rng.permutation(n)
    edges = [(order[i], order[rng.integers(0, i)]) for i in range(1, n)]
    n_extra = int(rng.integers(0, n))
    for _ in range(n_extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((u, v))
    return AdjacencyGraph.from_edges(n, edges)


def dense_kron_logpdf(x, params):
    """Oracle: multivariate-normal logpdf of vec(X) under col (x) row."""
    cov = np.kron(params.col_cov, params.row_cov)
    vec_x = np.asarray(x).ravel(order="F")
    vec_m = params.mean.ravel(order="F")
    return sstats.multivariate_normal(mean=vec_m, cov=cov).logpdf(vec_x)


class TestMatrixNormal:
    def test_scalar_standard_normal(self):
        p = MatrixNormalParams(mean=np.zeros((1, 1)), row_cov=np.eye(1), col_cov=np.eye(1))
        assert matrix_normal_logpdf(np.zeros((1, 1)), p) == pytest.approx(
            -0.5 * np.log(2 * np.pi), abs=1e-14
        )

    def test_matches_dense_kronecker(self, rng):
        for _ in range(20):
            n_r, n_c = rng.integers(1, 6, size=2)
            p = MatrixNormalParams(
                mean=rng.normal(size=(n_r, n_c)),
                row_cov=random_spd(rng, n_r),
                col_cov=random_spd(rng, n_c),
            )
            x = rng.normal(size=(n_r, n_c))
            assert matrix_normal_logpdf(x, p) == pytest.approx(
                dense_kron_logpdf(x, p), abs=1e-10
            )

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_scale_transfer_invariance(self, c, rng):
        n_r, n_c = 3, 4
        row = random_spd(rng, n_r)
        col = random_spd(rng, n_c)
        x = rng.normal(size=(n_r, n_c))
        mean = rng.normal(size=(n_r, n_c))
        base = matrix_normal_logpdf(x, MatrixNormalParams(mean, row, col))
        moved = matrix_normal_logpdf(x, MatrixNormalParams(mean, c * row, col / c))
        assert moved == pytest.approx(base, abs=1e-10)

    def test_non_pd_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            MatrixNormalParams(mean=np.zeros((2, 2)), row_cov=bad, col_cov=np.eye(2))


class TestExchangeable:
    def test_zero_rho_identity(self):
        assert np.array_equal(exchangeable_corr(3, 0.0), np.eye(3))

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            exchangeable_corr(3, -0.5)
        with pytest.raises(ValueError):
            exchangeable_corr(3, 1.0)

    def test_eigenvalues(self):
        m = exchangeable_corr(4, 0.5)
        vals = np.sort(np.linalg.eigvalsh(m))
        assert vals[0] == pytest.approx(0.5, abs=1e-12)
        assert vals[-1] == pytest.approx(1 + 3 * 0.5, abs=1e-12)

    def test_pd_inside_open_interval(self):
        for r in (2, 3, 6):
            lo = -1.0 / (r - 1)
            for rho in (lo + 1e-6, 0.0, 1 - 1e-6):
                vals = np.linalg.eigvalsh(exchangeable_corr(r, rho))
                assert vals.min() > 0


class TestICAR:
    def test_path_two(self):
        g = AdjacencyGraph.from_edges(2, [(0, 1)])
        assert np.array_equal(icar_precision(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle(self):
        g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        q = icar_precision(g)
        assert np.array_equal(np.diag(q), [2.0, 2.0, 2.0])
        assert q[0, 1] == -1.0

    def test_rows_sum_to_zero(self, rng):
        g = random_connected_graph(rng, 8)
        q = icar_precision(g)
        assert np.max(np.abs(q @ np.ones(8))) == 0.0

    def test_rank_deficiency_matches_components(self):
        g = AdjacencyGraph.from_edges(5, [(0, 1), (2, 3)])  # 3 components
        q = icar_precision(g)
        assert np.linalg.matrix_rank(q) == 5 - 3
        assert g.n_components == 3

    def test_component_labels_in_order_of_first_stratum(self):
        g = AdjacencyGraph.from_edges(7, [(0, 1), (2, 3), (3, 4)])
        assert g.component_labels().tolist() == [0, 0, 1, 1, 1, 2, 3]
        assert g.n_components == 4

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            AdjacencyGraph.from_edges(3, [(1, 1)])


class TestScaledGeneralizedInverse:
    def test_path_two_hand_value(self):
        q = icar_precision(AdjacencyGraph.from_edges(2, [(0, 1)]))
        out = scaled_generalized_inverse(q)
        # pseudoinverse is [[1,-1],[-1,1]]/4, diagonal geometric mean 1/4
        assert np.allclose(out, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_geometric_mean_one(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 15))
            g = random_connected_graph(rng, n)
            out = scaled_generalized_inverse(icar_precision(g))
            assert np.exp(np.mean(np.log(np.diag(out)))) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_psd_null_space(self, rng):
        g = random_connected_graph(rng, 7)
        out = scaled_generalized_inverse(icar_precision(g))
        assert np.allclose(out, out.T, atol=1e-12)
        vals = np.linalg.eigvalsh(out)
        assert vals.min() > -1e-10
        assert np.max(np.abs(out @ np.ones(7))) < 1e-10

    def test_disconnected_rejected(self):
        q = icar_precision(AdjacencyGraph.from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(DisconnectedGraphError):
            scaled_generalized_inverse(q)


class TestBym2:
    def test_near_zero_is_identity(self, rng):
        g = random_connected_graph(rng, 5)
        qinv = scaled_generalized_inverse(icar_precision(g))
        assert np.allclose(bym2_corr(1e-12, qinv), np.eye(5), atol=1e-10)

    def test_boundaries_rejected(self):
        qinv = np.eye(3)
        for rho in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                bym2_corr(rho, qinv)

    def test_path_two_hand_value(self):
        qinv = scaled_generalized_inverse(
            icar_precision(AdjacencyGraph.from_edges(2, [(0, 1)]))
        )
        out = bym2_corr(0.5, qinv)
        assert np.allclose(out, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-12)

    def test_pd_across_interval(self, rng):
        g = random_connected_graph(rng, 6)
        qinv = scaled_generalized_inverse(icar_precision(g))
        for rho in (0.01, 0.3, 0.5, 0.9, 0.99):
            assert np.linalg.eigvalsh(bym2_corr(rho, qinv)).min() > 0


class TestRW2Equivalence:
    def test_iid_second_difference_kernel_matches_rw2(self, rng):
        # the improper RW2 kernel and the iid-normal prior on second
        # differences assign bit-identical log kernels
        from stratapc.core import second_differences

        for n in (5, 9, 17):
            v = rng.normal(size=n)
            iid_kernel = -0.5 * float(np.sum(second_differences(v) ** 2))
            rw2_kernel = -0.5 * float(
                sum((v[i] - 2.0 * v[i - 1] + v[i - 2]) ** 2 for i in range(2, n))
            )
            assert iid_kernel == rw2_kernel
