import tracemalloc
import warnings

import numpy as np
import pytest

from sngp.linalg import (LOWER_INVERSE_LEAF, NotSpdError, RngState, power_iteration, spd_factor,
                         spd_solve_factored)

from oracles import sigma_max_jacobi


def solve_spd(a, b):
    return spd_solve_factored(spd_factor(a), b)


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(solve_spd(np.eye(4), b), b)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0])
        assert np.allclose(solve_spd(a, np.array([2.0, 8.0])), [1.0, 2.0])

    def test_hand_case(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.allclose(solve_spd(a, np.array([3.0, 4.0])), [1.0, 1.0])

    def test_random_spd_multiply_back(self):
        rng = RngState(11)
        g = rng.normal_matrix(5, 5)
        a = g @ g.T + np.eye(5)
        b = rng.normal(5)
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_not_spd_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NotSpdError):
            spd_factor(a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_spd(np.eye(3), np.ones(2))

    def test_conditioned_roundtrip(self):
        # condition number about 1e6 still meets the residual contract
        rng = RngState(12)
        q, _ = np.linalg.qr(rng.normal_matrix(6, 6))
        a = q @ np.diag(np.logspace(0, 6, 6)) @ q.T
        a = 0.5 * (a + a.T)
        b = rng.normal(6)
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10


def peak_bytes(fn) -> int:
    """The tracemalloc peak of ``fn()`` above what was allocated before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spd_with_condition(n, cond, seed):
    """A symmetric matrix with eigenvalues log-spaced over [1, cond]."""
    q, _ = np.linalg.qr(RngState(seed).normal_matrix(n, n))
    a = (q * np.logspace(0.0, np.log10(cond), n)) @ q.T
    return 0.5 * (a + a.T)


# Around and across the 64-row leaf and the splits above it.
SIZES = [1, 2, 63, 64, 65, 127, 128, 129, 300, 1024]


class TestInverseFactor:
    @pytest.mark.parametrize("cond", [10.0, 1e8])
    @pytest.mark.parametrize("n", SIZES)
    def test_solve_matches_numpy_solve(self, n, cond):
        a = spd_with_condition(n, cond, seed=n)
        b = RngState(n + 1).normal_matrix(n, 3)
        x = solve_spd(a, b)
        expected = np.linalg.solve(a, b)
        # Both solves are accurate to about cond * eps in norm; measured
        # ratios are at most 0.5 of that, so 4 * cond * eps leaves room.
        rtol = 4.0 * cond * np.finfo(np.float64).eps
        assert np.linalg.norm(x - expected) <= rtol * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", SIZES)
    def test_factor_is_exactly_lower_triangular(self, n):
        w = spd_factor(spd_with_condition(n, 1e4, seed=n))
        assert w.shape == (n, n)
        assert np.all(np.triu(w, 1) == 0.0)
        assert np.all(np.diag(w) > 0.0)

    def test_factor_gives_the_inverse(self):
        a = spd_with_condition(300, 1e3, seed=5)
        w = spd_factor(a)
        inv = np.linalg.inv(a)
        assert np.abs(w.T @ w - inv).max() <= 1e-12 * np.abs(inv).max()

    def test_solves_a_vector(self):
        a = spd_with_condition(129, 100.0, seed=6)
        b = RngState(7).normal(129)
        x = solve_spd(a, b)
        assert x.shape == (129,)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("a", [
        -np.eye(200),
        np.diag([1.0, 1.0, 0.0]),
        np.full((3, 3), np.nan),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.nan]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, np.inf], [np.inf, 1.0]]),
    ], ids=["indefinite_200", "singular", "all_nan", "nan_off_diagonal", "nan_diagonal",
            "inf_diagonal", "inf_off_diagonal"])
    def test_not_spd_or_not_finite_raises(self, a):
        with pytest.raises(NotSpdError):
            spd_factor(a)


class TestFactorInto:
    """``spd_factor(a, out=view)`` writes the factor into a view of a larger
    array and returns it, with the bits of ``spd_factor(a)``."""

    @pytest.mark.parametrize("n", SIZES)
    def test_writes_the_same_bits_into_a_view(self, n):
        a = spd_with_condition(n, 1e4, seed=n)
        big = np.full((n + 2, n + 3), np.nan)  # whatever it held before is overwritten
        view = big[1:n + 1, 2:n + 2]
        assert spd_factor(a, out=view) is view
        assert np.array_equal(view, spd_factor(a))
        big[1:n + 1, 2:n + 2] = 0.0
        assert np.isnan(big).sum() == big.size - n * n  # nothing outside the view

    def test_even_sizes_work_inside_out(self):
        # Each level's S and L_21 W_11 live in out's upper block, so beside
        # out only one L_21 per level is allocated: < n^2 / 3 elements.
        n = 1024
        a = spd_with_condition(n, 1e4, seed=3)
        out = np.empty((n, n))
        peak = peak_bytes(lambda: spd_factor(a, out=out))
        # Leaf-size temporaries: a leaf's Cholesky, inverse and tril, and LAPACK's work.
        leaves = 8 * (8 * LOWER_INVERSE_LEAF**2)
        assert peak <= 8 * n * n / 3 + leaves


class TestFactorRecursion:
    """``spd_factor`` splits in two until a block has at most
    ``LOWER_INVERSE_LEAF`` rows; only those leaves reach NumPy."""

    def test_only_leaves_reach_numpy_cholesky_and_inverse(self, monkeypatch):
        a = spd_with_condition(1024, 100.0, seed=9)
        shapes = {"cholesky": [], "inv": []}
        for name, seen in shapes.items():
            def record(m, _fn=getattr(np.linalg, name), _seen=seen):
                _seen.append(m.shape)
                return _fn(m)
            monkeypatch.setattr(np.linalg, name, record)
        spd_factor(a)
        for name, seen in shapes.items():
            assert seen and max(max(shape) for shape in seen) <= LOWER_INVERSE_LEAF, name
        # The leaves tile the diagonal: each row is factored once.
        assert sum(rows for rows, _ in shapes["cholesky"]) == 1024
        assert shapes["inv"] == shapes["cholesky"]

    def test_a_deep_schur_complement_that_is_not_spd_raises_silently(self):
        # Rows 150 and 299 couple too strongly, so the matrix is not SPD,
        # but every diagonal block of 75 rows is.  Only a Schur complement
        # formed inside the factorization of the top-level one fails, at the
        # last leaf.
        a = np.eye(300)
        a[299, 150] = a[150, 299] = 2.0
        assert np.linalg.eigvalsh(a).min() < 0.0
        assert all(np.linalg.eigvalsh(a[i:i + 75, i:i + 75]).min() > 0.0
                   for i in range(0, 300, 75))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSpdError):
                spd_factor(a)

    def test_reads_only_the_lower_triangle(self):
        a = spd_with_condition(300, 1e3, seed=8)
        expected = spd_factor(a)
        a[np.triu_indices(300, 1)] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(spd_factor(a), expected)


class TestPowerIteration:
    def test_identity_all_singular_values_equal(self):
        sigma, _ = power_iteration(np.eye(3), iters=1, u0=np.array([1.0, 2.0, 0.5]))
        assert abs(sigma - 1.0) <= 1e-12

    def test_diagonal_dominant_axis(self):
        sigma, u = power_iteration(np.diag([3.0, 1.0]), iters=50, u0=np.array([1.0, 1.0]))
        assert abs(sigma - 3.0) <= 1e-9
        assert abs(abs(u[0]) - 1.0) <= 1e-9

    def test_matches_jacobi_oracle(self):
        rng = RngState(21)
        w = rng.normal_matrix(4, 3)
        sigma, _ = power_iteration(w, iters=200, u0=rng.normal(4))
        assert abs(sigma - sigma_max_jacobi(w)) <= 1e-8

    def test_zero_matrix(self):
        u0 = np.array([1.0, 0.0])
        sigma, u = power_iteration(np.zeros((2, 3)).T, iters=3, u0=np.array([1.0, 0.0, 0.0]))
        assert sigma == 0.0
        sigma, u = power_iteration(np.zeros((2, 2)), iters=3, u0=u0)
        assert sigma == 0.0
        assert np.allclose(u, u0)

    def test_monotone_in_iterations(self):
        rng = RngState(33)
        w = rng.normal_matrix(6, 6)
        u0 = rng.normal(6)
        estimates = [power_iteration(w, iters=k, u0=u0)[0] for k in range(1, 30)]
        diffs = np.diff(estimates)
        assert np.all(diffs >= -1e-12)

    def test_unit_norm_result(self):
        rng = RngState(34)
        w = rng.normal_matrix(5, 4)
        _, u = power_iteration(w, iters=10, u0=rng.normal(5))
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


class TestRngState:
    def test_same_seed_identical(self):
        a = RngState(7).normal(16)
        b = RngState(7).normal(16)
        assert np.array_equal(a, b)

    def test_uniform_deterministic(self):
        a = RngState(7).uniform(16, -1.0, 1.0)
        b = RngState(7).uniform(16, -1.0, 1.0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(1,), (7, 3), (64, 128)])
    def test_fills_in_place_equal_the_fresh_draws(self, shape):
        # The model's initial draws fill arrays it has already allocated.
        normal = np.zeros(shape)
        RngState(7).fill_normal(normal)
        assert np.array_equal(normal.ravel(), RngState(7).normal(int(np.prod(shape))))

    def test_derived_streams_differ(self):
        root = RngState(7)
        a = root.derive("weights").normal(8)
        b = root.derive("shuffle").normal(8)
        assert not np.allclose(a, b)

    def test_derivation_is_stable(self):
        a = RngState(7).derive("x").derive("y").normal(4)
        b = RngState(7).derive("x").derive("y").normal(4)
        assert np.array_equal(a, b)

    def test_normal_moments(self):
        draws = RngState(100).normal(100_000)
        assert -0.02 < draws.mean() < 0.02
        assert 0.97 < draws.var() < 1.03

    def test_uniform_range_and_mean(self):
        draws = RngState(101).uniform(100_000, 0.0, 2.0 * np.pi)
        assert draws.min() >= 0.0
        assert draws.max() <= 2.0 * np.pi
        assert abs(draws.mean() - np.pi) <= 0.03

    def test_preconditions(self):
        rng = RngState(0)
        with pytest.raises(ValueError):
            rng.normal(0)
        with pytest.raises(ValueError):
            rng.uniform(4, 2.0, 1.0)
