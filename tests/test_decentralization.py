"""Gini, composite index and orthogonalization against independent oracles."""

import numpy as np
import pytest

from panelcrypt import decentralization as dec


def gini_pairwise_oracle(x):
    """Direct double loop over ordered pairs: sum |x_i - x_j| / (2 n^2 mean)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += abs(x[i] - x[j])
    return total / (2.0 * n * n * x.mean())


class TestGini:
    def test_perfect_equality(self):
        assert dec.gini([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_maximal_concentration(self):
        assert dec.gini([0.0, 0.0, 0.0, 1.0]) == pytest.approx(0.75, abs=1e-15)

    def test_frozen_example(self):
        # ordered-pairs oracle: sum |x_i-x_j| = 20, 2 n^2 mean = 80
        assert dec.gini([1.0, 2.0, 3.0, 4.0]) == pytest.approx(0.25, abs=1e-15)
        assert gini_pairwise_oracle([1.0, 2.0, 3.0, 4.0]) == pytest.approx(0.25, abs=1e-15)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = rng.integers(2, 13)
            x = rng.uniform(0.0, 10.0, size=n)
            if x.sum() == 0:
                continue
            assert dec.gini(x) == pytest.approx(gini_pairwise_oracle(x), abs=1e-12)

    def test_scale_and_permutation_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            x = rng.uniform(0.0, 5.0, size=rng.integers(2, 20))
            if x.sum() == 0:
                continue
            base = dec.gini(x)
            assert dec.gini(x * rng.uniform(0.01, 100.0)) == pytest.approx(base, abs=1e-12)
            assert dec.gini(rng.permutation(x)) == pytest.approx(base, abs=1e-12)

    def test_two_point_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a, b = rng.uniform(0.01, 10.0, size=2)
            assert dec.gini([a, b]) == pytest.approx(abs(a - b) / (2 * (a + b)), abs=1e-12)

    def test_range_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            n = int(rng.integers(2, 15))
            x = rng.uniform(0.0, 3.0, size=n)
            if x.sum() == 0:
                continue
            g = dec.gini(x)
            assert -1e-12 <= g <= (n - 1) / n + 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            dec.gini([])
        with pytest.raises(ValueError):
            dec.gini([0.0, 0.0])
        with pytest.raises(ValueError):
            dec.gini([1.0, -0.5])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                dec.gini([1.0, bad])


class TestCompositeIndex:
    def test_benchmark_rows(self):
        btc = (0.7187, 0.4675, 0.3844, 0.8909, 0.2849)
        eth = (0.8610, 0.8148, 0.4919, 0.9114, 0.4572)
        assert dec.composite_index(btc) == pytest.approx(0.5493, abs=5e-5)
        assert dec.composite_index(eth) == pytest.approx(0.7073, abs=5e-5)

    def test_zeros(self):
        assert dec.composite_index((0.0,) * 5) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dec.composite_index((0.5, 0.5, 0.5, 0.5, 1.2))
        with pytest.raises(ValueError):
            dec.composite_index((0.5, 0.5, 0.5, -0.1, 0.5))


def ols_residual_oracle(y, x):
    """Independent two-column least-squares residuals via lstsq."""
    X = np.column_stack([np.ones(len(x)), x])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return y - X @ beta


class TestOrthogonalize:
    def test_exactly_linear_gives_zero(self):
        x = np.linspace(10.0, 20.0, 50)
        y = 0.3 - 0.01 * x
        residuals, missing = dec.orthogonalize(y, x)
        assert not missing.any()
        assert np.max(np.abs(residuals)) < 1e-12

    def test_matches_ols_oracle(self):
        rng = np.random.default_rng(41)
        x = rng.normal(20.0, 2.0, size=200)
        y = rng.uniform(0.5, 0.8, size=200)
        residuals, _ = dec.orthogonalize(y, x)
        assert residuals == pytest.approx(ols_residual_oracle(y, x), abs=1e-10)

    def test_mean_zero_and_orthogonal(self):
        rng = np.random.default_rng(43)
        x = rng.normal(21.0, 1.5, size=500)
        y = 0.7 - 0.02 * x + rng.normal(0, 0.05, size=500)
        residuals, _ = dec.orthogonalize(y, x)
        assert abs(residuals.mean()) < 1e-10
        corr = np.corrcoef(residuals, x)[0, 1]
        assert abs(corr) < 1e-10

    def test_uncorrelated_input_gives_demeaned(self):
        # x and y constructed exactly orthogonal in sample
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, -1.0, -1.0, 1.0])   # cov(x, y) = 0 by construction
        assert float(np.cov(x, y, bias=True)[0, 1]) == pytest.approx(0.0, abs=1e-15)
        residuals, _ = dec.orthogonalize(y + 3.0, x)
        assert residuals == pytest.approx(y, abs=1e-12)

    def test_affine_shift_invariance(self):
        rng = np.random.default_rng(47)
        x = rng.normal(19.0, 2.0, size=300)
        y = rng.uniform(0.4, 0.9, size=300)
        base, _ = dec.orthogonalize(y, x)
        shifted, _ = dec.orthogonalize(y + 0.37 - 0.015 * x, x)
        assert shifted == pytest.approx(base, abs=1e-8)

    def test_missing_handling(self):
        x = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        y = np.array([0.5, 0.6, 0.7, np.nan, 0.9])
        residuals, missing = dec.orthogonalize(y, x)
        assert missing.tolist() == [False, False, True, True, False]
        assert np.isnan(residuals[2]) and np.isnan(residuals[3])

    def test_degenerate_regressor(self):
        with pytest.raises(ValueError):
            dec.orthogonalize(np.array([0.1, 0.2, 0.3]), np.array([5.0, 5.0, 5.0]))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            dec.orthogonalize(np.array([0.1, 0.2]), np.array([1.0, 2.0]))
