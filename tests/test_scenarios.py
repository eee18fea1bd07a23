"""Scenario-generation oracles.

The distribution after componentwise clipping has point masses at the
bounds plus a Gaussian density between; its exact mean/variance are
computed here by 1-D quadrature, independent of the sampler, and the
empirical moments of large draws must match.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from ccopf.scenarios import (
    GaussianSpec,
    ScenarioSet,
    build_covariance,
    load_csv,
    sample,
    save_csv,
    summarize,
)
from conftest import without_clipping

PAPER_14 = dict(forecasts=np.array([0.2, 0.2]), zeta=0.05, rho=0.2)


def clipped_normal_moment(sigma, low, high, power):
    """E[X^power] for X = clip(Z, low, high), Z ~ N(0, sigma^2), by
    quadrature plus the two boundary masses."""
    def integrand(x):
        return x ** power * norm.pdf(x, scale=sigma)

    inner, _ = quad(integrand, low, high, epsabs=1e-12, epsrel=1e-10)
    return (low ** power * norm.cdf(low, scale=sigma)
            + high ** power * norm.sf(high, scale=sigma)
            + inner)


class TestCovariance:
    def test_zero_correlation_is_diagonal(self):
        spec = GaussianSpec(forecasts=np.array([0.1, 0.3, 0.2]), zeta=0.05,
                            rho=0.0)
        sigma = build_covariance(spec)
        np.testing.assert_allclose(sigma,
                                   np.diag(0.05 * np.array([0.1, 0.3, 0.2])),
                                   atol=1e-15)

    def test_paper_settings(self):
        sigma = build_covariance(GaussianSpec(**PAPER_14))
        assert sigma[0, 0] == pytest.approx(0.01, abs=1e-15)
        assert sigma[0, 1] == pytest.approx(0.002, abs=1e-15)

    def test_equicorrelation_minimum_eigenvalue(self):
        p = np.full(4, 0.25)
        spec = GaussianSpec(forecasts=p, zeta=0.08, rho=0.2)
        sigma = build_covariance(spec)
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs[0] == pytest.approx(0.08 * 0.25 * (1 - 0.2), rel=1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="zeta"):
            GaussianSpec(forecasts=np.array([0.2]), zeta=0.0, rho=0.2)
        with pytest.raises(ValueError, match="rho"):
            GaussianSpec(forecasts=np.array([0.2]), zeta=0.1, rho=1.0)
        with pytest.raises(ValueError, match="positive"):
            GaussianSpec(forecasts=np.array([0.2, -0.1]), zeta=0.1, rho=0.2)
        # Neither "p <= 0" nor "zeta > 0" rejects these; the covariance
        # built from them is not PSD.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                GaussianSpec(forecasts=np.array([bad, 0.2]), zeta=0.1,
                             rho=0.2)
            with pytest.raises(ValueError, match="finite"):
                GaussianSpec(forecasts=np.array([0.2]), zeta=bad, rho=0.2)


class TestSample:
    def test_bit_identical_for_same_seed(self):
        spec = GaussianSpec(**PAPER_14)
        a = sample(spec, 50, seed=42)
        b = sample(spec, 50, seed=42)
        assert a.xi.tobytes() == b.xi.tobytes()
        assert a.spec_digest == b.spec_digest
        c = sample(spec, 50, seed=43)
        assert c.xi.tobytes() != a.xi.tobytes()

    def test_vanishing_variance(self):
        spec = GaussianSpec(forecasts=np.array([0.2, 0.2]), zeta=1e-12,
                            rho=0.2)
        sset = sample(spec, 200, seed=1)
        assert np.max(np.abs(sset.xi)) < 1e-5

    def test_clip_bounds_hold(self):
        spec = GaussianSpec(**PAPER_14)
        sset = sample(spec, 10000, seed=7)
        assert np.all(sset.xi >= -spec.forecasts - 1e-15)
        assert np.all(sset.xi <= 2 * spec.forecasts + 1e-15)
        # The lower bound sits at -2 sigma, so clipping genuinely bites.
        assert np.any(sset.xi == -spec.forecasts[None, :])

    def test_unclipped_variant_exceeds_bounds(self):
        spec = without_clipping(GaussianSpec(**PAPER_14))
        sset = sample(spec, 10000, seed=7)
        assert np.min(sset.xi) < -0.2
        # Zero-mean symmetric errors: the aggregate is positive about half
        # the time (the walkthrough experiment relies on this).
        frac = float(np.mean(sset.xi.sum(axis=1) > 0))
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_moments_match_quadrature_oracle(self):
        spec = GaussianSpec(**PAPER_14)
        s = 10000
        sset = sample(spec, s, seed=11)
        sigma = np.sqrt(spec.zeta * spec.forecasts)
        for i in range(spec.n_vre):
            m1 = clipped_normal_moment(sigma[i], -spec.forecasts[i],
                                       2 * spec.forecasts[i], 1)
            m2 = clipped_normal_moment(sigma[i], -spec.forecasts[i],
                                       2 * spec.forecasts[i], 2)
            var = m2 - m1 ** 2
            emp_mean = float(sset.xi[:, i].mean())
            emp_var = float(sset.xi[:, i].var(ddof=1))
            assert abs(emp_mean - m1) <= 3.0 * np.sqrt(var / s)
            assert emp_var == pytest.approx(var, rel=0.05)

    def test_correlation_close_to_rho(self):
        sset = sample(GaussianSpec(**PAPER_14), 100000, seed=3)
        corr = np.corrcoef(sset.xi, rowvar=False)[0, 1]
        # Clipping shrinks correlation; 0.05 slack is part of the contract.
        assert corr == pytest.approx(0.2, abs=0.05)

    def test_summarize_fields(self):
        sset = sample(GaussianSpec(**PAPER_14), 500, seed=5)
        stats = summarize(sset)
        assert stats["s"] == 500 and stats["n_vre"] == 2
        assert stats["correlation"].shape == (2, 2)
        assert stats["total_std"] > 0


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        spec = GaussianSpec(**PAPER_14)
        sset = sample(spec, 37, seed=13)
        path = tmp_path / "scen.csv"
        save_csv(sset, path, labels=["bus2", "bus3"])
        back = load_csv(path, spec=spec)
        assert back.xi.tobytes() == sset.xi.tobytes()
        assert back.seed == 13
        assert back.spec_digest == sset.spec_digest

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.1,0.2\n0.3,oops\n")
        with pytest.raises(ValueError, match=r"row 3, column 2"):
            load_csv(path)

    def test_non_finite_cell_named(self, tmp_path):
        # NaN passes every clip comparison, so it is caught by name.
        path = tmp_path / "nan.csv"
        path.write_text("a,b\n0.1,0.2\n0.0,nan\n")
        with pytest.raises(ValueError, match=r"non-finite.*row 3, column 2"):
            load_csv(path, spec=GaussianSpec(**PAPER_14))

    def test_missing_label_row_named(self, tmp_path):
        # Read as labels, the first of the three scenarios would be lost.
        path = tmp_path / "bare.csv"
        path.write_text("# seed=1\n0.1,0.2\n0.3,0.1\n0.0,0.0\n")
        with pytest.raises(ValueError, match=r"row 2 holds numbers, not "
                                             r"column labels"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no scenarios"):
            load_csv(path)

    def test_dimension_mismatch_with_spec(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b,c\n0.1,0.2,0.0\n")
        with pytest.raises(ValueError, match="VRE components"):
            load_csv(path, spec=GaussianSpec(**PAPER_14))

    def test_clip_violation_with_spec(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("a,b\n0.9,0.0\n")  # above 2p = 0.4
        with pytest.raises(ValueError, match="clip bounds"):
            load_csv(path, spec=GaussianSpec(**PAPER_14))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n0.1,0.2\n0.3\n")
        with pytest.raises(ValueError, match="inconsistent column counts"):
            load_csv(path)

    def test_label_count_checked(self, tmp_path):
        sset = ScenarioSet(xi=np.zeros((2, 2)), seed=0, spec_digest="d")
        with pytest.raises(ValueError, match="label"):
            save_csv(sset, tmp_path / "x.csv", labels=["only_one"])
