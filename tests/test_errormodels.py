"""Error model fitting: negative-binomial MCMC and Dirichlet conjugacy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from bibuq.datamodel import (
    CitationErrorSample,
    DocType,
    DocTypeConfusionTable,
    ValidationError,
)
from bibuq.errormodels import (
    FIRST_KIND,
    SECOND_KIND,
    DirichletPosterior,
    McmcConfig,
    NegBinModelSpec,
    NegBinPosterior,
    _CitationLogPosterior,
    fit_citation_error_model,
    fit_doctype_error_model,
    load_posterior,
    mcmc_diagnostics,
    negbin_logpmf,
    negbin_rvs,
    prior_predictive_check,
    save_posterior,
)


class TestNegBinPmf:
    def test_matches_scipy_parameterization(self):
        # mean/dispersion form vs scipy's (n, p): n = theta, p = theta / (theta + mu)
        y = np.arange(0, 60)
        for mu in (0.3, 1.0, 4.5, 20.0):
            for theta in (0.5, 1.0, 3.0, 50.0):
                ours = negbin_logpmf(y, mu, theta)
                ref = sps.nbinom.logpmf(y, theta, theta / (theta + mu))
                assert np.allclose(ours, ref, atol=1e-10)

    def test_zero_mean_is_point_mass_at_zero(self):
        assert negbin_logpmf(np.array([0]), 0.0, 2.0)[0] == 0.0
        assert negbin_logpmf(np.array([1]), 0.0, 2.0)[0] == -np.inf

    def test_infinite_mean_has_no_mass(self):
        assert negbin_logpmf(3, np.inf, 1.0) == -np.inf
        assert negbin_logpmf(0, np.inf, 1.0) == -np.inf
        assert np.all(negbin_logpmf(np.arange(5), np.inf, 2.5) == -np.inf)

    def test_rvs_moments(self):
        rng = np.random.default_rng(0)
        mu, theta = 5.0, 2.0
        draws = negbin_rvs(rng, np.full(200_000, mu), theta)
        assert draws.mean() == pytest.approx(mu, rel=0.02)
        assert draws.var() == pytest.approx(mu + mu * mu / theta, rel=0.05)

    def test_rvs_non_negative_integers(self):
        rng = np.random.default_rng(1)
        draws = negbin_rvs(rng, np.linspace(0.0, 10.0, 1000), 1.5)
        assert draws.min() >= 0
        assert np.issubdtype(draws.dtype, np.integer)


class TestCitationFit:
    def test_posterior_shape_and_diagnostics(self, second_kind_posterior):
        config = second_kind_posterior.config
        assert second_kind_posterior.draws.shape == (
            config.chains,
            config.keep,
            3,
        )
        diag = mcmc_diagnostics(second_kind_posterior)
        assert diag.converged
        assert max(diag.rhat.values()) < 1.05
        assert min(diag.ess.values()) > 100

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_deterministic_for_same_seed(self, training_sample):
        config = McmcConfig(chains=2, warmup=400, keep=300, seed=21)
        a = fit_citation_error_model(training_sample, config=config)
        b = fit_citation_error_model(training_sample, config=config)
        assert np.array_equal(a.draws, b.draws)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_seed_changes_draws(self, training_sample):
        a = fit_citation_error_model(
            training_sample, config=McmcConfig(chains=2, warmup=400, keep=300, seed=1)
        )
        b = fit_citation_error_model(
            training_sample, config=McmcConfig(chains=2, warmup=400, keep=300, seed=2)
        )
        assert not np.array_equal(a.draws, b.draws)

    def test_direction_recorded(self, second_kind_posterior, first_kind_posterior):
        assert second_kind_posterior.spec.direction == SECOND_KIND
        assert first_kind_posterior.spec.direction == FIRST_KIND

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fixed_slope_and_dispersion_pinned(self, training_sample):
        spec = NegBinModelSpec(fixed_slope=0.0, fixed_dispersion=10.0)
        posterior = fit_citation_error_model(
            training_sample, spec=spec, config=McmcConfig(chains=2, warmup=300, keep=200, seed=3)
        )
        flat = posterior.flat()
        assert np.all(flat[:, 1] == 0.0)
        assert np.allclose(flat[:, 2], 10.0)

    def test_positive_association_detected(self, second_kind_posterior):
        # The training sample couples omissions to citedness, so the slope
        # posterior should be clearly positive.
        slope = second_kind_posterior.flat()[:, 1]
        assert np.quantile(slope, 0.05) > 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_chain_zero_matches_single_chain_fit(self, training_sample):
        # Chains step together but each draws only from its own substream.
        together = fit_citation_error_model(
            training_sample, config=McmcConfig(chains=4, warmup=200, keep=200, seed=8)
        )
        alone = fit_citation_error_model(
            training_sample, config=McmcConfig(chains=1, warmup=200, keep=200, seed=8)
        )
        assert np.array_equal(together.draws[0], alone.draws[0])
        assert together.acceptance_rates[0] == alone.acceptance_rates[0]

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            fit_citation_error_model(CitationErrorSample([], []))


def _record_by_record_log_posterior(sample, spec, z):
    """Oracle: the citation log posterior summed over every audit record."""
    predictor = sample.observed if spec.direction == SECOND_KIND else sample.corrected
    x = np.log1p(predictor.astype(np.float64))
    x_center = x.mean()
    out = []
    for row in z:
        pos = 1
        b1 = spec.fixed_slope
        if b1 is None:
            b1 = row[pos]
            pos += 1
        log_theta = row[pos] if spec.fixed_dispersion is None else np.log(spec.fixed_dispersion)
        b0 = row[0] - b1 * x_center
        mu = np.exp(b0 + b1 * x)
        total = sum(
            float(negbin_logpmf(y, m, np.exp(log_theta))) for y, m in zip(sample.omitted, mu)
        )
        total -= 0.5 * ((b0 - spec.intercept_prior_mean) / spec.intercept_prior_sd) ** 2
        if spec.fixed_slope is None:
            total -= 0.5 * ((b1 - spec.slope_prior_mean) / spec.slope_prior_sd) ** 2
        if spec.fixed_dispersion is None:
            total -= (
                0.5
                * ((log_theta - spec.log_dispersion_prior_mean) / spec.log_dispersion_prior_sd)
                ** 2
            )
        out.append(total)
    return np.array(out)


class TestCitationLogPosterior:
    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(
            # Few distinct values, so audits carry heavy ties and many zeros.
            st.tuples(
                st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 400)),
                st.one_of(st.just(0), st.integers(0, 2), st.integers(0, 60)),
            ),
            min_size=2,
            max_size=150,
        ),
        direction=st.sampled_from([SECOND_KIND, FIRST_KIND]),
        fixed_slope=st.one_of(st.none(), st.floats(-1.0, 1.5)),
        fixed_dispersion=st.one_of(st.none(), st.floats(0.05, 50.0)),
        z=st.lists(st.floats(-2.5, 2.5), min_size=12, max_size=12),
    )
    def test_unique_pairs_match_record_sum(
        self, records, direction, fixed_slope, fixed_dispersion, z
    ):
        sample = CitationErrorSample(
            np.array([r[0] for r in records]), np.array([r[1] for r in records])
        )
        spec = NegBinModelSpec(
            direction=direction, fixed_slope=fixed_slope, fixed_dispersion=fixed_dispersion
        )
        log_post = _CitationLogPosterior(sample, spec)
        states = np.array(z).reshape(4, 3)[:, : log_post.dim]
        expected = _record_by_record_log_posterior(sample, spec, states)
        np.testing.assert_allclose(log_post(states), expected, rtol=1e-9, atol=1e-12)


class TestDoctypeFit:
    def test_second_kind_uses_observed_conditioning(self, confusion_table):
        posterior = fit_doctype_error_model(confusion_table, prior_pseudocount=1.0)
        expected = confusion_table.counts.T + 1.0
        assert np.allclose(posterior.concentrations, expected, atol=1e-13)

    def test_first_kind_uses_true_conditioning(self, confusion_table):
        posterior = fit_doctype_error_model(
            confusion_table, prior_pseudocount=0.5, direction=FIRST_KIND
        )
        expected = confusion_table.counts + 0.5
        assert np.allclose(posterior.concentrations, expected, atol=1e-13)

    def test_posterior_mean_is_normalized_concentration(self, doctype_posterior):
        for dt in DocType:
            row = doctype_posterior.row(dt)
            mean = doctype_posterior.posterior_mean(dt)
            assert np.allclose(mean, row / row.sum(), atol=1e-13)
            assert mean.sum() == pytest.approx(1.0, abs=1e-13)

    def test_zero_row_without_pseudocount_rejected(self):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 5
        table = DocTypeConfusionTable(counts)
        with pytest.raises(ValidationError):
            fit_doctype_error_model(table, prior_pseudocount=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        counts=st.lists(
            st.integers(min_value=0, max_value=500), min_size=16, max_size=16
        ),
        pseudocount=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_conjugate_update_property(self, counts, pseudocount):
        table = DocTypeConfusionTable(np.array(counts, dtype=np.int64).reshape(4, 4))
        posterior = fit_doctype_error_model(table, prior_pseudocount=pseudocount)
        assert np.allclose(
            posterior.concentrations, table.counts.T + pseudocount, atol=1e-12
        )


class TestPriorPredictive:
    def test_two_sigma_intercept_band(self):
        summary = prior_predictive_check(n_draws=200)
        assert summary.intercept_scale_low == pytest.approx(np.exp(-1.6), abs=1e-12)
        assert summary.intercept_scale_high == pytest.approx(np.exp(1.6), abs=1e-12)

    def test_prior_is_centered_and_wide(self):
        # Symmetric priors put the median expected omission count near one
        # citation regardless of the predictor, with wide count intervals.
        summary = prior_predictive_check(n_draws=5000)
        for g in summary.grid:
            assert 0.8 < summary.mean_median[g] < 1.25
            lo, med, hi = summary.count_quantiles[g]
            assert lo <= med <= hi
            assert lo >= 0.0


class TestPersistence:
    def test_negbin_round_trip(self, tmp_path, second_kind_posterior):
        path = tmp_path / "citation.json"
        save_posterior(second_kind_posterior, path)
        loaded = load_posterior(path)
        assert isinstance(loaded, NegBinPosterior)
        assert np.array_equal(loaded.draws, second_kind_posterior.draws)
        assert loaded.spec == second_kind_posterior.spec
        assert loaded.config == second_kind_posterior.config

    def test_dirichlet_round_trip(self, tmp_path, doctype_posterior):
        path = tmp_path / "doctype.json"
        save_posterior(doctype_posterior, path)
        loaded = load_posterior(path)
        assert isinstance(loaded, DirichletPosterior)
        assert np.array_equal(loaded.concentrations, doctype_posterior.concentrations)
        assert loaded.direction == doctype_posterior.direction

    def test_saved_files_are_stable(self, tmp_path, doctype_posterior):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_posterior(doctype_posterior, p1)
        save_posterior(doctype_posterior, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "mystery"}')
        with pytest.raises(ValidationError):
            load_posterior(path)
