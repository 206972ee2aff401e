"""Error model fitting: negative-binomial MCMC and Dirichlet conjugacy."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as spspecial
from scipy import stats as sps

from bibuq import mcmc
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
    _LOG_TABLE_MAX,
    _CitationLogPosterior,
    _gammaln,
    _log_rising_ratio,
    fit_citation_error_model,
    fit_doctype_error_model,
    load_posterior,
    mcmc_diagnostics,
    negbin_logpmf,
    negbin_rvs,
    prior_predictive_check,
    save_posterior,
)

import oracle
from helpers import shifted_apart


class TestNegBinPmf:
    def test_matches_scipy_parameterization(self):
        # mean/dispersion form vs scipy's (n, p): n = theta, p = theta / (theta + mu)
        y = np.arange(0, 60)
        for mu in (0.3, 1.0, 4.5, 20.0):
            for theta in (0.5, 1.0, 3.0, 50.0):
                ours = negbin_logpmf(y, mu, theta)
                ref = sps.nbinom.logpmf(y, theta, theta / (theta + mu))
                assert np.allclose(ours, ref, atol=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(min_value=0.0, max_value=1e15, exclude_min=True))
    def test_gammaln_matches_scipy(self, x):
        # Within 1e-13 of max(1, |lgamma|): about 450 units in the last
        # place; the worst seen on dense sweeps of (0, 12] is about 60.
        ref = float(spspecial.gammaln(x))
        assert abs(float(_gammaln(x)) - ref) <= 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize("theta", [0.5, 3.0, 1e5, 1e6, 1e9, 1e15, 1e23])
    @pytest.mark.parametrize("y", [0, 1, 2, 7, 200])
    def test_log_rising_ratio_sums_log1p(self, y, theta):
        # For integer y it is the sum over k < y of log1p(k / theta).
        expected = math.fsum(math.log1p(k / theta) for k in range(y))
        assert float(_log_rising_ratio(np.float64(y), np.float64(theta))) == pytest.approx(
            expected, rel=1e-12, abs=1e-9
        )

    def test_gammaln_exact_where_lgamma_is_zero_or_infinite(self):
        assert _gammaln(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]
        assert _gammaln(np.array([0.0, np.inf])).tolist() == [np.inf, np.inf]

    @settings(max_examples=200, deadline=None)
    @given(
        y=st.integers(0, 10**6),
        mu=st.floats(min_value=1e-3, max_value=1e8),
        theta=st.floats(min_value=1e-2, max_value=1e4),
    )
    def test_matches_scipy_at_large_arguments(self, y, mu, theta):
        # The bound scales with the sizes of the terms that cancel, plus
        # the rounding of scipy's own 1 - p = mu / (theta + mu) when mu
        # is far below theta, which its log1p(-p) multiplies by y.
        ours = float(negbin_logpmf(y, mu, theta))
        ref = float(sps.nbinom.logpmf(y, theta, theta / (theta + mu)))
        scale = 1.0 + sum(
            abs(float(spspecial.gammaln(v))) for v in (y + theta, theta, y + 1.0)
        )
        scale += abs(theta * np.log(theta / (theta + mu))) + y * (theta + mu) / mu
        assert abs(ours - ref) <= 1e-13 * scale

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

    @settings(max_examples=80, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.0, 1e12, 1e14]),
                    st.floats(min_value=0.0, max_value=1e4),
                ),
                st.one_of(
                    st.sampled_from([0.3, 1.0, 4.0]),
                    st.floats(min_value=0.02, max_value=50.0),
                ),
            ),
            min_size=1,
            max_size=40,
        ),
        per_element_theta=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rvs_match_gamma_with_scale_bit_for_bit(self, pairs, per_element_theta, seed):
        # theta below, at and above 1, a zero mean, and means at and over the cap.
        mu = np.array([m for m, _ in pairs])
        theta = np.array([t for _, t in pairs]) if per_element_theta else pairs[0][1]
        ours_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        ours = negbin_rvs(ours_rng, mu, theta)
        ref = oracle.negbin_rvs(ref_rng, mu, theta)
        assert ours.dtype == ref.dtype
        assert np.array_equal(ours, ref)
        assert ours_rng.random() == ref_rng.random()  # both consumed the same stream


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

    def test_large_audits_converge_and_mix(self):
        # 30 audits of 3,000 records from the benchmark's correct-small
        # model: predictor floor(lognormal(1.8, 1.2)), omitted NB with mean
        # exp(-1 + 0.3 log1p(predictor)) and dispersion 0.8.  A random walk
        # missed R-hat on two of these seeds and left log-dispersion with
        # an ESS of 6 of 4,000 draws on one.
        worst_ess = np.inf
        for seed in range(30):
            rng = np.random.default_rng(seed)
            observed = np.floor(rng.lognormal(1.8, 1.2, size=3000)).astype(np.int64)
            mean = np.exp(-1.0 + 0.3 * np.log1p(observed))
            omitted = rng.poisson(rng.gamma(0.8, mean / 0.8))
            posterior = fit_citation_error_model(
                CitationErrorSample(observed, omitted), config=McmcConfig(seed=seed)
            )
            assert posterior.diagnostics.converged, seed
            worst_ess = min(worst_ess, posterior.diagnostics.ess["log_dispersion"])
        assert worst_ess >= 400

    def test_density_without_a_mode_is_an_error(self):
        # A pinned slope so steep that the mean overflows at the prior
        # mean, where the mode search starts: an error, not a sample.
        sample = CitationErrorSample(np.full(20, 10**6), np.zeros(20, dtype=np.int64))
        with pytest.raises(ValidationError, match="mode search"):
            fit_citation_error_model(sample, spec=NegBinModelSpec(fixed_slope=800.0))


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
        # Priors N(0, 0.8), N(0, 1) and N(0, 1), up to a constant.
        total -= 0.5 * (b0 / 0.8) ** 2
        if spec.fixed_slope is None:
            total -= 0.5 * b1**2
        if spec.fixed_dispersion is None:
            total -= 0.5 * log_theta**2
        out.append(total)
    return np.array(out)


def _same_diagnostics(first, second) -> bool:
    """Equal diagnostics, NaN R-hats included."""
    return json.dumps(asdict(first), sort_keys=True) == json.dumps(asdict(second), sort_keys=True)


class TestPosteriorDiagnostics:
    def test_fitted_loaded_and_built_posteriors_diagnose_their_draws(
        self, tmp_path, second_kind_posterior
    ):
        path = tmp_path / "citation.json"
        save_posterior(second_kind_posterior, path)
        built = NegBinPosterior(draws=second_kind_posterior.draws[:, :50])
        for posterior in (second_kind_posterior, load_posterior(path), built):
            assert _same_diagnostics(posterior.diagnostics, mcmc_diagnostics(posterior))
        assert second_kind_posterior.diagnostics.converged

    @pytest.mark.parametrize("block", [{"converged": True}, None, "anything"])
    def test_stored_block_is_not_read(self, tmp_path, second_kind_posterior, block):
        path = tmp_path / "citation.json"
        save_posterior(second_kind_posterior, path)
        payload = json.loads(path.read_text())
        payload["draws"] = shifted_apart(payload["draws"]).tolist()
        payload["diagnostics"] = block
        path.write_text(json.dumps(payload))
        loaded = load_posterior(path)
        assert not loaded.diagnostics.converged
        assert max(loaded.diagnostics.rhat.values()) > 1.05

    @pytest.mark.parametrize("chains, kept", [(1, 1), (2, 1), (2, 3), (1, 5), (3, 2), (2, 4)])
    def test_small_posteriors_build_quietly(self, chains, kept):
        draws = np.random.default_rng(0).uniform(0.5, 1.5, size=(chains, kept, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag = NegBinPosterior(draws=draws).diagnostics
        rhat = list(diag.rhat.values())
        if chains >= 2 and kept >= 4:
            assert all(math.isfinite(r) for r in rhat)
        else:
            assert all(math.isnan(r) for r in rhat) and diag.converged
        assert all(0 < e <= chains * kept for e in diag.ess.values())


    @pytest.mark.parametrize("chains_apart", [False, True], ids=["mixed", "chains-apart"])
    def test_draws_near_the_float_limit_build_quietly_unconverged(self, tmp_path, chains_apart):
        rng = np.random.default_rng(0)
        draws = rng.uniform(0.5, 1.5, size=(4, 100, 3))
        if chains_apart:
            sign = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
            draws[:, :, 0] = sign * rng.uniform(0.5e300, 1e300, size=(4, 100))
        else:
            draws[:, :, 0] = rng.choice([-1e300, 1e300], size=(4, 100))
        path = tmp_path / "citation.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            posterior = NegBinPosterior(draws=draws)
            save_posterior(posterior, path)
            loaded = load_posterior(path)
        for diag in (posterior.diagnostics, loaded.diagnostics):
            assert math.isnan(diag.rhat["intercept"]) and math.isnan(diag.ess["intercept"])
            assert not diag.converged
            # The other parameters are diagnosed as usual.
            assert diag.rhat["slope"] < 1.05 and diag.ess["slope"] > 100


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
        # Counts past the log table, so the fit takes log-gammas of the
        # distinct counts instead.
        large_counts=st.lists(
            st.integers(_LOG_TABLE_MAX + 1, 10**5), min_size=0, max_size=4
        ),
        direction=st.sampled_from([SECOND_KIND, FIRST_KIND]),
        fixed_slope=st.one_of(st.none(), st.floats(-1.0, 1.5)),
        fixed_dispersion=st.one_of(st.none(), st.floats(0.05, 50.0)),
        z=st.lists(st.floats(-2.5, 2.5), min_size=12, max_size=12),
    )
    def test_unique_pairs_match_record_sum(
        self, records, large_counts, direction, fixed_slope, fixed_dispersion, z
    ):
        omitted = [r[1] for r in records]
        omitted[: len(large_counts)] = large_counts[: len(omitted)]
        sample = CitationErrorSample(np.array([r[0] for r in records]), np.array(omitted))
        spec = NegBinModelSpec(
            direction=direction, fixed_slope=fixed_slope, fixed_dispersion=fixed_dispersion
        )
        log_post = _CitationLogPosterior(sample, spec)
        assert (log_post.table_k is None) == (max(omitted) > _LOG_TABLE_MAX)
        states = np.array(z).reshape(4, 3)[:, : log_post.dim]
        expected = _record_by_record_log_posterior(sample, spec, states)
        np.testing.assert_allclose(log_post(states), expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("log_theta", [30.0, 40.0, 54.0])
    @pytest.mark.parametrize("large_count", [False, True])
    def test_huge_dispersion_reaches_the_poisson_limit(
        self, training_sample, log_theta, large_count
    ):
        # As theta grows the negative binomial tends to the Poisson; the
        # gap, about (y - mu)^2 / (2 theta) per record, is below 1e-7 here.
        omitted = training_sample.omitted.copy()
        if large_count:
            omitted[0] = 10 * _LOG_TABLE_MAX  # the log-gamma branch
        sample = CitationErrorSample(training_sample.observed, omitted)
        log_post = _CitationLogPosterior(sample, NegBinModelSpec())
        z = np.array([[0.3, 0.5, log_theta]])
        b0, b1, _ = log_post.unpack(z)
        mu = np.exp(b0[0] + b1[0] * np.log1p(sample.observed.astype(np.float64)))
        poisson = sps.poisson.logpmf(omitted, mu).sum()
        prior = -0.5 * ((b0[0] / 0.8) ** 2 + b1[0] ** 2 + log_theta**2)
        assert log_post(z)[0] == pytest.approx(poisson + prior, abs=1e-5)

    @pytest.mark.parametrize("seed", [40, 85])
    def test_mode_search_survives_an_overshooting_first_step(self, seed):
        # Audits drawn like the correct-44k benchmark's at these seeds.
        # The first damped Newton step from the prior mean lands near log
        # dispersion 54, where the log density, with theta * log(theta)
        # and theta * log(mu + theta) summed apart, read about +9,000,
        # far above the mode's; the search stayed there and gave up.
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, 2)))
        observed = np.floor(rng.lognormal(2.0, 1.2, size=372)).astype(np.int64)
        mu = np.exp(-1.2 + 0.25 * np.log1p(observed))
        omitted = rng.poisson(rng.gamma(0.5, mu / 0.5))
        posterior = fit_citation_error_model(
            CitationErrorSample(observed, omitted), config=McmcConfig(seed=0)
        )
        assert posterior.diagnostics.converged
        assert abs(np.log(posterior.draws[..., 2]).mean()) < 2.0

    @pytest.mark.parametrize("omitted_max", [40, 10 * _LOG_TABLE_MAX])
    def test_overflow_is_minus_infinity_and_rejected(self, omitted_max):
        rng = np.random.default_rng(3)
        sample = CitationErrorSample(
            rng.integers(0, 300, size=50), rng.integers(0, omitted_max + 1, size=50)
        )
        log_post = _CitationLogPosterior(sample, NegBinModelSpec())
        # A mean past the float range, through the intercept or the slope,
        # and a dispersion past it: -inf, never NaN.
        states = np.array([[800.0, 0.0, 0.0], [0.0, 800.0, 0.0], [0.0, 0.0, 800.0]])
        assert np.all(log_post(states) == -np.inf)

        # Slope and dispersion pinned, a chain centred just below where
        # the mean overflows: the proposals past it are rejected.
        spec = NegBinModelSpec(fixed_slope=0.0, fixed_dispersion=2.0)
        pinned = _CitationLogPosterior(sample, spec)
        returned = []

        def recording(z):
            out = pinned(z)
            returned.append(out)
            return out

        result = mcmc.run_chain(
            recording,
            np.array([709.7]),
            np.array([[0.5]]),
            warmup=30,
            keep=30,
            rngs=[np.random.default_rng(0)],
        )
        returned = np.concatenate(returned)
        assert not np.isnan(returned).any()
        assert (returned == -np.inf).any()
        assert np.isfinite(pinned(result.draws.reshape(-1, 1))).all()


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

    def test_zero_row_without_pseudocount_rejected(self):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 5
        table = DocTypeConfusionTable(counts)
        with pytest.raises(ValidationError):
            fit_doctype_error_model(table, prior_pseudocount=0.0)

    @pytest.mark.parametrize("pseudocount", ["1", float("nan"), float("inf"), -0.5, True, None])
    def test_bad_pseudocount_rejected(self, confusion_table, pseudocount):
        message = "^prior_pseudocount must be a finite number >= 0, got "
        with pytest.raises(ValidationError, match=message):
            fit_doctype_error_model(confusion_table, pseudocount)

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


# Scalar fields of posterior files, as key paths: the doctype model's
# pseudocount and the citation model's others.
_SCALAR_FIELDS = [
    ("acceptance_rates",),
    ("spec", "fixed_slope"),
    ("spec", "fixed_dispersion"),
    *(("config", name) for name in ("chains", "warmup", "keep", "seed")),
    ("pseudocount",),
]
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats()
    | st.text(max_size=4)
    | st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


def _edited_posterior(tmp_path, doctype_posterior, where, value):
    """A posterior file with ``value`` at the key path ``where``.

    The doctype posterior for its pseudocount, else ``_EARLIER_POSTERIOR``.
    """
    path = tmp_path / "posterior.json"
    if where == ("pseudocount",):
        save_posterior(doctype_posterior, path)
        payload = json.loads(path.read_text())
    else:
        payload = json.loads(json.dumps(_EARLIER_POSTERIOR))
    block = payload
    for key in where[:-1]:
        block = block[key]
    block[where[-1]] = value
    path.write_text(json.dumps(payload))
    return path


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

    def test_earlier_file_loads_and_keeps_its_bytes(self, tmp_path):
        # Files written while the priors were settable record them in
        # "spec", and files of the adaptive sampler record its
        # target_acceptance in "config": it loads and is dropped.
        assert "target_acceptance" in _EARLIER_POSTERIOR["config"]
        path = tmp_path / "earlier.json"
        path.write_text(json.dumps(_EARLIER_POSTERIOR, sort_keys=True, indent=1) + "\n")
        loaded = load_posterior(path)
        assert loaded.spec == NegBinModelSpec()
        assert loaded.config == McmcConfig(chains=2, warmup=100, keep=100, seed=5)
        save_posterior(loaded, tmp_path / "again.json")
        current = json.loads(json.dumps(_EARLIER_POSTERIOR))
        del current["config"]["target_acceptance"]
        # Every key keeps its bytes except "diagnostics", which is
        # computed from the draws, never read back.
        current["diagnostics"] = asdict(mcmc_diagnostics(loaded))
        text = json.dumps(current, sort_keys=True, indent=1) + "\n"
        assert (tmp_path / "again.json").read_text() == text

    def test_other_stored_prior_rejected(self, tmp_path):
        payload = json.loads(json.dumps(_EARLIER_POSTERIOR))
        payload["spec"]["intercept_prior_sd"] = 2.0
        path = tmp_path / "other.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="intercept_prior_sd is 2.0"):
            load_posterior(path)

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "mystery"}')
        with pytest.raises(ValidationError):
            load_posterior(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["spec"].update(fixed_slop=0.5), "unknown key 'fixed_slop' in 'spec'"),
            (lambda p: p["config"].update(chain=2), "unknown key 'chain' in 'config'"),
            (lambda p: p.pop("draws"), "posterior file has no 'draws' key"),
            (lambda p: p.pop("spec"), "posterior file has no 'spec' key"),
            (lambda p: p.pop("config"), "posterior file has no 'config' key"),
            (lambda p: p.pop("acceptance_rates"), "no 'acceptance_rates' key"),
            (lambda p: p.update(config=[2, 100]), "'config' must be a JSON object"),
        ],
    )
    def test_citation_file_keys_checked(self, tmp_path, edit, message):
        payload = json.loads(json.dumps(_EARLIER_POSTERIOR))
        edit(payload)
        path = tmp_path / "citation.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=message) as info:
            load_posterior(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("key", ["concentrations", "direction", "pseudocount"])
    def test_doctype_file_keys_checked(self, tmp_path, doctype_posterior, key):
        path = tmp_path / "doctype.json"
        save_posterior(doctype_posterior, path)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=f"{path}: posterior file has no {key!r} key"):
            load_posterior(path)

    @pytest.mark.parametrize("text", ["not json", "[1, 2]"])
    def test_not_a_posterior_file(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=str(path)):
            load_posterior(path)

    def test_non_utf8_posterior_file_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValidationError) as info:
            load_posterior(path)
        assert str(info.value).startswith(f"{path}: not a JSON posterior file (")

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "'concentrations' must be a rectangular array of numbers"),
            ([[1, 2], [3]], "'concentrations' must be a rectangular array of numbers"),
            ([[True] * 4] * 4, "'concentrations' must be a rectangular array of numbers"),
            ([["1"] * 4] * 4, "'concentrations' must be a rectangular array of numbers"),
            ([[1.0] * 4] * 3, "concentrations must be 4x4"),
            ([[float("nan")] + [1.0] * 3] + [[1.0] * 4] * 3, "concentrations must be finite"),
            ([[float("inf")] + [1.0] * 3] + [[1.0] * 4] * 3, "concentrations must be finite"),
            ([[10**400] + [1] * 3] + [[1] * 4] * 3, "concentrations must be finite"),
        ],
        ids=["string", "ragged", "booleans", "strings", "3x4", "nan", "inf", "huge-int"],
    )
    def test_doctype_file_values_checked(self, tmp_path, doctype_posterior, value, message):
        path = tmp_path / "doctype.json"
        save_posterior(doctype_posterior, path)
        payload = json.loads(path.read_text())
        payload["concentrations"] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError) as info:
            load_posterior(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "'draws' must be a rectangular array of numbers"),
            ([[[-0.5, 0.4, 1.2]], [[-0.5, 0.4]]], "'draws' must be a rectangular array of numbers"),
            ([[1, 2]], "draws must have shape (chains, kept, 3)"),
            ([[[-0.5, float("nan"), 1.2]]], "draws must be finite"),
            ([[[float("-inf"), 0.4, 1.2]]], "draws must be finite"),
            ([[[-0.5, 0.4, 0.0]]], "all dispersion draws must be > 0"),
            (json.loads("[" * 40 + "1" + "]" * 40), "'draws' must be a rectangular array of numbers"),
        ],
        ids=["string", "ragged", "2-d", "nan", "-inf", "zero-dispersion", "40-deep"],
    )
    def test_citation_file_values_checked(self, tmp_path, value, message):
        path = tmp_path / "citation.json"
        path.write_text(json.dumps({**_EARLIER_POSTERIOR, "draws": value}))
        with pytest.raises(ValidationError) as info:
            load_posterior(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (
                ("acceptance_rates",),
                5,
                "acceptance_rates must be empty or one number in [0, 1] per chain",
            ),
            (
                ("acceptance_rates",),
                "ab",
                "acceptance_rates must be empty or one number in [0, 1] per chain",
            ),
            (
                ("spec", "fixed_dispersion"),
                "abc",
                "fixed_dispersion must be a finite number or None, got 'abc'",
            ),
            (("config", "chains"), "2", "chains must be an integer, got '2'"),
            (("config", "seed"), 1.5, "seed must be an integer, got 1.5"),
            (("pseudocount",), "abc", "pseudocount must be a finite number >= 0, got 'abc'"),
            (("pseudocount",), -1, "pseudocount must be a finite number >= 0, got -1"),
            (("pseudocount",), True, "pseudocount must be a finite number >= 0, got True"),
        ],
        ids=[
            "acceptance-rates-int",
            "acceptance-rates-string",
            "fixed-dispersion-string",
            "chains-string",
            "seed-float",
            "pseudocount-string",
            "pseudocount-negative",
            "pseudocount-bool",
        ],
    )
    def test_scalar_fields_checked(self, tmp_path, doctype_posterior, where, value, message):
        path = _edited_posterior(tmp_path, doctype_posterior, where, value)
        with pytest.raises(ValidationError) as info:
            load_posterior(path)
        assert str(info.value) == f"{path}: {message}"

    @settings(max_examples=300, deadline=None)
    @given(where=st.sampled_from(_SCALAR_FIELDS), value=_JSON_VALUES)
    def test_any_json_scalar_loads_or_is_named(
        self, tmp_path_factory, doctype_posterior, where, value
    ):
        # A scalar field of either model holding any JSON value either
        # loads, keeping that value, or is a ValidationError naming the
        # file: never another exception.
        tmp_path = tmp_path_factory.mktemp("scalar")
        path = _edited_posterior(tmp_path, doctype_posterior, where, value)
        try:
            loaded = load_posterior(path)
        except ValidationError as err:
            assert str(err).startswith(f"{path}: ")
            return
        save_posterior(loaded, tmp_path / "again.json")
        again = json.loads((tmp_path / "again.json").read_text())
        for key in where:
            again = again[key]
        assert again == value

    def test_numpy_integer_config_is_saved_as_json(self, tmp_path):
        config = McmcConfig(chains=np.int64(2), warmup=100, keep=100, seed=np.uint64(5))
        assert all(type(value) is int for value in asdict(config).values())
        path = tmp_path / "citation.json"
        save_posterior(NegBinPosterior(draws=np.ones((2, 100, 3)), config=config), path)
        assert load_posterior(path).config == config

    def test_posterior_without_config_round_trips(self, tmp_path):
        path = tmp_path / "citation.json"
        save_posterior(NegBinPosterior(draws=np.ones((1, 3, 3))), path)
        assert json.loads(path.read_text())["config"] is None
        assert load_posterior(path).config is None

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["config"].update(chains=3), "config says 3 chains x 100 kept, but the draws hold 2 x 100"),
        (lambda p: p["config"].update(keep=200), "config says 2 chains x 200 kept, but the draws hold 2 x 100"),
        (lambda p: p.update(draws=p["draws"][:1]), "config says 2 chains x 100 kept, but the draws hold 1 x 100"),
    ], ids=["chains", "keep", "draws"])
    def test_config_must_match_the_draws(self, tmp_path, edit, message):
        payload = json.loads(json.dumps(_EARLIER_POSTERIOR))
        edit(payload)
        path = tmp_path / "citation.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError) as info:
            load_posterior(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name, value, column", [
        ("fixed_slope", 0.0, 1), ("fixed_dispersion", 1.25, 2)
    ])
    def test_pinned_parameter_must_hold_in_every_draw(self, tmp_path, name, value, column):
        # The draws vary in the pinned column: rejected.  Pinned to the
        # value every draw holds: loads.
        payload = json.loads(json.dumps(_EARLIER_POSTERIOR))
        payload["spec"][name] = value
        path = tmp_path / "citation.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError) as info:
            load_posterior(path)
        assert str(info.value) == f"{path}: {name} is {value!r}, but the draws hold other values"
        for chain in payload["draws"]:
            for draw in chain:
                draw[column] = value
        path.write_text(json.dumps(payload))
        assert getattr(load_posterior(path).spec, name) == value

    def test_unknown_direction_is_named(self, tmp_path, doctype_posterior):
        path = tmp_path / "doctype.json"
        save_posterior(doctype_posterior, path)
        payload = json.loads(path.read_text())
        payload["direction"] = "sideways"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=f"^{path}: direction must be one of"):
            load_posterior(path)


# A citation posterior as files record it: two chains of the 100 kept
# draws its config names.
_EARLIER_POSTERIOR = {
    "acceptance_rates": [0.31, 0.29],
    "config": {"chains": 2, "keep": 100, "seed": 5, "target_acceptance": 0.3, "warmup": 100},
    "diagnostics": None,
    "draws": [
        [[-0.52 + 0.01 * (i % 7), 0.41 - 0.01 * (i % 5), 1.25 + 0.01 * (i % 3)] for i in range(100)],
        [[-0.49 - 0.01 * (i % 6), 0.38 + 0.01 * (i % 4), 1.31 - 0.01 * (i % 5)] for i in range(100)],
    ],
    "model": "negbin-citation-error",
    "spec": {
        "direction": "second-kind",
        "fixed_dispersion": None,
        "fixed_slope": None,
        "intercept_prior_mean": 0.0,
        "intercept_prior_sd": 0.8,
        "log_dispersion_prior_mean": 0.0,
        "log_dispersion_prior_sd": 1.0,
        "slope_prior_mean": 0.0,
        "slope_prior_sd": 1.0,
    },
}
