"""Sampler building blocks: adaptive random-walk chain, R-hat, ESS."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bibuq.mcmc import effective_sample_size, run_chain, split_rhat


def standard_normal_logpdf(z: np.ndarray) -> np.ndarray:
    return -0.5 * np.sum(z * z, axis=1)


class TestRunChain:
    def test_recovers_standard_normal(self):
        result = run_chain(
            standard_normal_logpdf,
            np.zeros((1, 2)),
            warmup=2000,
            keep=8000,
            rngs=[np.random.default_rng(1)],
        )
        assert result.draws.shape == (1, 8000, 2)
        assert np.abs(result.draws[0].mean(axis=0)).max() < 0.1
        assert np.abs(result.draws[0].std(axis=0) - 1.0).max() < 0.1

    def test_adapts_toward_target_acceptance(self):
        result = run_chain(
            standard_normal_logpdf,
            np.zeros((1, 3)),
            warmup=3000,
            keep=3000,
            rngs=[np.random.default_rng(2)],
            target_acceptance=0.3,
        )
        assert 0.2 < result.acceptance_rates[0] < 0.4

    def test_deterministic_given_rng_state(self):
        a = run_chain(
            standard_normal_logpdf,
            np.zeros((1, 2)),
            warmup=200,
            keep=200,
            rngs=[np.random.default_rng(9)],
        )
        b = run_chain(
            standard_normal_logpdf,
            np.zeros((1, 2)),
            warmup=200,
            keep=200,
            rngs=[np.random.default_rng(9)],
        )
        assert np.array_equal(a.draws, b.draws)

    def test_chains_draw_only_from_their_own_stream(self):
        seeds = (4, 5, 6)
        together = run_chain(
            standard_normal_logpdf,
            np.zeros((3, 2)),
            warmup=300,
            keep=300,
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        for c, seed in enumerate(seeds):
            alone = run_chain(
                standard_normal_logpdf,
                np.zeros((1, 2)),
                warmup=300,
                keep=300,
                rngs=[np.random.default_rng(seed)],
            )
            assert np.array_equal(together.draws[c], alone.draws[0])
            assert together.acceptance_rates[c] == alone.acceptance_rates[0]

    def test_one_generator_per_chain_required(self):
        with pytest.raises(ValueError):
            run_chain(
                standard_normal_logpdf,
                np.zeros((2, 2)),
                warmup=100,
                keep=100,
                rngs=[np.random.default_rng(0)],
            )

    def test_nan_log_density_is_a_rejection(self):
        # One NaN during warmup must not poison the step-size adaptation.
        calls = 0

        def flaky_normal(z: np.ndarray) -> np.ndarray:
            nonlocal calls
            calls += 1
            out = standard_normal_logpdf(z)
            return np.full_like(out, np.nan) if calls == 5 else out

        result = run_chain(
            flaky_normal,
            np.zeros((1, 2)),
            warmup=500,
            keep=500,
            rngs=[np.random.default_rng(0)],
        )
        assert calls == 1 + 500 + 500
        assert result.acceptance_rates[0] > 0.1
        assert np.all(np.isfinite(result.draws))
        assert np.abs(result.draws[0].std(axis=0) - 1.0).max() < 0.35

    def test_respects_skewed_target(self):
        # Exponential(1) restricted to z > 0 via log-density; mean should be ~1.
        def log_exp(z: np.ndarray) -> np.ndarray:
            return np.where(z[:, 0] > 0, -z[:, 0], -math.inf)

        result = run_chain(
            log_exp, np.ones((1, 1)), warmup=2000, keep=10000, rngs=[np.random.default_rng(3)]
        )
        assert result.draws.mean() == pytest.approx(1.0, abs=0.08)


class TestSplitRhat:
    def test_well_mixed_chains_near_one(self):
        rng = np.random.default_rng(0)
        chains = rng.standard_normal((4, 1000))
        assert split_rhat(chains) == pytest.approx(1.0, abs=0.02)

    def test_shifted_chains_flagged(self):
        rng = np.random.default_rng(0)
        chains = rng.standard_normal((4, 1000))
        chains[0] += 3.0
        assert split_rhat(chains) > 1.5

    def test_zero_within_variance_gives_inf(self):
        chains = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]])
        assert split_rhat(chains) == math.inf

    def test_constant_everywhere_is_clean(self):
        chains = np.full((4, 100), 1.3)
        assert split_rhat(chains) == pytest.approx(1.0, abs=1e-12)


class TestEffectiveSampleSize:
    def test_iid_draws_near_total(self):
        rng = np.random.default_rng(5)
        chains = rng.standard_normal((4, 2000))
        ess = effective_sample_size(chains)
        assert ess > 0.75 * 8000

    def test_autocorrelated_draws_shrink(self):
        rng = np.random.default_rng(6)
        n = 4000
        chains = np.empty((2, n))
        for c in range(2):
            z = rng.standard_normal(n)
            x = np.empty(n)
            x[0] = z[0]
            for t in range(1, n):
                x[t] = 0.95 * x[t - 1] + math.sqrt(1 - 0.95**2) * z[t]
            chains[c] = x
        ess = effective_sample_size(chains)
        # AR(1) with phi=0.95 has ESS factor (1-phi)/(1+phi) ~ 0.026
        assert ess < 0.1 * 2 * n

    def test_single_chain_supported(self):
        rng = np.random.default_rng(7)
        ess = effective_sample_size(rng.standard_normal((1, 3000)))
        assert ess > 0.6 * 3000

    def test_never_exceeds_sane_bound(self):
        rng = np.random.default_rng(8)
        chains = rng.standard_normal((4, 500))
        assert effective_sample_size(chains) <= 4 * 500 * 1.5
