"""Sampler building blocks: mode search, independence chain, R-hat, ESS."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bibuq.datamodel import ValidationError
from bibuq.mcmc import (
    PROPOSAL_DF,
    PROPOSAL_SCALE,
    effective_sample_size,
    find_mode,
    run_chain,
    split_rhat,
)


def standard_normal_logpdf(z: np.ndarray) -> np.ndarray:
    return -0.5 * np.sum(z * z, axis=1)


def _step_by_step_chain(log_density, mode, scale_tril, warmup, keep, rng):
    """Oracle: one independence chain, one proposal and one test per step.

    The proposal log density is the multivariate t's own formula, through
    a linear solve, not the sampler's shortcut.
    """
    dim = mode.size
    steps = warmup + keep
    normal = rng.standard_normal((steps, dim))
    chi2 = rng.chisquare(PROPOSAL_DF, steps)
    uniform = rng.random(steps)
    tril = PROPOSAL_SCALE * scale_tril
    cov = tril @ tril.T

    def weight(y):
        lp = float(log_density(y[None, :])[0])
        if not math.isfinite(lp):
            return -math.inf
        d = y - mode
        quad = float(d @ np.linalg.solve(cov, d))
        return lp + 0.5 * (PROPOSAL_DF + dim) * math.log1p(quad / PROPOSAL_DF)

    x, w_x = mode, weight(mode)
    draws, accepted = [], 0
    for t in range(steps):
        y = mode + tril @ (normal[t] * math.sqrt(PROPOSAL_DF / chi2[t]))
        w_y = weight(y)
        move = uniform[t] < math.exp(min(w_y - w_x, 0.0))
        if move:
            x, w_x = y, w_y
        if t >= warmup:
            draws.append(x)
            accepted += move
    return np.array(draws), accepted / keep


class TestRunChain:
    def test_recovers_standard_normal(self):
        # The scale need not be the target's: the proposal is only too narrow here.
        result = run_chain(
            standard_normal_logpdf,
            np.zeros(2),
            0.6 * np.eye(2),
            warmup=1000,
            keep=8000,
            rngs=[np.random.default_rng(1)],
        )
        assert result.draws.shape == (1, 8000, 2)
        assert np.abs(result.draws[0].mean(axis=0)).max() < 0.1
        assert np.abs(result.draws[0].std(axis=0) - 1.0).max() < 0.1
        assert 0.5 < result.acceptance_rates[0] < 1.0

    def test_respects_skewed_target(self):
        # Exponential(1) restricted to z > 0 via log-density; mean and sd ~1.
        def log_exp(z: np.ndarray) -> np.ndarray:
            return np.where(z[:, 0] > 0, -z[:, 0], -math.inf)

        result = run_chain(
            log_exp,
            np.ones(1),
            np.ones((1, 1)),
            warmup=1000,
            keep=10000,
            rngs=[np.random.default_rng(3)],
        )
        assert result.draws.min() > 0.0
        assert result.draws.mean() == pytest.approx(1.0, abs=0.08)
        assert result.draws.std() == pytest.approx(1.0, abs=0.1)

    def test_matches_step_by_step_reference(self):
        precision = np.array([[2.0, 0.9], [0.9, 1.0]])
        mean = np.array([0.3, -1.2])

        def log_gauss(z: np.ndarray) -> np.ndarray:
            d = z - mean
            return -0.5 * np.einsum("ni,ij,nj->n", d, precision, d)

        mode = np.array([0.25, -1.1])
        tril = np.array([[0.8, 0.0], [-0.7, 1.1]])
        result = run_chain(
            log_gauss, mode, tril, warmup=150, keep=250, rngs=[np.random.default_rng(12)]
        )
        draws, rate = _step_by_step_chain(
            log_gauss, mode, tril, 150, 250, np.random.default_rng(12)
        )
        np.testing.assert_allclose(result.draws[0], draws, rtol=1e-12, atol=1e-12)
        assert result.acceptance_rates[0] == rate

    def test_deterministic_given_rng_state(self):
        a, b = (
            run_chain(
                standard_normal_logpdf,
                np.zeros(2),
                np.eye(2),
                warmup=200,
                keep=200,
                rngs=[np.random.default_rng(9)],
            )
            for _ in range(2)
        )
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.acceptance_rates, b.acceptance_rates)

    def test_chains_draw_only_from_their_own_stream(self):
        seeds = (4, 5, 6)
        together = run_chain(
            standard_normal_logpdf,
            np.zeros(2),
            np.eye(2),
            warmup=300,
            keep=300,
            rngs=[np.random.default_rng(s) for s in seeds],
        )
        assert together.draws.shape == (3, 300, 2)
        for c, seed in enumerate(seeds):
            alone = run_chain(
                standard_normal_logpdf,
                np.zeros(2),
                np.eye(2),
                warmup=300,
                keep=300,
                rngs=[np.random.default_rng(seed)],
            )
            assert np.array_equal(together.draws[c], alone.draws[0])
            assert together.acceptance_rates[c] == alone.acceptance_rates[0]

    def test_one_generator_per_chain_required(self):
        with pytest.raises(ValueError):
            run_chain(standard_normal_logpdf, np.zeros(2), np.eye(2), warmup=100, keep=100, rngs=[])

    def test_never_accepts_nan_or_minus_infinity(self):
        # NaN above 0.5 and -inf below -0.5 on the first coordinate,
        # +inf above 2.5 on the second.
        def holed_normal(z: np.ndarray) -> np.ndarray:
            out = standard_normal_logpdf(z)
            out = np.where(z[:, 0] > 0.5, np.nan, out)
            out = np.where(z[:, 1] > 2.5, np.inf, out)
            return np.where(z[:, 0] < -0.5, -np.inf, out)

        result = run_chain(
            holed_normal,
            np.zeros(2),
            np.eye(2),
            warmup=500,
            keep=2000,
            rngs=[np.random.default_rng(0)],
        )
        assert np.isfinite(result.draws).all()
        assert np.abs(result.draws[0, :, 0]).max() <= 0.5
        assert result.draws[0, :, 1].max() <= 2.5
        assert 0.1 < result.acceptance_rates[0] < 0.6
        assert np.abs(result.draws[0, :, 1].std() - 1.0) < 0.1

    def test_mode_with_non_finite_density_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_chain(
                lambda z: np.full(len(z), np.nan),
                np.zeros(1),
                np.eye(1),
                warmup=100,
                keep=100,
                rngs=[np.random.default_rng(0)],
            )


class TestFindMode:
    def test_correlated_gaussian(self):
        precision = np.array([[4.0, 1.5, 0.2], [1.5, 2.0, -0.3], [0.2, -0.3, 1.0]])
        mean = np.array([1.0, -2.0, 0.5])

        def log_gauss(z: np.ndarray) -> np.ndarray:
            d = z - mean
            return -0.5 * np.einsum("ni,ij,nj->n", d, precision, d)

        mode, tril = find_mode(log_gauss, np.zeros(3))
        np.testing.assert_allclose(mode, mean, atol=1e-6)
        assert np.array_equal(tril, np.tril(tril))
        np.testing.assert_allclose(tril @ tril.T, np.linalg.inv(precision), atol=1e-5)

    def test_climbs_out_of_a_non_concave_start(self):
        # Each coordinate is a Cauchy log density, concave only within 1
        # of its centre; the start is outside on both.
        centre = np.array([0.5, -1.0])

        def log_cauchy(z: np.ndarray) -> np.ndarray:
            return -np.log1p((z - centre) ** 2).sum(axis=1)

        start = np.array([4.0, 3.0])
        u = start - centre
        assert (2.0 * (u * u - 1.0) / (1.0 + u * u) ** 2 > 0).all()  # convex there
        mode, tril = find_mode(log_cauchy, start)
        np.testing.assert_allclose(mode, centre, atol=1e-6)
        np.testing.assert_allclose(tril, math.sqrt(0.5) * np.eye(2), atol=1e-5)

    def test_backtracks_from_an_overshooting_step(self):
        # -sqrt(1 + z^2) is concave everywhere, but from |z| > 1 a Newton
        # step overshoots to a lower point further out (z -> -z^3); only
        # rejecting such steps and damping more reaches the mode.
        def log_pseudo_huber(z: np.ndarray) -> np.ndarray:
            return -np.sqrt(1.0 + z[:, 0] ** 2)

        mode, tril = find_mode(log_pseudo_huber, np.array([3.0]))
        np.testing.assert_allclose(mode, [0.0], atol=1e-6)
        np.testing.assert_allclose(tril, [[1.0]], atol=1e-5)

    @pytest.mark.parametrize(
        "log_density",
        [
            lambda z: z.sum(axis=1),  # rises forever
            lambda z: (z * z).sum(axis=1),  # convex: a minimum, no maximum
            lambda z: np.zeros(len(z)),  # flat
        ],
    )
    def test_no_maximum_raises(self, log_density):
        with pytest.raises(ValidationError, match="mode search"):
            find_mode(log_density, np.array([0.3, -0.2]))

    def test_non_finite_start_raises(self):
        with pytest.raises(ValidationError, match="not finite"):
            find_mode(lambda z: np.where(z[:, 0] > 0, 0.0, -np.inf), np.zeros(1))


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
