"""Adaptive random-walk Metropolis and convergence diagnostics.

The sampler is deliberately small: a joint Gaussian proposal with a
diagonal covariance whose per-coordinate scales are learned from the
warmup draws and whose global step size is tuned toward a target
acceptance rate.  Adaptation stops when warmup ends, so the kept draws
come from a fixed-kernel chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["ChainResult", "run_chain", "split_rhat", "effective_sample_size"]


@dataclass(frozen=True)
class ChainResult:
    """Kept draws of every chain plus their post-warmup acceptance rates."""

    draws: np.ndarray  # (chains, keep, dim)
    acceptance_rates: np.ndarray  # (chains,)


def run_chain(
    log_density: Callable[[np.ndarray], np.ndarray],
    initial: np.ndarray,
    *,
    warmup: int,
    keep: int,
    rngs: Sequence[np.random.Generator],
    target_acceptance: float = 0.3,
    initial_scale: float = 0.1,
) -> ChainResult:
    """Run independent adaptive Metropolis chains in lockstep.

    ``initial`` has shape (chains, dim), one row per chain, and
    ``log_density`` maps a (chains, dim) array of states to a (chains,)
    array of log densities, so each step costs one call for all chains.
    Chain ``c`` draws only from ``rngs[c]``, a proposal
    (``standard_normal(dim)``) and then a uniform per step, so its draws
    do not depend on how many chains run beside it.  A single chain is
    the one-row case.

    During warmup each chain's global proposal scale follows a
    Robbins-Monro recursion on the acceptance probability and its
    per-coordinate scales track its running standard deviation.  Both
    are frozen afterwards; only post-warmup draws are returned.  A
    proposal with a non-finite log density is rejected with acceptance
    probability zero.
    """
    x = np.array(initial, dtype=np.float64, ndmin=2)
    chains, dim = x.shape
    if len(rngs) != chains:
        raise ValueError(f"need one generator per chain: {len(rngs)} for {chains}")
    lp = np.asarray(log_density(x), dtype=np.float64)
    if not np.isfinite(lp).all():
        raise ValueError("initial state has non-finite log density")

    log_scale = np.full(chains, np.log(initial_scale * 2.38 / np.sqrt(dim)))
    # Welford accumulators for the warmup sample variance.
    mean = x.copy()
    m2 = np.zeros((chains, dim))
    count = 1
    coord_sd = np.ones((chains, dim))

    draws = np.empty((chains, keep, dim))
    accepted = np.zeros(chains, dtype=np.int64)
    noise = np.empty((chains, dim))
    uniform = np.empty(chains)

    step_sd = np.exp(log_scale)[:, None] * coord_sd
    for step in range(warmup + keep):
        adapting = step < warmup
        for c, rng in enumerate(rngs):
            rng.standard_normal(out=noise[c])
        proposal = x + step_sd * noise
        lp_prop = np.asarray(log_density(proposal), dtype=np.float64)
        log_alpha = np.minimum(lp_prop - lp, 0.0)
        accept_prob = np.where(np.isfinite(lp_prop), np.exp(log_alpha), 0.0)
        for c, rng in enumerate(rngs):
            uniform[c] = rng.random()
        move = uniform < accept_prob
        x = np.where(move[:, None], proposal, x)
        lp = np.where(move, lp_prop, lp)

        if adapting:
            gamma = (step + 1) ** -0.6
            log_scale += gamma * (accept_prob - target_acceptance)
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
            if count > 10:
                coord_sd = np.sqrt(m2 / (count - 1) + 1e-12)
            step_sd = np.exp(log_scale)[:, None] * coord_sd
        else:
            accepted += move
            draws[:, step - warmup] = x

    return ChainResult(draws=draws, acceptance_rates=accepted / keep)


def split_rhat(chains: np.ndarray) -> float:
    """Split potential scale reduction factor for one scalar quantity.

    ``chains`` has shape (m, n): m chains of n draws each.  Each chain is
    split in half, giving 2m sequences; the statistic compares
    between-sequence and within-sequence variance.  Returns inf when the
    within variance is zero but the sequence means differ, and 1.0 for
    completely constant input.
    """
    chains = np.asarray(chains, dtype=np.float64)
    if chains.ndim != 2:
        raise ValueError("chains must be 2-d (chains, draws)")
    m, n = chains.shape
    if n < 4:
        raise ValueError("need at least 4 draws per chain to split")
    half = n // 2
    split = np.concatenate([chains[:, :half], chains[:, half : 2 * half]], axis=0)
    within = split.var(axis=1, ddof=1).mean()
    between = half * split.mean(axis=1).var(ddof=1)
    if within == 0.0:
        return 1.0 if between == 0.0 else float("inf")
    var_hat = (half - 1) / half * within + between / half
    return float(np.sqrt(var_hat / within))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of a 1-d series via FFT, all lags."""
    n = x.size
    centered = x - x.mean()
    size = int(2 ** np.ceil(np.log2(2 * n)))
    fft = np.fft.rfft(centered, size)
    acov = np.fft.irfft(fft * np.conj(fft), size)[:n].real
    return acov / n


def effective_sample_size(chains: np.ndarray) -> float:
    """Effective sample size from combined-chain autocorrelations.

    Uses the multi-chain estimator with Geyer's initial monotone positive
    sequence truncation.  Returns m*n (no correction) for a series with
    zero variance.
    """
    chains = np.asarray(chains, dtype=np.float64)
    if chains.ndim == 1:
        chains = chains[None, :]
    m, n = chains.shape
    total = m * n
    chain_var = chains.var(axis=1, ddof=1)
    within = chain_var.mean()
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus == 0.0:
        return float(total)

    acov = np.stack([_autocovariance(chains[i]) for i in range(m)])
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer: accumulate even/odd lag pairs while the pair sums stay
    # positive, forcing them non-increasing.
    tau = -1.0
    prev_pair = np.inf
    t = 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        pair = min(pair, prev_pair)
        tau += 2.0 * pair
        prev_pair = pair
        t += 2
    if tau <= 0.0:
        return float(total)
    ess = total / tau
    return float(min(ess, total))
