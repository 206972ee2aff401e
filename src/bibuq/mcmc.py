"""Posterior mode search, an independence sampler around it, diagnostics.

:func:`find_mode` climbs a log density to its maximum by a damped Newton
(Levenberg-Marquardt) search on finite-difference derivatives.  It
returns the mode and the Cholesky factor of the inverse negative Hessian
there, the Laplace approximation of the posterior.  :func:`run_chain`
then samples the posterior with independence Metropolis-Hastings: every
proposal is a multivariate t with ``PROPOSAL_DF`` degrees of freedom,
centred at the mode, with scale ``PROPOSAL_SCALE`` times that factor.
When the proposal's tails dominate the target's, as the t's do for a
log-concave posterior, the chain is uniformly ergodic (Mengersen &
Tweedie 1996).  The proposals do not depend on the chain's state, so a
chain draws all of them at once and they are scored in a few batched
log-density calls; only the accept/reject scan runs step by step.  The
acceptance rate says how close the t is to the posterior: it would be 1
for an exact match.  Nothing adapts, so there is nothing to tune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .datamodel import ValidationError

__all__ = [
    "PROPOSAL_DF",
    "PROPOSAL_SCALE",
    "ChainResult",
    "find_mode",
    "run_chain",
    "split_rhat",
    "effective_sample_size",
]

# The proposal: a multivariate t with these degrees of freedom, whose
# scale is this factor times the Laplace approximation's Cholesky factor.
PROPOSAL_DF = 5.0
PROPOSAL_SCALE = 1.2
# Proposals per log-density call.
_CHUNK = 256
# Central-difference step of the mode search.
_FD_STEP = 1e-4
# The mode search stops once the Newton decrement g' (-H)^-1 g, twice
# the log density a full Newton step would still gain, is below this,
# and gives up after this many iterates.
_MODE_TOL = 1e-8
_MODE_ITERS = 200


@dataclass(frozen=True)
class ChainResult:
    """Kept draws of every chain plus their post-warmup acceptance rates."""

    draws: np.ndarray  # (chains, keep, dim)
    acceptance_rates: np.ndarray  # (chains,)


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of symmetric ``a``; None unless it is positive definite.

    A few lines for the handful of parameters sampled here, instead of
    ``numpy.linalg``, whose first use maps its own libraries.
    """
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        if not pivot > 0.0:
            return None
        low[j, j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            low[i, j] = (a[i, j] - low[i, :j] @ low[j, :j]) / low[j, j]
    return low


def _cho_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (low low') x = b by forward and back substitution."""
    n = b.size
    y = np.empty(n)
    for i in range(n):
        y[i] = (b[i] - low[i, :i] @ y[:i]) / low[i, i]
    x = np.empty(n)
    for i in reversed(range(n)):
        x[i] = (y[i] - low[i + 1 :, i] @ x[i + 1 :]) / low[i, i]
    return x


def _stencil(dim: int) -> np.ndarray:
    """Offsets of the central differences: 0, +-h e_i, then h (+-e_i +-e_j) for i < j."""
    step = _FD_STEP * np.eye(dim)
    rows = [np.zeros(dim), *step, *-step]
    for i in range(dim):
        for j in range(i + 1, dim):
            rows += [step[i] + step[j], step[i] - step[j], step[j] - step[i], -step[i] - step[j]]
    return np.array(rows)


def _derivatives(
    log_density: Callable[[np.ndarray], np.ndarray], x: np.ndarray, stencil: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log density, gradient and Hessian at ``x``, from one call on the stencil."""
    dim = x.size
    f = np.asarray(log_density(x + stencil), dtype=np.float64)
    up, down = f[1 : dim + 1], f[dim + 1 : 2 * dim + 1]
    h = _FD_STEP
    # Infinite values make NaN derivatives, which the caller checks for.
    with np.errstate(invalid="ignore"):
        grad = (up - down) / (2.0 * h)
        hess = np.diag((up - 2.0 * f[0] + down) / (h * h))
        k = 2 * dim + 1
        for i in range(dim):
            for j in range(i + 1, dim):
                pp, pm, mp, mm = f[k : k + 4]
                hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
                k += 4
    return float(f[0]), grad, hess


def find_mode(
    log_density: Callable[[np.ndarray], np.ndarray], start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The maximum of ``log_density`` and its Laplace scale factor.

    ``log_density`` maps an (n, dim) array of points to n values.  From
    ``start`` a Levenberg-Marquardt search takes the step solving
    (-H + mu I) s = g, with the gradient g and Hessian H by central
    differences (one log-density call per iterate).  A step that does not
    raise the log density is retried with ten times the damping mu; one
    that does is taken, and mu shrinks tenfold.  The damping also makes
    the step an ascent direction where the density is not concave, where
    a plain Newton step can stall.  The search ends at a point whose
    Hessian is negative definite and whose Newton decrement is below
    ``_MODE_TOL``, that is within about 1e-4 posterior standard
    deviations of the mode.  Returns that point moved by its (undamped)
    Newton step, and the lower Cholesky factor of (-H)^-1 there.  Uses
    no random numbers.

    Raises ValidationError when the log density or its derivatives are
    not finite at ``start``, or when no such point is reached within
    ``_MODE_ITERS`` iterates (a density with no maximum).
    """
    x = np.array(start, dtype=np.float64).ravel()
    stencil = _stencil(x.size)
    f, grad, hess = _derivatives(log_density, x, stencil)
    if not (np.isfinite(f) and np.isfinite(grad).all() and np.isfinite(hess).all()):
        raise ValidationError("mode search: the log density is not finite around its start")
    identity = np.eye(x.size)
    damping = 1e-3 * max(1.0, float(np.abs(np.diag(hess)).max()))
    for _ in range(_MODE_ITERS):
        factor = _cholesky(-hess)
        if factor is not None:
            newton = _cho_solve(factor, grad)
            if grad @ newton < _MODE_TOL:
                cov = np.column_stack([_cho_solve(factor, e) for e in identity])
                scale_tril = _cholesky(0.5 * (cov + cov.T))
                if scale_tril is not None:
                    return x + newton, scale_tril
        damped = _cholesky(-hess + damping * identity)
        while damped is None:
            damping *= 10.0
            damped = _cholesky(-hess + damping * identity)
        trial = x + _cho_solve(damped, grad)
        f_trial, grad_trial, hess_trial = _derivatives(log_density, trial, stencil)
        if f_trial > f and np.isfinite(grad_trial).all() and np.isfinite(hess_trial).all():
            x, f, grad, hess = trial, f_trial, grad_trial, hess_trial
            damping /= 10.0
        else:
            damping *= 10.0
    raise ValidationError(
        f"mode search: no maximum with a negative definite Hessian in {_MODE_ITERS} iterates"
    )


def run_chain(
    log_density: Callable[[np.ndarray], np.ndarray],
    mode: np.ndarray,
    scale_tril: np.ndarray,
    *,
    warmup: int,
    keep: int,
    rngs: Sequence[np.random.Generator],
) -> ChainResult:
    """Run one independence Metropolis-Hastings chain per generator.

    Every chain starts at ``mode`` and proposes from the multivariate t
    with ``PROPOSAL_DF`` degrees of freedom, location ``mode`` and scale
    ``PROPOSAL_SCALE * scale_tril`` (a lower-triangular factor, as
    :func:`find_mode` returns).  Chain ``c`` draws only from
    ``rngs[c]``: the standard normals of all its ``warmup + keep``
    proposals, then their chi-square variates, then one uniform per
    step.  The proposals are transformed row by row, so a chain's draws
    do not depend on how many chains run beside it.

    ``log_density`` maps an (n, dim) array of states to n log densities,
    each row scored on its own; a chain's proposals are scored in calls
    of ``_CHUNK`` rows.  A proposal y is accepted from state x when
    log u < w(y) - w(x), with w the log density less the log proposal
    density; a proposal whose log density is not finite never is.  The
    first ``warmup`` states are discarded, and the acceptance rates
    count the kept steps.
    """
    mode = np.array(mode, dtype=np.float64).ravel()
    dim = mode.size
    if not rngs:
        raise ValueError("need at least one generator")
    tril = PROPOSAL_SCALE * np.asarray(scale_tril, dtype=np.float64)
    # The mode's proposal log density is 0 on the scale of log_q below.
    weight_mode = float(log_density(mode[None, :])[0])
    if not math.isfinite(weight_mode):
        raise ValueError("the mode has a non-finite log density")

    steps = warmup + keep
    draws = np.empty((len(rngs), keep, dim))
    acceptance = np.empty(len(rngs))
    for c, rng in enumerate(rngs):
        normal = rng.standard_normal((steps, dim))
        chi2 = rng.chisquare(PROPOSAL_DF, steps)
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.random(steps))
        # normal * sqrt(df / chi2) is standard t; its log density is, up
        # to a constant, -(df + dim) / 2 * log1p(normal'normal / chi2).
        std_t = normal * np.sqrt(PROPOSAL_DF / chi2)[:, None]
        proposals = mode + (tril * std_t[:, None, :]).sum(axis=2)
        log_q = -0.5 * (PROPOSAL_DF + dim) * np.log1p((normal * normal).sum(axis=1) / chi2)
        log_p = np.concatenate(
            [
                np.asarray(log_density(proposals[k : k + _CHUNK]), dtype=np.float64)
                for k in range(0, steps, _CHUNK)
            ]
        )
        weight = np.where(np.isfinite(log_p), log_p - log_q, -np.inf)

        # State per step: -1 is the mode, t the proposal of step t.
        path = []
        current, w_current = -1, weight_mode
        for step, (w, lu) in enumerate(zip(weight.tolist(), log_u.tolist())):
            if lu < w - w_current:
                current, w_current = step, w
            path.append(current)
        kept = np.array(path[warmup:], dtype=np.intp)
        draws[c] = np.where((kept < 0)[:, None], mode, proposals[kept])
        acceptance[c] = float((kept == np.arange(warmup, steps)).mean())
    return ChainResult(draws=draws, acceptance_rates=acceptance)


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
    zero variance or fewer than 2 draws per chain.
    """
    chains = np.asarray(chains, dtype=np.float64)
    if chains.ndim == 1:
        chains = chains[None, :]
    m, n = chains.shape
    total = m * n
    if n < 2:
        return float(total)
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
