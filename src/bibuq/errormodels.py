"""Bayesian error models for citation counts and document types.

Two error mechanisms are modeled.  Omitted citations follow a negative
binomial regression: the expected number of missed citations for a
record grows log-linearly with its citation count, with a free
dispersion.  The model can be fitted in two directions: "second-kind"
conditions on the observed (error-affected) count and supports
correction, "first-kind" conditions on the error-free count and supports
error injection.  Document-type misassignment is a Dirichlet-categorical
model fitted in closed form from a confusion table.

The negative binomial posterior is sampled with the adaptive
random-walk Metropolis kernel from :mod:`bibuq.mcmc`; the Dirichlet
posterior is conjugate and exact.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from .datamodel import (
    CitationErrorSample,
    DocTypeConfusionTable,
    DocType,
    DOCTYPE_ORDER,
    UsageError,
    ValidationError,
    doctype_index,
)
from . import mcmc

__all__ = [
    "SECOND_KIND",
    "FIRST_KIND",
    "NegBinModelSpec",
    "McmcConfig",
    "McmcDiagnostics",
    "NegBinPosterior",
    "DirichletPosterior",
    "PriorPredictiveSummary",
    "negbin_logpmf",
    "negbin_rvs",
    "fit_citation_error_model",
    "fit_doctype_error_model",
    "prior_predictive_check",
    "mcmc_diagnostics",
    "save_posterior",
    "load_posterior",
]

# Modeling directions.  Second-kind errors are visible in the data at
# hand (an observed count is missing citations); first-kind errors turn
# a true count into a corrupted one.
SECOND_KIND = "second-kind"
FIRST_KIND = "first-kind"
_DIRECTIONS = (SECOND_KIND, FIRST_KIND)

RHAT_THRESHOLD = 1.05


@dataclass(frozen=True)
class NegBinModelSpec:
    """Model structure and priors for the omitted-citation regression.

    The linear predictor is ``intercept + slope * log1p(predictor)``
    where the predictor is the observed count (second kind) or the
    error-free count (first kind).  Priors are normal on the intercept,
    the slope, and the log of the dispersion.  ``fixed_slope`` and
    ``fixed_dispersion`` pin a parameter instead of sampling it, which
    is mainly useful for reduced sub-models in validation studies.
    """

    direction: str = SECOND_KIND
    intercept_prior_mean: float = 0.0
    intercept_prior_sd: float = 0.8
    slope_prior_mean: float = 0.0
    slope_prior_sd: float = 1.0
    log_dispersion_prior_mean: float = 0.0
    log_dispersion_prior_sd: float = 1.0
    fixed_slope: float | None = None
    fixed_dispersion: float | None = None

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise UsageError(f"direction must be one of {_DIRECTIONS}, got {self.direction!r}")
        for name in ("intercept_prior_sd", "slope_prior_sd", "log_dispersion_prior_sd"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        if self.fixed_dispersion is not None and self.fixed_dispersion <= 0:
            raise ValidationError("fixed_dispersion must be > 0")


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings: chain count, warmup/kept iterations, seed."""

    chains: int = 4
    warmup: int = 1000
    keep: int = 1000
    seed: int = 0
    target_acceptance: float = 0.3

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise ValidationError("chains must be >= 1")
        if self.warmup < 100 or self.keep < 100:
            raise ValidationError("warmup and keep must each be >= 100")
        if not 0 < self.target_acceptance < 1:
            raise ValidationError("target_acceptance must be in (0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a non-negative 64-bit integer")


@dataclass(frozen=True)
class McmcDiagnostics:
    """Split R-hat and effective sample size per free parameter."""

    rhat: dict[str, float]
    ess: dict[str, float]
    acceptance_rates: tuple[float, ...]
    converged: bool
    rhat_available: bool = True


_PARAM_NAMES = ("intercept", "slope", "dispersion")


@dataclass(frozen=True)
class NegBinPosterior:
    """Posterior draws of the omitted-citation model.

    ``draws`` has shape (chains, kept, 3) with columns intercept, slope,
    dispersion (dispersion on the natural scale, always positive).
    Flattened accessors run chain-major, which also fixes the cycling
    order used by the predictive operations.
    """

    draws: np.ndarray
    spec: NegBinModelSpec = field(default_factory=NegBinModelSpec)
    config: McmcConfig = field(default_factory=McmcConfig)
    acceptance_rates: tuple[float, ...] = ()
    diagnostics: McmcDiagnostics | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.draws, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValidationError("draws must have shape (chains, kept, 3)")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("posterior must contain at least one draw")
        if (arr[:, :, 2] <= 0).any():
            raise ValidationError("all dispersion draws must be > 0")
        object.__setattr__(self, "draws", arr)

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0] * self.draws.shape[1]

    def flat(self) -> np.ndarray:
        """All draws as (n_draws, 3), chain-major order."""
        return self.draws.reshape(-1, 3)

    @property
    def intercept(self) -> np.ndarray:
        return self.flat()[:, 0]

    @property
    def slope(self) -> np.ndarray:
        return self.flat()[:, 1]

    @property
    def dispersion(self) -> np.ndarray:
        return self.flat()[:, 2]


@dataclass(frozen=True)
class DirichletPosterior:
    """Exact posterior of the document-type misassignment model.

    ``concentrations[i, j]`` is the Dirichlet concentration of predicted
    category j conditional on conditioning category i (both in
    DOCTYPE_ORDER).  For the second-kind direction the conditioning
    category is the observed label and the predictions are true labels;
    first kind is the reverse.
    """

    concentrations: np.ndarray
    direction: str = SECOND_KIND
    pseudocount: float = 1.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.concentrations, dtype=np.float64)
        if arr.shape != (4, 4):
            raise ValidationError("concentrations must be 4x4")
        if (arr < 0).any():
            raise ValidationError("concentrations must be >= 0")
        if (arr.sum(axis=1) <= 0).any():
            raise ValidationError("every conditioning row needs a positive total")
        if self.direction not in _DIRECTIONS:
            raise UsageError(f"direction must be one of {_DIRECTIONS}")
        object.__setattr__(self, "concentrations", arr)

    def row(self, conditioning: DocType) -> np.ndarray:
        return self.concentrations[doctype_index(conditioning)]

    def posterior_mean(self, conditioning: DocType) -> np.ndarray:
        """Mean predicted-category probabilities given the conditioning type."""
        row = self.row(conditioning)
        return row / row.sum()


def negbin_logpmf(y: np.ndarray, mu: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """Log pmf of the negative binomial in mean/dispersion form.

    Mean ``mu`` >= 0, dispersion ``theta`` > 0; the variance is
    ``mu + mu**2 / theta``.  Vectorized over all arguments; ``mu == 0``
    yields probability one at zero and -inf elsewhere, ``mu == inf``
    yields -inf everywhere.
    """
    y = np.asarray(y, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(mu / (mu + theta)) tends to 0 as mu grows; at mu == inf the
        # difference of logs would be inf - inf.
        log_total = np.log(mu + theta)
        log_mu_ratio = np.where(mu == np.inf, 0.0, np.log(mu) - log_total)
        out = (
            gammaln(y + theta)
            - gammaln(theta)
            - gammaln(y + 1.0)
            + theta * (np.log(theta) - log_total)
            + np.where(y > 0, y * log_mu_ratio, 0.0)
        )
    return out


def negbin_rvs(
    rng: np.random.Generator, mu: np.ndarray, theta: float | np.ndarray
) -> np.ndarray:
    """Sample the negative binomial as a gamma-Poisson mixture.

    Means are capped at 1e12 so that extreme prior draws cannot push the
    Poisson stage out of its numeric range.
    """
    mu = np.minimum(np.asarray(mu, dtype=np.float64), 1e12)
    lam = rng.gamma(shape=theta, scale=mu / theta)
    return rng.poisson(lam)


def _chain_rng(seed: int, chain: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chain,)))


class _CitationLogPosterior:
    """Log posterior of the omitted-citation model over the audit.

    The sampled coordinates are the intercept at the mean predictor, then
    the slope and the log dispersion unless the spec pins them.  Sampling
    the intercept at ``x_center``, the mean of log1p(predictor) over all
    records, instead of at zero leaves it almost uncorrelated with the
    slope, which a diagonal proposal needs.  This is a pure
    reparameterization; the prior is still evaluated on the actual
    intercept.

    The likelihood is summed over the audit's unique (predictor, omitted)
    pairs, each weighted by how often it occurs, which equals the
    record-by-record sum.
    """

    def __init__(self, sample: CitationErrorSample, spec: NegBinModelSpec) -> None:
        predictor = sample.observed if spec.direction == SECOND_KIND else sample.corrected
        self.spec = spec
        self.x_center = float(np.log1p(predictor.astype(np.float64)).mean())
        pairs, counts = np.unique(
            np.column_stack([predictor, sample.omitted]), axis=0, return_counts=True
        )
        self.x_centered = np.log1p(pairs[:, 0].astype(np.float64)) - self.x_center
        self.y = pairs[:, 1].astype(np.float64)
        self.counts = counts.astype(np.float64)
        # Normal priors on the free parameters: the actual intercept, then
        # the slope and the log dispersion unless they are pinned.
        means = [spec.intercept_prior_mean]
        sds = [spec.intercept_prior_sd]
        if spec.fixed_slope is None:
            means.append(spec.slope_prior_mean)
            sds.append(spec.slope_prior_sd)
        if spec.fixed_dispersion is None:
            means.append(spec.log_dispersion_prior_mean)
            sds.append(spec.log_dispersion_prior_sd)
        self.prior_mean = np.array(means)
        self.prior_sd = np.array(sds)
        self.dim = len(means)

    def unpack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Intercept, slope and log dispersion of states ``z`` (..., dim)."""
        spec = self.spec
        pos = 1
        if spec.fixed_slope is None:
            b1 = z[..., pos]
            pos += 1
        else:
            b1 = np.full(z.shape[:-1], spec.fixed_slope)
        if spec.fixed_dispersion is None:
            log_theta = z[..., pos]
        else:
            log_theta = np.full(z.shape[:-1], np.log(spec.fixed_dispersion))
        return z[..., 0] - b1 * self.x_center, b1, log_theta

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Log posterior, up to a constant, of each row of ``z`` (chains, dim)."""
        b0, b1, log_theta = self.unpack(z)
        with np.errstate(over="ignore"):
            mu = np.exp(z[:, 0, None] + b1[:, None] * self.x_centered)
        ll = (negbin_logpmf(self.y, mu, np.exp(log_theta)[:, None]) * self.counts).sum(axis=1)
        free = z.copy()
        free[:, 0] = b0
        lp = (-0.5 * ((free - self.prior_mean) / self.prior_sd) ** 2).sum(axis=1)
        return ll + lp


def fit_citation_error_model(
    sample: CitationErrorSample,
    spec: NegBinModelSpec | None = None,
    config: McmcConfig | None = None,
) -> NegBinPosterior:
    """Fit the omitted-citation regression by MCMC.

    The predictor column follows ``spec.direction``: observed counts for
    the second kind, corrected (observed + omitted) counts for the first
    kind.  Runs ``config.chains`` independent adaptive Metropolis chains,
    stepped together, with per-chain substreams of ``config.seed``;
    results are bit-identical for identical inputs.  A posterior whose
    split R-hat exceeds 1.05 on any free parameter is returned with
    ``diagnostics.converged`` False and triggers a RuntimeWarning.
    """
    spec = spec or NegBinModelSpec()
    config = config or McmcConfig()
    log_post = _CitationLogPosterior(sample, spec)

    rngs = [_chain_rng(config.seed, chain) for chain in range(config.chains)]
    z0 = 0.1 * np.stack([rng.standard_normal(log_post.dim) for rng in rngs])
    z0[:, 0] += spec.intercept_prior_mean + (spec.fixed_slope or 0.0) * log_post.x_center
    result = mcmc.run_chain(
        log_post,
        z0,
        warmup=config.warmup,
        keep=config.keep,
        rngs=rngs,
        target_acceptance=config.target_acceptance,
    )

    # Expand the sampled coordinates into the full (intercept, slope,
    # dispersion) layout, undoing the centering and filling pinned
    # parameters with their values.
    intercept, slope, log_theta = log_post.unpack(result.draws)
    full = np.empty((config.chains, config.keep, 3))
    full[:, :, 0] = intercept
    full[:, :, 1] = slope
    full[:, :, 2] = np.exp(log_theta) if spec.fixed_dispersion is None else spec.fixed_dispersion
    acceptance = tuple(float(rate) for rate in result.acceptance_rates)

    posterior = NegBinPosterior(
        draws=full,
        spec=spec,
        config=config,
        acceptance_rates=acceptance,
    )
    diag = mcmc_diagnostics(posterior)
    if not diag.converged:
        warnings.warn(
            f"citation error model did not converge: max split R-hat "
            f"{max(diag.rhat.values()):.3f} > {RHAT_THRESHOLD}",
            RuntimeWarning,
            stacklevel=2,
        )
    return NegBinPosterior(
        draws=full,
        spec=spec,
        config=config,
        acceptance_rates=acceptance,
        diagnostics=diag,
    )


def mcmc_diagnostics(posterior: NegBinPosterior) -> McmcDiagnostics:
    """Compute split R-hat and ESS per free parameter of a posterior.

    Dispersion is diagnosed on the log scale (the sampled coordinate).
    R-hat needs at least two chains; with a single chain it is reported
    as unavailable and convergence is judged vacuously true.
    """
    spec = posterior.spec
    series: dict[str, np.ndarray] = {"intercept": posterior.draws[:, :, 0]}
    if spec.fixed_slope is None:
        series["slope"] = posterior.draws[:, :, 1]
    if spec.fixed_dispersion is None:
        series["log_dispersion"] = np.log(posterior.draws[:, :, 2])

    available = posterior.n_chains >= 2
    rhat = {}
    ess = {}
    for name, chains in series.items():
        rhat[name] = mcmc.split_rhat(chains) if available else float("nan")
        ess[name] = mcmc.effective_sample_size(chains)
    converged = all(r < RHAT_THRESHOLD for r in rhat.values()) if available else True
    return McmcDiagnostics(
        rhat=rhat,
        ess=ess,
        acceptance_rates=tuple(posterior.acceptance_rates),
        converged=converged,
        rhat_available=available,
    )


def fit_doctype_error_model(
    table: DocTypeConfusionTable,
    prior_pseudocount: float = 1.0,
    direction: str = SECOND_KIND,
) -> DirichletPosterior:
    """Closed-form Dirichlet posterior from a confusion table.

    With a symmetric Dirichlet(pseudocount) prior per conditioning
    category, the posterior concentration is simply counts plus
    pseudocount.  Second kind conditions on the observed label and
    predicts the true one; first kind conditions on the true label.
    Raises ValidationError if a conditioning row would end up with zero
    total (all-zero counts and zero pseudocount).
    """
    if direction not in _DIRECTIONS:
        raise UsageError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    if prior_pseudocount < 0:
        raise ValidationError("prior_pseudocount must be >= 0")
    data = table.counts.T if direction == SECOND_KIND else table.counts
    conc = data.astype(np.float64) + prior_pseudocount
    zero_rows = np.flatnonzero(conc.sum(axis=1) == 0)
    if zero_rows.size:
        labels = [DOCTYPE_ORDER[i].value for i in zero_rows]
        raise ValidationError(
            f"conditioning rows {labels} have zero total; supply a positive pseudocount"
        )
    return DirichletPosterior(
        concentrations=conc, direction=direction, pseudocount=prior_pseudocount
    )


@dataclass(frozen=True)
class PriorPredictiveSummary:
    """What the priors alone imply about omitted-citation counts.

    ``intercept_scale_low/high`` bound the central two-sigma band
    (roughly 95% mass) of exp(intercept), the expected omission count
    for an uncited record.  ``count_quantiles`` maps each grid predictor
    value to the (2.5%, 50%, 97.5%) quantiles of simulated counts and
    ``mean_median`` to the median of the model mean.
    """

    intercept_scale_low: float
    intercept_scale_high: float
    intercept_scale_median: float
    grid: tuple[float, ...]
    count_quantiles: dict[float, tuple[float, float, float]]
    mean_median: dict[float, float]
    n_draws: int


def prior_predictive_check(
    spec: NegBinModelSpec | None = None,
    config: McmcConfig | None = None,
    grid: tuple[float, ...] = (0.0, 1.0, 2.0, 5.0, 10.0, 16.0, 25.0, 50.0, 100.0),
    n_draws: int = 20000,
) -> PriorPredictiveSummary:
    """Simulate omitted-citation counts from the priors.

    The intercept scale band is computed analytically from the normal
    prior (mean +/- 2 sd on the log scale); the per-predictor count
    quantiles are Monte Carlo with ``n_draws`` draws seeded from
    ``config.seed``.
    """
    spec = spec or NegBinModelSpec()
    config = config or McmcConfig()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(999,)))

    b0 = rng.normal(spec.intercept_prior_mean, spec.intercept_prior_sd, size=n_draws)
    if spec.fixed_slope is None:
        b1 = rng.normal(spec.slope_prior_mean, spec.slope_prior_sd, size=n_draws)
    else:
        b1 = np.full(n_draws, spec.fixed_slope)
    if spec.fixed_dispersion is None:
        theta = np.exp(
            rng.normal(spec.log_dispersion_prior_mean, spec.log_dispersion_prior_sd, size=n_draws)
        )
    else:
        theta = np.full(n_draws, spec.fixed_dispersion)

    count_quantiles = {}
    mean_median = {}
    for c in grid:
        with np.errstate(over="ignore"):
            mu = np.minimum(np.exp(b0 + b1 * np.log1p(c)), 1e12)
        counts = negbin_rvs(rng, mu, theta)
        q = np.quantile(counts, [0.025, 0.5, 0.975])
        count_quantiles[float(c)] = (float(q[0]), float(q[1]), float(q[2]))
        mean_median[float(c)] = float(np.median(mu))

    return PriorPredictiveSummary(
        intercept_scale_low=float(
            np.exp(spec.intercept_prior_mean - 2.0 * spec.intercept_prior_sd)
        ),
        intercept_scale_high=float(
            np.exp(spec.intercept_prior_mean + 2.0 * spec.intercept_prior_sd)
        ),
        intercept_scale_median=float(np.exp(spec.intercept_prior_mean)),
        grid=tuple(float(c) for c in grid),
        count_quantiles=count_quantiles,
        mean_median=mean_median,
        n_draws=n_draws,
    )


# ---------------------------------------------------------------------------
# Posterior serialization
# ---------------------------------------------------------------------------

_NEGBIN_TAG = "negbin-citation-error"
_DIRICHLET_TAG = "dirichlet-doctype-error"


def save_posterior(posterior: NegBinPosterior | DirichletPosterior, path: str | Path) -> None:
    """Write a posterior to JSON.  Reruns produce byte-identical files."""
    path = Path(path)
    if isinstance(posterior, NegBinPosterior):
        payload = {
            "model": _NEGBIN_TAG,
            "spec": asdict(posterior.spec),
            "config": asdict(posterior.config),
            "draws": posterior.draws.tolist(),
            "acceptance_rates": list(posterior.acceptance_rates),
            "diagnostics": asdict(posterior.diagnostics) if posterior.diagnostics else None,
        }
    elif isinstance(posterior, DirichletPosterior):
        payload = {
            "model": _DIRICHLET_TAG,
            "direction": posterior.direction,
            "pseudocount": posterior.pseudocount,
            "categories": [dt.value for dt in DOCTYPE_ORDER],
            "concentrations": posterior.concentrations.tolist(),
        }
    else:
        raise UsageError(f"cannot serialize {type(posterior).__name__}")
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def load_posterior(path: str | Path) -> NegBinPosterior | DirichletPosterior:
    """Read back a posterior written by :func:`save_posterior`."""
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        payload = json.load(handle)
    tag = payload.get("model")
    if tag == _NEGBIN_TAG:
        diag = payload.get("diagnostics")
        return NegBinPosterior(
            draws=np.array(payload["draws"], dtype=np.float64),
            spec=NegBinModelSpec(**payload["spec"]),
            config=McmcConfig(**payload["config"]),
            acceptance_rates=tuple(payload["acceptance_rates"]),
            diagnostics=McmcDiagnostics(
                rhat=diag["rhat"],
                ess=diag["ess"],
                acceptance_rates=tuple(diag["acceptance_rates"]),
                converged=diag["converged"],
                rhat_available=diag["rhat_available"],
            )
            if diag
            else None,
        )
    if tag == _DIRICHLET_TAG:
        return DirichletPosterior(
            concentrations=np.array(payload["concentrations"], dtype=np.float64),
            direction=payload["direction"],
            pseudocount=payload["pseudocount"],
        )
    raise ValidationError(f"{path}: unknown posterior payload (model={tag!r})")
