"""Bayesian error models for citation counts and document types.

Two error mechanisms are modeled.  Omitted citations follow a negative
binomial regression: the expected number of missed citations for a
record grows log-linearly with its citation count, with a free
dispersion.  The model can be fitted in two directions: "second-kind"
conditions on the observed (error-affected) count and supports
correction, "first-kind" conditions on the error-free count and supports
error injection.  The priors are fixed weakly informative normals
(:data:`PRIORS`): N(0, 0.8) on the intercept, N(0, 1) on the slope and
N(0, 1) on the log dispersion.  Document-type misassignment is a
Dirichlet-categorical model fitted in closed form from a confusion table.

The negative binomial posterior is sampled by independence
Metropolis-Hastings around its mode (:mod:`bibuq.mcmc`); the Dirichlet
posterior is conjugate and exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .datamodel import (
    CitationErrorSample,
    DocTypeConfusionTable,
    DocType,
    DOCTYPE_ORDER,
    UsageError,
    ValidationError,
    doctype_index,
    read_json_object,
    write_json,
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

# Normal priors (mean, sd) of the omitted-citation regression, keyed by
# sampled coordinate; the intercept prior is on the actual intercept.
PRIORS = {"intercept": (0.0, 0.8), "slope": (0.0, 1.0), "log_dispersion": (0.0, 1.0)}
# The priors as posterior files record them in their "spec" block.
_PRIOR_RECORD = {
    f"{name}_prior_{stat}": v for name, p in PRIORS.items() for stat, v in zip(("mean", "sd"), p)
}
# Sampler settings that earlier posterior files record in their "config"
# block; they are read and dropped.
_RETIRED_CONFIG = ("target_acceptance",)


def substream_rng(seed: int, key: int) -> np.random.Generator:
    """The independent random substream ``key`` of ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def checked_integers(values: Mapping[str, object]) -> dict[str, int]:
    """``values``, each a Python or numpy integer, as Python ints.

    A value that is no integer (``is_integer``) raises ValidationError
    naming its label, and so does a ``"seed"`` outside [0, 2**64).
    """
    for label, value in values.items():
        if not is_integer(value):
            raise ValidationError(f"{label} must be an integer, got {value!r}")
    checked = {label: int(value) for label, value in values.items()}
    if not 0 <= checked.get("seed", 0) < 2**64:
        raise ValidationError("seed must be a non-negative 64-bit integer")
    return checked


def is_finite_number(value) -> bool:
    """Whether ``value`` is a finite Python or numpy real; a bool is not one.

    An integer beyond the float range is not finite.
    """
    if not (is_integer(value) or isinstance(value, (float, np.floating))):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class NegBinModelSpec:
    """Model structure of the omitted-citation regression.

    The linear predictor is ``intercept + slope * log1p(predictor)``
    where the predictor is the observed count (second kind) or the
    error-free count (first kind).  The priors are fixed (``PRIORS``):
    N(0, 0.8) on the intercept, N(0, 1) on the slope and N(0, 1) on the
    log of the dispersion.  ``fixed_slope`` and ``fixed_dispersion`` pin
    a parameter instead of sampling it, which is mainly useful for
    reduced sub-models in validation studies.
    """

    direction: str = SECOND_KIND
    fixed_slope: float | None = None
    fixed_dispersion: float | None = None

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise UsageError(f"direction must be one of {_DIRECTIONS}, got {self.direction!r}")
        for name in ("fixed_slope", "fixed_dispersion"):
            value = getattr(self, name)
            if value is not None and not is_finite_number(value):
                raise ValidationError(f"{name} must be a finite number or None, got {value!r}")
        if self.fixed_dispersion is not None and self.fixed_dispersion <= 0:
            raise ValidationError("fixed_dispersion must be > 0")


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings: chain count, discarded and kept draws per chain, seed."""

    chains: int = 4
    warmup: int = 1000
    keep: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        checked = checked_integers({f.name: getattr(self, f.name) for f in fields(self)})
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.chains < 1:
            raise ValidationError("chains must be >= 1")
        if self.warmup < 100 or self.keep < 100:
            raise ValidationError("warmup and keep must each be >= 100")


@dataclass(frozen=True)
class McmcDiagnostics:
    """Split R-hat and effective sample size per free parameter.

    R-hat is NaN where it is unavailable (one chain, or fewer than 4
    kept draws per chain), and ``converged`` is then vacuously true.
    R-hat and ESS are also NaN for a parameter whose draws overflow their
    arithmetic (magnitudes near the float limit, such as ±1e300); with two
    or more chains of 4 or more draws, ``converged`` is then false.
    """

    rhat: dict[str, float]
    ess: dict[str, float]
    converged: bool


@dataclass(frozen=True)
class NegBinPosterior:
    """Posterior draws of the omitted-citation model.

    ``draws`` has shape (chains, kept, 3) with columns intercept, slope,
    dispersion (dispersion on the natural scale, always positive).
    ``flat()`` runs chain-major; the predictive operations cycle through
    the draws with the chains interleaved instead (see
    ``predictive.cycled_params``).  ``diagnostics`` is not an argument:
    every posterior, fitted, loaded or built in code, computes it from
    its own draws (:func:`mcmc_diagnostics`).  ``config`` is the sampler
    run that made the draws, None for draws made otherwise; its chain and
    kept counts must be the draws' shape.  A parameter the ``spec`` pins
    must hold its pinned value in every draw.
    """

    draws: np.ndarray
    spec: NegBinModelSpec = field(default_factory=NegBinModelSpec)
    config: McmcConfig | None = None
    acceptance_rates: tuple[float, ...] = ()
    diagnostics: McmcDiagnostics = field(init=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.draws, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValidationError("draws must have shape (chains, kept, 3)")
        if not np.isfinite(arr).all():
            raise ValidationError("draws must be finite")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("posterior must contain at least one draw")
        if (arr[:, :, 2] <= 0).any():
            raise ValidationError("all dispersion draws must be > 0")
        for name, column in (("fixed_slope", 1), ("fixed_dispersion", 2)):
            pinned = getattr(self.spec, name)
            if pinned is not None and (arr[:, :, column] != pinned).any():
                raise ValidationError(f"{name} is {pinned!r}, but the draws hold other values")
        config = self.config
        if config is not None and (config.chains, config.keep) != arr.shape[:2]:
            raise ValidationError(
                f"config says {config.chains} chains x {config.keep} kept, "
                f"but the draws hold {arr.shape[0]} x {arr.shape[1]}"
            )
        rates = self.acceptance_rates
        if not isinstance(rates, (list, tuple, np.ndarray)) or (
            len(rates) not in (0, arr.shape[0])
            or not all(is_finite_number(r) and 0 <= r <= 1 for r in rates)
        ):
            raise ValidationError(
                "acceptance_rates must be empty or one number in [0, 1] per chain"
            )
        object.__setattr__(self, "acceptance_rates", tuple(float(r) for r in rates))
        object.__setattr__(self, "draws", arr)
        object.__setattr__(self, "diagnostics", mcmc_diagnostics(self))

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0] * self.draws.shape[1]

    def flat(self) -> np.ndarray:
        """All draws as (n_draws, 3), chain-major order."""
        return self.draws.reshape(-1, 3)


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
        if not np.isfinite(arr).all():
            raise ValidationError("concentrations must be finite")
        if (arr < 0).any():
            raise ValidationError("concentrations must be >= 0")
        if (arr.sum(axis=1) <= 0).any():
            raise ValidationError("every conditioning row needs a positive total")
        if self.direction not in _DIRECTIONS:
            raise UsageError(f"direction must be one of {_DIRECTIONS}")
        if not is_finite_number(self.pseudocount) or self.pseudocount < 0:
            raise ValidationError(
                f"pseudocount must be a finite number >= 0, got {self.pseudocount!r}"
            )
        object.__setattr__(self, "concentrations", arr)

    def row(self, conditioning: DocType) -> np.ndarray:
        return self.concentrations[doctype_index(conditioning)]


# Stirling series for log Gamma: coefficients of z**-1, z**-3, ..., z**-13.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Arguments below this are shifted up to it by Gamma(x + 1) = x Gamma(x);
# from 10 on, the series' first omitted term is below 3e-17.
_STIRLING_FROM = 10
# Largest omitted count for which the citation fit sums log1p(k / theta)
# over k instead of taking log-gammas of the distinct counts.
_LOG_TABLE_MAX = 128
# Dispersion from which _log_rising_ratio subtracts Stirling's series
# term by term instead of two log-gammas of about theta * log(theta).
_RISING_SERIES_FROM = 1e6


def _gammaln(x: np.ndarray) -> np.ndarray:
    """Log of the gamma function for x > 0, vectorized.

    The Stirling series with seven correction terms, at x + 10 less the
    log of x (x + 1) ... (x + 9) for x < 10 and at x itself otherwise.
    Exactly 0 at 1 and 2, +inf at 0 and inf.  Within 1e-13 of
    max(1, |lgamma(x)|) of ``scipy.special.gammaln`` (see the tests).
    """
    x = np.asarray(x, dtype=np.float64)
    small = x < _STIRLING_FROM
    z = np.where(small, x + _STIRLING_FROM, x)
    inv = 1.0 / z
    inv2 = inv * inv
    series = _STIRLING[-1]
    for coef in reversed(_STIRLING[:-1]):
        series = coef + inv2 * series
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(small, x, 1.0)
        for k in range(1, _STIRLING_FROM):
            shift = shift * np.where(small, x + k, 1.0)
        out = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + inv * series - np.log(shift)
    return np.where((x == 1.0) | (x == 2.0), 0.0, np.where(x == np.inf, np.inf, out))


def _log_rising_ratio(y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """lgamma(y + theta) - lgamma(theta) - y * log(theta), for y >= 0, theta > 0.

    The plain difference loses about 1e-16 * theta * log(theta) to
    rounding.  From ``_RISING_SERIES_FROM`` on it is Stirling's series
    of both log-gammas subtracted term by term: (y + theta - 0.5) *
    log1p(y / theta) - y plus the difference of the 1 / (12 z) terms; the
    next terms differ by less than 1e-20.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = _gammaln(y + theta) - _gammaln(theta) - y * np.log(theta)
        z = y + theta
        series = (z - 0.5) * np.log1p(y / theta) - y + (1.0 / z - 1.0 / theta) / 12.0
    return np.where(theta < _RISING_SERIES_FROM, direct, series)


def negbin_logpmf(y: np.ndarray, mu: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """Log pmf of the negative binomial in mean/dispersion form.

    Mean ``mu`` >= 0, dispersion ``theta`` > 0; the variance is
    ``mu + mu**2 / theta``.  Vectorized over all arguments; ``mu == 0``
    yields probability one at zero and -inf elsewhere, ``mu == inf``
    yields -inf everywhere.  This is the reference definition; the
    citation fit evaluates the same sum in its own arrangement
    (:class:`_CitationLogPosterior`).
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
            _gammaln(y + theta)
            - _gammaln(theta)
            - _gammaln(y + 1.0)
            + theta * (np.log(theta) - log_total)
            + np.where(y > 0, y * log_mu_ratio, 0.0)
        )
    return out


def negbin_rvs(
    rng: np.random.Generator,
    mu: np.ndarray,
    theta: float | np.ndarray,
    counts: np.ndarray | None = None,
    bins: tuple[np.ndarray, int] | None = None,
) -> np.ndarray:
    """Sample the negative binomial as a gamma-Poisson mixture.

    Means are capped at 1e12 so that extreme prior draws cannot push the
    Poisson stage out of its numeric range.  numpy computes
    ``gamma(shape, scale)`` as ``scale * standard_gamma(shape)``, so the
    draws equal ``rng.gamma(shape=theta, scale=mu / theta)`` bit for bit;
    calling ``standard_gamma`` skips the second broadcast argument.
    ``theta`` broadcasts against ``mu``: a (rows, 1) dispersion with
    (rows, n) means draws a block, one dispersion per row, all its gamma
    variables before its Poisson ones.

    ``counts`` optionally gives per element a number k of iid NB(theta,
    mu) items and returns the sum of their draws: the k gamma variables
    sum to one Gamma(k * theta), so the sum is
    ``poisson(standard_gamma(k * theta) * mu / theta)``.  The cap applies
    to the per-item mean.  A zero count gives 0 and consumes no random
    numbers, and a count of 1 gives the same value as no count.

    ``bins`` optionally sums the draws along the last axis into bins.  It
    is a pair ``(slots, n_bins)``: the result has ``n_bins`` entries in
    its last axis, and ``slots``, which has one entry per element in
    column-major order (element (row, j) of a (rows, n) draw at ``j * rows
    + row``), holds each element's position in the C-order flattened
    result, ``row * n_bins + bin``.  A bin's sum in one row thus adds its
    elements in order along the last axis, while neighbouring elements
    add into different rows' slots.  Given the gamma variables the
    elements' draws are independent Poissons, so a bin's sum is one
    Poisson of its elements' summed rates ``gamma * mu / theta``: the
    gammas are drawn as without ``bins``, then one Poisson per bin.  The
    cap applies to each element's mean before the rates are summed, and
    an element with a zero count adds zero rate.

    The kernel's first-kind citation redraws need only min(O, c) and
    invert its CDF with one uniform per element
    (``predictive.draw_clamped_omitted``); they call this sampler only for
    the elements whose CDF walk could be long.
    """
    mu = np.minimum(np.asarray(mu, dtype=np.float64), 1e12)
    theta = np.asarray(theta, dtype=np.float64)
    # The arrays made here are reused in place where the shapes allow, as
    # they do for the kernel's (rows, n) blocks: the same values, fewer
    # passes over fresh memory.
    reuse = mu.ndim > 0 and np.broadcast_shapes(mu.shape, theta.shape) == mu.shape
    scale = np.divide(mu, theta, out=mu if reuse else None)
    if counts is None:
        # A single dispersion (one block row) goes in as a 0-d array:
        # numpy then draws on its scalar-shape path, the same values at
        # several ns less per draw than a broadcast shape array.
        lam = rng.standard_gamma(theta.reshape(()) if theta.size == 1 else theta, size=scale.shape)
    else:
        lam = rng.standard_gamma(theta * counts)
    rate = np.multiply(lam, scale, out=lam if reuse and lam.shape == scale.shape else None)
    if bins is not None:
        # One bincount over (row, bin) slots, in column-major order: a run
        # of adds into one slot would wait on each other's sums.
        slots, n_bins = bins
        shape = rate.shape[:-1] + (n_bins,)
        rate = np.bincount(slots.ravel(), weights=rate.T.ravel(), minlength=math.prod(shape))
        rate = rate.reshape(shape)
    return rng.poisson(rate)


class _CitationLogPosterior:
    """Log posterior of the omitted-citation model over the audit.

    The sampled coordinates are the intercept at the mean predictor, then
    the slope and the log dispersion unless the spec pins them.  Sampling
    the intercept at ``x_center``, the mean of log1p(predictor) over all
    records, instead of at zero leaves it almost uncorrelated with the
    slope, which keeps the mode search well conditioned.  This is a pure
    reparameterization; the prior is still evaluated on the actual
    intercept.

    The likelihood is :func:`negbin_logpmf` summed over the records,
    split so that each state costs only what depends on it.  With
    linear predictor eta = log(mu), a record's term is

        y * eta - (y + theta) * log1p(exp(eta) / theta)
        + [lgamma(y + theta) - lgamma(theta) - y * log(theta)] - lgamma(y + 1),

    the log pmf with theta * log(theta) taken out of -(y + theta) *
    log(exp(eta) + theta) before it is summed: kept apart, the two
    products reach about 1e25 at log dispersion 54, and their difference
    loses every digit.  The last term is a constant, computed once.  The
    first is linear in the coordinates, so its sum comes from two audit
    totals.  The second depends on the record only through its predictor
    x and its count y, so its sum is, over the audit's unique
    predictors, (Sum y_x + theta * N_x) * log1p(exp(eta(x)) / theta)
    with Sum y_x the omitted citations and N_x the records at x: one exp
    and one log1p per unique predictor.  The bracket depends on theta
    alone: for counts up to ``_LOG_TABLE_MAX`` it is sum over k of
    N(y > k) * log1p(k / theta), past that ``_log_rising_ratio`` over
    the distinct counts.  Every sum runs along a state's own row, so a
    state's log density does not depend on which states are evaluated
    with it.
    """

    def __init__(self, sample: CitationErrorSample, spec: NegBinModelSpec) -> None:
        predictor = sample.observed if spec.direction == SECOND_KIND else sample.corrected
        self.spec = spec
        self.x_center = float(np.log1p(predictor.astype(np.float64)).mean())
        x_values, x_index, counts = np.unique(predictor, return_inverse=True, return_counts=True)
        self.x_centered = np.log1p(x_values.astype(np.float64)) - self.x_center
        self.counts = counts.astype(np.float64)
        # Omitted citations per unique predictor.
        self.sum_y_at = np.bincount(x_index, weights=sample.omitted, minlength=x_values.size)
        self.sum_y = float(self.sum_y_at.sum())
        self.sum_xy = float((self.sum_y_at * self.x_centered).sum())
        self.n_records = float(sample.omitted.size)
        values, records = np.unique(sample.omitted, return_counts=True)
        self.log_factorials = sum(
            int(n) * math.lgamma(int(v) + 1) for v, n in zip(values, records)
        )
        if values[-1] <= _LOG_TABLE_MAX:
            # N(y > k) for k = 0 .. max(y) - 1.
            self.table_k = np.arange(values[-1], dtype=np.float64)
            self.table_n = self.n_records - np.cumsum(np.bincount(sample.omitted))[:-1]
        else:
            self.table_k = None
            self.distinct_y = values.astype(np.float64)
            self.distinct_n = records.astype(np.float64)
        # Priors of the free parameters: the actual intercept, then the
        # slope and the log dispersion unless they are pinned.
        free = ["intercept"]
        if spec.fixed_slope is None:
            free.append("slope")
        if spec.fixed_dispersion is None:
            free.append("log_dispersion")
        self.prior_loc, self.prior_scale = np.array([PRIORS[name] for name in free]).T
        self.dim = len(free)
        # The prior mean in the sampled coordinates, where the mode search starts.
        b1 = PRIORS["slope"][0] if spec.fixed_slope is None else spec.fixed_slope
        self.prior_mean = self.prior_loc.copy()
        self.prior_mean[0] += b1 * self.x_center

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
        """Log posterior, up to a constant, of each row of ``z`` (states, dim).

        A state whose mean overflows has log density -inf, and one whose
        dispersion leaves the float range gets -inf instead of NaN.
        """
        b0, b1, log_theta = self.unpack(z)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            theta = np.exp(log_theta)
            # log1p(exp(eta) / theta), computed in place: one (states,
            # unique predictors) array besides the weights.
            log_ratio = b1[:, None] * self.x_centered
            log_ratio += z[:, 0, None]
            np.exp(log_ratio, out=log_ratio)
            log_ratio /= theta[:, None]
            np.log1p(log_ratio, out=log_ratio)
            weight = theta[:, None] * self.counts
            weight += self.sum_y_at
            weight *= log_ratio
            ll = (
                z[:, 0] * self.sum_y
                + b1 * self.sum_xy
                - weight.sum(axis=1)
                + self._theta_terms(theta)
                - self.log_factorials
            )
        free = z.copy()
        free[:, 0] = b0
        lp = (-0.5 * ((free - self.prior_loc) / self.prior_scale) ** 2).sum(axis=1)
        return np.where(np.isnan(ll), -np.inf, ll + lp)

    def _theta_terms(self, theta: np.ndarray) -> np.ndarray:
        """Sum over records of lgamma(y + theta) - lgamma(theta) - y log(theta), per state."""
        if self.table_k is not None:
            return (self.table_n * np.log1p(self.table_k / theta[:, None])).sum(axis=1)
        ratio = _log_rising_ratio(self.distinct_y, theta[:, None])
        return (self.distinct_n * ratio).sum(axis=1)


def fit_citation_error_model(
    sample: CitationErrorSample,
    spec: NegBinModelSpec | None = None,
    config: McmcConfig | None = None,
) -> NegBinPosterior:
    """Fit the omitted-citation regression by MCMC.

    The predictor column follows ``spec.direction``: observed counts for
    the second kind, corrected (observed + omitted) counts for the first
    kind.  The posterior mode is found from the prior mean
    (:func:`mcmc.find_mode`, which raises ValidationError when there is
    none), and ``config.chains`` independence Metropolis-Hastings chains
    sample around it, each from its own substream of ``config.seed``;
    results are bit-identical for identical inputs.  A posterior whose
    split R-hat exceeds 1.05 on any free parameter is returned with
    ``diagnostics.converged`` False and triggers a RuntimeWarning.
    """
    spec = spec or NegBinModelSpec()
    config = config or McmcConfig()
    log_post = _CitationLogPosterior(sample, spec)

    mode, scale_tril = mcmc.find_mode(log_post, log_post.prior_mean)
    rngs = [substream_rng(config.seed, chain) for chain in range(config.chains)]
    result = mcmc.run_chain(
        log_post, mode, scale_tril, warmup=config.warmup, keep=config.keep, rngs=rngs
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
    diag = posterior.diagnostics
    if not diag.converged:
        warnings.warn(
            f"citation error model did not converge: max split R-hat "
            f"{max(diag.rhat.values()):.3f} > {RHAT_THRESHOLD}",
            RuntimeWarning,
            stacklevel=2,
        )
    return posterior


def mcmc_diagnostics(posterior: NegBinPosterior) -> McmcDiagnostics:
    """Compute split R-hat and ESS per free parameter of a posterior.

    Dispersion is diagnosed on the log scale (the sampled coordinate).
    R-hat needs at least two chains of at least 4 kept draws each;
    otherwise it is NaN and convergence is judged vacuously true.
    """
    spec = posterior.spec
    series: dict[str, np.ndarray] = {"intercept": posterior.draws[:, :, 0]}
    if spec.fixed_slope is None:
        series["slope"] = posterior.draws[:, :, 1]
    if spec.fixed_dispersion is None:
        series["log_dispersion"] = np.log(posterior.draws[:, :, 2])

    available = posterior.n_chains >= 2 and posterior.draws.shape[1] >= 4
    rhat = {}
    ess = {}
    # Draws near the float limit overflow the variances and the FFT: their
    # R-hat and ESS are NaN, quietly, and a NaN R-hat is never converged.
    with np.errstate(over="ignore", invalid="ignore"):
        for name, chains in series.items():
            rhat[name] = mcmc.split_rhat(chains) if available else float("nan")
            ess[name] = mcmc.effective_sample_size(chains)
    converged = all(r < RHAT_THRESHOLD for r in rhat.values()) if available else True
    return McmcDiagnostics(rhat=rhat, ess=ess, converged=converged)


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
    Raises ValidationError unless ``prior_pseudocount`` is a finite number
    >= 0 (a bool is not one), or if a conditioning row would end up with
    zero total (all-zero counts and zero pseudocount).
    """
    if not is_finite_number(prior_pseudocount) or prior_pseudocount < 0:
        raise ValidationError(
            f"prior_pseudocount must be a finite number >= 0, got {prior_pseudocount!r}"
        )
    if direction not in _DIRECTIONS:
        raise UsageError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
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
    rng = substream_rng(config.seed, 999)

    b0 = rng.normal(*PRIORS["intercept"], size=n_draws)
    if spec.fixed_slope is None:
        b1 = rng.normal(*PRIORS["slope"], size=n_draws)
    else:
        b1 = np.full(n_draws, spec.fixed_slope)
    if spec.fixed_dispersion is None:
        theta = np.exp(rng.normal(*PRIORS["log_dispersion"], size=n_draws))
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

    intercept_mean, intercept_sd = PRIORS["intercept"]
    return PriorPredictiveSummary(
        intercept_scale_low=float(np.exp(intercept_mean - 2.0 * intercept_sd)),
        intercept_scale_high=float(np.exp(intercept_mean + 2.0 * intercept_sd)),
        intercept_scale_median=float(np.exp(intercept_mean)),
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
    """Write a posterior to JSON.  Reruns produce byte-identical files.

    A citation posterior without a sampler ``config`` stores null there.
    """
    if isinstance(posterior, NegBinPosterior):
        payload = {
            "model": _NEGBIN_TAG,
            "spec": {**asdict(posterior.spec), **_PRIOR_RECORD},
            "config": None if posterior.config is None else asdict(posterior.config),
            "draws": posterior.draws.tolist(),
            "acceptance_rates": list(posterior.acceptance_rates),
            "diagnostics": asdict(posterior.diagnostics),
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
    write_json(payload, path)


def _stored(payload: dict, *keys: str) -> list:
    """The values of ``keys`` in a posterior file; each one must be there."""
    for key in keys:
        if key not in payload:
            raise ValidationError(f"posterior file has no {key!r} key")
    return [payload[key] for key in keys]


def _stored_fields(name: str, block, cls, also=()) -> dict:
    """A copy of a posterior file's ``name`` block, checked against ``cls``.

    Every key must name a field of the dataclass ``cls`` or be one of
    ``also``, and every field without a default must be given.
    """
    if not isinstance(block, dict):
        raise ValidationError(f"{name!r} must be a JSON object")
    names = {f.name for f in fields(cls)}
    for key in block:
        if key not in names and key not in also:
            raise ValidationError(f"unknown key {key!r} in {name!r}")
    for f in fields(cls):
        if f.name not in block and f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{name!r} has no {f.name!r} key")
    return dict(block)


def _stored_numbers(key: str, value) -> np.ndarray:
    """A posterior file's ``key`` as a float array.

    It must be a rectangular nest of JSON numbers: no string, boolean or
    ragged list.  An integer beyond the float range is not finite.
    """
    try:
        arr = np.array(value, dtype=object)
        numeric = all(type(x) in (int, float) for x in arr.flat)
    except RuntimeError:  # nested deeper than numpy allows
        numeric = False
    if not numeric:
        raise ValidationError(f"{key!r} must be a rectangular array of numbers")
    try:
        return arr.astype(np.float64)
    except OverflowError:
        raise ValidationError(f"{key} must be finite") from None


def load_posterior(path: str | Path) -> NegBinPosterior | DirichletPosterior:
    """Read back a posterior written by :func:`save_posterior`.

    A file that is not such a posterior (not a JSON object, a missing
    key, a key its model does not know, or a value the model rejects:
    an array that is not numeric, ragged, mis-shaped or not finite, or a
    scalar of the wrong type or range, a ``config`` whose chain and kept
    counts are not the draws' shape, or a parameter the ``spec`` pins
    whose draws hold other values) raises ValidationError naming the file
    and the key.  A citation posterior's ``diagnostics`` block is
    written for readers and never read back: the loaded posterior
    diagnoses its own draws, so any value there loads.
    """
    payload = read_json_object(path, "posterior file")
    try:
        return _posterior_from(payload)
    except (UsageError, ValidationError) as err:
        raise ValidationError(f"{path}: {err}") from None


def _posterior_from(payload: dict) -> NegBinPosterior | DirichletPosterior:
    tag = payload.get("model")
    if tag == _NEGBIN_TAG:
        draws, spec, config, rates = _stored(
            payload, "draws", "spec", "config", "acceptance_rates"
        )
        spec = _stored_fields("spec", spec, NegBinModelSpec, also=_PRIOR_RECORD)
        for name, value in _PRIOR_RECORD.items():
            stored = spec.pop(name, value)
            if stored != value:
                raise ValidationError(f"{name} is {stored!r}, not the fixed {value}")
        if config is not None:
            config = _stored_fields("config", config, McmcConfig, also=_RETIRED_CONFIG)
            for name in _RETIRED_CONFIG:
                config.pop(name, None)
            config = McmcConfig(**config)
        return NegBinPosterior(
            draws=_stored_numbers("draws", draws),
            spec=NegBinModelSpec(**spec),
            config=config,
            acceptance_rates=rates,
        )
    if tag == _DIRICHLET_TAG:
        concentrations, direction, pseudocount = _stored(
            payload, "concentrations", "direction", "pseudocount"
        )
        return DirichletPosterior(
            concentrations=_stored_numbers("concentrations", concentrations),
            direction=direction,
            pseudocount=pseudocount,
        )
    raise ValidationError(f"unknown posterior payload (model={tag!r})")
