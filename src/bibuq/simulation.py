"""Monte Carlo propagation of data errors into indicator distributions.

The engine redraws the underlying publication data (citation counts,
document types, or both) once per iteration from the fitted error
models, rebuilds the normalization cells from the redrawn data, and
recomputes every unit's indicators.  Collecting the per-iteration values
yields one empirical distribution per unit and indicator, summarized by
the median, a central 95% interval, and the relative uncertainty.

Iterations are independent and draw their randomness from substreams
keyed by (seed, iteration), so results are bit-identical regardless of
how iterations are partitioned over worker processes.  Within an
iteration one posterior parameter draw is shared by all publications:
each iteration is one coherent hypothetical state of the world.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .datamodel import (
    CitationErrorSample,
    DocType,
    DOCTYPE_ORDER,
    DocTypeConfusionTable,
    MissedCitationMarginal,
    Publication,
    PublicationSet,
    UsageError,
    ValidationError,
    doctype_index,
    embedded_missed_citation_sample,
    EMBEDDED_SAMPLE_OBSERVED_CITATIONS,
)
from .errormodels import (
    FIRST_KIND,
    SECOND_KIND,
    DirichletPosterior,
    McmcConfig,
    NegBinModelSpec,
    NegBinPosterior,
    fit_citation_error_model,
    fit_doctype_error_model,
)
from .indicators import (
    KEY_DOCTYPE,
    KEY_DOCTYPE_YEAR_FIELD,
    KEY_MODES,
    IndicatorResult,
    build_normalization,
    indicators_for,
)
from .predictive import (
    draw_doctype_codes,
    draw_omitted,
    predict_doctype,
    predict_error_free_citations,
    sample_probability_rows,
)

__all__ = [
    "CHANNEL_CITATIONS",
    "CHANNEL_DOCTYPES",
    "ALL_CHANNELS",
    "DistributionSummary",
    "IndicatorDistribution",
    "PropagationConfig",
    "FittedModels",
    "PropagationResult",
    "ScenarioConfig",
    "summarize",
    "propagate",
    "generate_scenario",
    "synthesize_training_sample",
    "synthetic_confusion_table",
    "run_exercise",
    "list_exercises",
    "ExerciseReport",
    "write_report_json",
    "write_plot_summary",
    "write_uncertainty_plot",
]

CHANNEL_CITATIONS = "citations"
CHANNEL_DOCTYPES = "doctypes"
ALL_CHANNELS = frozenset({CHANNEL_CITATIONS, CHANNEL_DOCTYPES})

INDICATOR_NAMES = ("P", "C", "MNCS")


def subseed(seed: int, index: int) -> int:
    """A derived 64-bit seed, stable across platforms and runs."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    state = ss.generate_state(2, dtype=np.uint64)
    return int(state[0])


def iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    """The dedicated random substream of one Monte Carlo iteration."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(iteration,)))


# ---------------------------------------------------------------------------
# Distribution summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionSummary:
    """Median, central 95% interval, and relative uncertainty.

    ``relative_uncertainty_pct`` is 100 * (ci_high - ci_low) / median,
    None when the median is zero.  ``n`` counts the defined replicates
    the summary is based on.
    """

    median: float
    ci_low: float
    ci_high: float
    relative_uncertainty_pct: float | None
    n: int


def summarize(replicates: np.ndarray) -> DistributionSummary:
    """Summarize replicate values with median and 2.5%/97.5% quantiles.

    Quantiles use linear interpolation.  NaN entries (undefined
    replicates, e.g. an MNCS over an empty selection) are dropped first;
    an all-NaN input raises ValidationError.
    """
    values = np.asarray(replicates, dtype=np.float64).ravel()
    values = values[~np.isnan(values)]
    if values.size == 0:
        raise ValidationError("no defined replicates to summarize")
    median = float(np.median(values))
    lo, hi = (float(q) for q in np.quantile(values, [0.025, 0.975]))
    rel = 100.0 * (hi - lo) / median if median != 0.0 else None
    return DistributionSummary(
        median=median, ci_low=lo, ci_high=hi, relative_uncertainty_pct=rel, n=int(values.size)
    )


@dataclass(frozen=True)
class IndicatorDistribution:
    """Replicate distribution of one indicator for one unit.

    ``summary`` is None only when every replicate was undefined (an
    MNCS whose selection came up empty in all iterations).
    """

    unit: str
    indicator: str
    observed: float | None
    replicates: np.ndarray
    summary: DistributionSummary | None


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropagationConfig:
    """Settings of a propagation run.

    ``channels`` selects which error mechanisms are redrawn; disabled
    channels pass the input data through unchanged.  ``direction``
    chooses correction (second kind: observed data is corrected upward)
    or injection (first kind: error-free data is corrupted).
    ``parameter_sharing`` is "iteration" (one posterior draw per
    iteration, the default) or "publication" (cycle draws per item).
    ``pooled_normalization`` includes the assessed units in the
    normalization universe alongside the reference set.
    """

    iterations: int = 2000
    seed: int = 0
    channels: frozenset = ALL_CHANNELS
    direction: str = SECOND_KIND
    key_mode: str = KEY_DOCTYPE
    workers: int = 1
    pooled_normalization: bool = True
    parameter_sharing: str = "iteration"

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", frozenset(self.channels))
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if not self.channels:
            raise UsageError("at least one error channel must be enabled")
        unknown = self.channels - ALL_CHANNELS
        if unknown:
            raise UsageError(f"unknown channels {sorted(unknown)}; valid: {sorted(ALL_CHANNELS)}")
        if self.direction not in (SECOND_KIND, FIRST_KIND):
            raise UsageError(f"direction must be {SECOND_KIND!r} or {FIRST_KIND!r}")
        if self.key_mode not in KEY_MODES:
            raise UsageError(f"key_mode must be one of {KEY_MODES}")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if self.parameter_sharing not in ("iteration", "publication"):
            raise UsageError("parameter_sharing must be 'iteration' or 'publication'")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a non-negative 64-bit integer")


@dataclass(frozen=True)
class FittedModels:
    """The fitted error models a propagation run draws from."""

    citation: NegBinPosterior | None = None
    doctype: DirichletPosterior | None = None


@dataclass(frozen=True)
class PropagationResult:
    """Observed indicators plus their replicate distributions per unit."""

    units: tuple[str, ...]
    observed: Mapping[str, IndicatorResult]
    distributions: Mapping[str, Mapping[str, IndicatorDistribution]]
    config: PropagationConfig

    def distribution(self, unit: str, indicator: str) -> IndicatorDistribution:
        return self.distributions[unit][indicator]


@dataclass
class _Workspace:
    """Precomputed arrays shared by all iterations (and worker processes)."""

    citations: np.ndarray
    dt_codes: np.ndarray
    unit_index: np.ndarray
    in_norm: np.ndarray
    cell_codes: np.ndarray
    n_cellgroups: int
    n_units: int
    params: np.ndarray | None
    dirichlet: DirichletPosterior | None
    config: PropagationConfig
    ids: list[str] | None = None


# Worker-process global, set once per pool worker.
_WORKER_WS: _Workspace | None = None


def _init_worker(ws: _Workspace) -> None:
    global _WORKER_WS
    _WORKER_WS = ws


def _worker_chunk(bounds: tuple[int, int]):
    assert _WORKER_WS is not None
    return _simulate_range(_WORKER_WS, bounds[0], bounds[1])


def _simulate_one(
    ws: _Workspace, iteration: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Redraw the data once and compute per-unit indicator values.

    Returns (P, C, MNCS, redrawn citations, redrawn doctype codes); the
    last two feed the optional item dump.
    """
    cfg = ws.config
    rng = iteration_rng(cfg.seed, iteration)

    c = ws.citations
    if CHANNEL_CITATIONS in cfg.channels:
        n_draws = ws.params.shape[0]
        if cfg.parameter_sharing == "iteration":
            params = ws.params[iteration % n_draws]
        else:
            idx = (iteration * c.size + np.arange(c.size)) % n_draws
            params = ws.params[idx]
        omitted = draw_omitted(rng, params, c)
        if cfg.direction == SECOND_KIND:
            c = c + omitted
        else:
            c = np.maximum(c - omitted, 0)

    dt = ws.dt_codes
    if CHANNEL_DOCTYPES in cfg.channels:
        rows = sample_probability_rows(rng, ws.dirichlet)
        dt = draw_doctype_codes(rng, rows, dt)

    # Rebuild normalization cells from the redrawn data.
    n_cells = ws.n_cellgroups * 4
    has_group = ws.cell_codes >= 0
    keys = np.where(has_group, ws.cell_codes, 0) * 4 + dt
    norm_mask = ws.in_norm & has_group
    sums = np.bincount(keys[norm_mask], weights=c[norm_mask], minlength=n_cells)
    counts = np.bincount(keys[norm_mask], minlength=n_cells)
    with np.errstate(invalid="ignore"):
        means = np.divide(sums, counts, out=np.zeros(n_cells), where=counts > 0)

    core = dt <= 1  # article and review codes come first in DOCTYPE_ORDER
    of_unit = ws.unit_index >= 0
    selected = core & of_unit
    unit_sel = ws.unit_index[selected]
    p_vals = np.bincount(unit_sel, minlength=ws.n_units).astype(np.float64)
    c_vals = np.bincount(unit_sel, weights=c[selected].astype(np.float64), minlength=ws.n_units)

    expected = means[keys]
    cell_occupied = has_group & (counts[keys] > 0)
    consistent = (expected > 0) | (c == 0)
    included = selected & cell_occupied & consistent
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(expected > 0, c / np.where(expected > 0, expected, 1.0), 0.0)
    num = np.bincount(ws.unit_index[included], weights=scores[included], minlength=ws.n_units)
    den = np.bincount(ws.unit_index[included], minlength=ws.n_units)
    with np.errstate(invalid="ignore"):
        mncs_vals = np.where(den > 0, num / np.maximum(den, 1), np.nan)

    return p_vals, c_vals, mncs_vals, c, dt


def _simulate_range(ws: _Workspace, start: int, stop: int):
    n = stop - start
    p_out = np.empty((n, ws.n_units))
    c_out = np.empty((n, ws.n_units))
    m_out = np.empty((n, ws.n_units))
    for offset, iteration in enumerate(range(start, stop)):
        p_out[offset], c_out[offset], m_out[offset], _, _ = _simulate_one(ws, iteration)
    return p_out, c_out, m_out


def _build_workspace(
    units: Sequence[PublicationSet],
    reference: PublicationSet | None,
    models: FittedModels,
    config: PropagationConfig,
    keep_ids: bool = False,
) -> _Workspace:
    if CHANNEL_CITATIONS in config.channels:
        if models.citation is None:
            raise UsageError("citations channel enabled but no citation error model given")
        if models.citation.spec.direction != config.direction:
            raise UsageError(
                f"citation model direction {models.citation.spec.direction!r} does not "
                f"match run direction {config.direction!r}"
            )
    if CHANNEL_DOCTYPES in config.channels:
        if models.doctype is None:
            raise UsageError("doctypes channel enabled but no document-type error model given")
        if models.doctype.direction != config.direction:
            raise UsageError(
                f"document-type model direction {models.doctype.direction!r} does not "
                f"match run direction {config.direction!r}"
            )
    if not config.pooled_normalization and reference is None:
        raise UsageError("reference-only normalization requires a reference set")
    if not units:
        raise UsageError("need at least one assessed unit")

    pubs: list[Publication] = []
    unit_index: list[int] = []
    in_norm: list[bool] = []
    for u, pubset in enumerate(units):
        for pub in pubset:
            pubs.append(pub)
            unit_index.append(u)
            in_norm.append(config.pooled_normalization)
    if reference is not None:
        for pub in reference:
            pubs.append(pub)
            unit_index.append(-1)
            in_norm.append(True)

    citations = np.array([p.citations for p in pubs], dtype=np.int64)
    dt_codes = np.array([doctype_index(p.doctype) for p in pubs], dtype=np.int64)

    if config.key_mode == KEY_DOCTYPE_YEAR_FIELD:
        groups: dict[tuple[int, str], int] = {}
        cell_codes = np.empty(len(pubs), dtype=np.int64)
        for i, pub in enumerate(pubs):
            if pub.field is None:
                cell_codes[i] = -1
                continue
            key = (pub.year, pub.field)
            cell_codes[i] = groups.setdefault(key, len(groups))
        n_cellgroups = max(len(groups), 1)
    else:
        cell_codes = np.zeros(len(pubs), dtype=np.int64)
        n_cellgroups = 1

    return _Workspace(
        citations=citations,
        dt_codes=dt_codes,
        unit_index=np.array(unit_index, dtype=np.int64),
        in_norm=np.array(in_norm, dtype=bool),
        cell_codes=cell_codes,
        n_cellgroups=n_cellgroups,
        n_units=len(units),
        params=models.citation.flat().copy() if models.citation is not None else None,
        dirichlet=models.doctype,
        config=config,
        ids=[p.id for p in pubs] if keep_ids else None,
    )


def pool_processes(requested: int, chunks: int, cpus: int | None) -> int:
    """Worker processes to open: the request, capped by CPUs and by chunks.

    ``cpus`` is ``os.cpu_count()``, which may be None when it is unknown;
    at least one process is always returned.
    """
    return max(1, min(requested, chunks, cpus or 1))


def propagate(
    units: PublicationSet | Sequence[PublicationSet],
    reference: PublicationSet | None = None,
    models: FittedModels | None = None,
    config: PropagationConfig | None = None,
    dump_items: str | Path | None = None,
) -> PropagationResult:
    """Propagate error-model uncertainty into the units' indicators.

    Each iteration redraws the enabled channels for every publication
    (assessed units and reference set alike), rebuilds the normalization
    cells from the redrawn data, and recomputes P, C, and MNCS per unit.
    The observed indicators are computed once from the input data
    against the same normalization universe.

    ``dump_items`` optionally writes every redrawn unit publication as a
    CSV row (iteration, publication_id, citations, doctype); dumping
    forces single-process execution.
    """
    if isinstance(units, PublicationSet):
        units = [units]
    units = list(units)
    models = models or FittedModels()
    config = config or PropagationConfig()

    ws = _build_workspace(units, reference, models, config, keep_ids=dump_items is not None)

    norm_sets = list(units) if config.pooled_normalization else []
    if reference is not None:
        norm_sets.append(reference)
    cells = build_normalization(norm_sets, config.key_mode)
    observed = {pubset.name: indicators_for(pubset, cells) for pubset in units}

    iters = config.iterations
    if dump_items is not None:
        p_rep, c_rep, m_rep = _propagate_with_dump(ws, units, Path(dump_items))
    elif config.workers == 1 or iters < 2 * config.workers:
        p_rep, c_rep, m_rep = _simulate_range(ws, 0, iters)
    else:
        bounds = []
        edges = np.linspace(0, iters, config.workers + 1, dtype=int)
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi > lo:
                bounds.append((int(lo), int(hi)))
        cpus = os.cpu_count()
        processes = pool_processes(config.workers, len(bounds), cpus)
        if processes < config.workers:
            print(
                f"note: running {processes} of {config.workers} requested worker processes "
                f"({cpus} CPUs, {len(bounds)} chunks)",
                file=sys.stderr,
            )
        with multiprocessing.Pool(
            processes=processes, initializer=_init_worker, initargs=(ws,)
        ) as pool:
            parts = pool.map(_worker_chunk, bounds)
        p_rep = np.concatenate([part[0] for part in parts])
        c_rep = np.concatenate([part[1] for part in parts])
        m_rep = np.concatenate([part[2] for part in parts])

    distributions: dict[str, dict[str, IndicatorDistribution]] = {}
    for u, pubset in enumerate(units):
        obs = observed[pubset.name]
        per_indicator = {}
        for indicator, reps, obs_value in (
            ("P", p_rep[:, u], float(obs.p)),
            ("C", c_rep[:, u], float(obs.c)),
            ("MNCS", m_rep[:, u], obs.mncs),
        ):
            defined = ~np.isnan(reps)
            per_indicator[indicator] = IndicatorDistribution(
                unit=pubset.name,
                indicator=indicator,
                observed=obs_value,
                replicates=reps,
                summary=summarize(reps) if defined.any() else None,
            )
        distributions[pubset.name] = per_indicator

    return PropagationResult(
        units=tuple(pubset.name for pubset in units),
        observed=observed,
        distributions=distributions,
        config=config,
    )


def _propagate_with_dump(ws: _Workspace, units: Sequence[PublicationSet], path: Path):
    iters = ws.config.iterations
    p_out = np.empty((iters, ws.n_units))
    c_out = np.empty((iters, ws.n_units))
    m_out = np.empty((iters, ws.n_units))
    unit_positions = np.flatnonzero(ws.unit_index >= 0)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "publication_id", "citations", "doctype"])
        for j in range(iters):
            p_out[j], c_out[j], m_out[j], c_sim, dt_sim = _simulate_one(ws, j)
            for pos in unit_positions:
                writer.writerow(
                    [j, ws.ids[pos], int(c_sim[pos]), DOCTYPE_ORDER[dt_sim[pos]].value]
                )
    return p_out, c_out, m_out


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------

_DEFAULT_MIX = {
    DocType.ARTICLE: 0.68,
    DocType.REVIEW: 0.04,
    DocType.LETTER: 0.03,
    DocType.OTHER: 0.25,
}
_DEFAULT_SCALING = {
    DocType.ARTICLE: 1.0,
    DocType.REVIEW: 1.5,
    DocType.LETTER: 0.2,
    DocType.OTHER: 0.1,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Synthetic multi-unit publication scenario.

    Citation counts per publication are discretized lognormal draws; the
    location parameter is the set's location scaled by a per-doctype
    factor, so reviews run hotter and letters colder than articles.
    Document types follow a fixed mixture.  All publications share one
    year and carry no field label.
    """

    unit_sizes: Mapping[str, int]
    unit_locations: Mapping[str, float]
    reference_size: int
    reference_location: float
    reference_name: str = "reference"
    doctype_mix: Mapping[DocType, float] = field(default_factory=lambda: dict(_DEFAULT_MIX))
    type_scaling: Mapping[DocType, float] = field(default_factory=lambda: dict(_DEFAULT_SCALING))
    sigma: float = 1.0
    year: int = 2010
    discretization: str = "floor"
    seed: int = 0

    def __post_init__(self) -> None:
        if set(self.unit_sizes) != set(self.unit_locations):
            raise ValidationError("unit_sizes and unit_locations must name the same units")
        if not self.unit_sizes:
            raise ValidationError("need at least one unit")
        if any(size < 1 for size in self.unit_sizes.values()) or self.reference_size < 1:
            raise ValidationError("set sizes must be >= 1")
        if self.reference_name in self.unit_sizes:
            raise ValidationError(f"reference name {self.reference_name!r} collides with a unit")
        mix_total = sum(self.doctype_mix.get(dt, 0.0) for dt in DOCTYPE_ORDER)
        if any(p < 0 for p in self.doctype_mix.values()) or abs(mix_total - 1.0) > 1e-9:
            raise ValidationError("doctype_mix must be non-negative and sum to 1")
        if any(s <= 0 for s in self.type_scaling.values()):
            raise ValidationError("type_scaling factors must be > 0")
        if self.sigma <= 0:
            raise ValidationError("sigma must be > 0")
        if self.discretization not in ("floor", "round"):
            raise ValidationError("discretization must be 'floor' or 'round'")


def _scenario_set(
    rng: np.random.Generator, cfg: ScenarioConfig, name: str, size: int, location: float, role: str
) -> PublicationSet:
    probs = np.array([cfg.doctype_mix.get(dt, 0.0) for dt in DOCTYPE_ORDER])
    codes = rng.choice(4, size=size, p=probs / probs.sum())
    scaling = np.array([cfg.type_scaling[dt] for dt in DOCTYPE_ORDER])
    raw = rng.lognormal(mean=location * scaling[codes], sigma=cfg.sigma)
    counts = np.floor(raw) if cfg.discretization == "floor" else np.rint(raw)
    counts = counts.astype(np.int64)
    members = tuple(
        Publication(
            id=f"{name}-{k:05d}",
            unit=name,
            doctype=DOCTYPE_ORDER[codes[k]],
            year=cfg.year,
            citations=int(counts[k]),
        )
        for k in range(size)
    )
    return PublicationSet(name=name, members=members, role=role)


def generate_scenario(cfg: ScenarioConfig) -> tuple[list[PublicationSet], PublicationSet]:
    """Draw the assessed units and the reference set of a scenario."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
    units = [
        _scenario_set(rng, cfg, name, cfg.unit_sizes[name], cfg.unit_locations[name], "assessed-unit")
        for name in cfg.unit_sizes
    ]
    reference = _scenario_set(
        rng, cfg, cfg.reference_name, cfg.reference_size, cfg.reference_location, "reference-set"
    )
    return units, reference


# ---------------------------------------------------------------------------
# Training-sample synthesis
# ---------------------------------------------------------------------------


def synthesize_training_sample(
    marginal: MissedCitationMarginal | None = None,
    target_mean_c: float | None = None,
    target_r: float = 0.31,
    seed: int = 0,
    tolerance: float = 0.05,
) -> CitationErrorSample:
    """Build a paired training sample from an omitted-count marginal.

    The omitted column reproduces the marginal histogram exactly.  The
    observed column is a discretized lognormal calibrated to
    ``target_mean_c``; the two columns are rank-coupled through a
    bivariate Gaussian copula whose correlation is searched so that the
    realized Pearson r lands within ``tolerance`` of ``target_r``.  When
    no coupling achieves the target (or r is undefined because a column
    is constant), the best achievable sample is returned with a warning.

    Defaults reproduce the built-in audit: its marginal and a mean
    observed count matching the audited citation total.
    """
    marginal = marginal or embedded_missed_citation_sample()
    n = marginal.record_count()
    if n < 2:
        raise ValidationError("marginal must describe at least 2 records")
    if target_mean_c is None:
        target_mean_c = EMBEDDED_SAMPLE_OBSERVED_CITATIONS / 372
    if target_mean_c < 0:
        raise ValidationError("target_mean_c must be >= 0")

    omitted_sorted = marginal.expand()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11,)))
    z_obs = rng.standard_normal(n)
    z_noise = rng.standard_normal(n)

    # Calibrate the lognormal location so the floored draws hit the mean.
    sigma = 1.0
    mu = math.log(target_mean_c + 0.5 + 1e-9) - 0.5 * sigma**2

    def observed_for(location: float) -> np.ndarray:
        return np.floor(np.exp(location + sigma * z_obs)).astype(np.int64)

    for _ in range(12):
        mean = observed_for(mu).mean()
        if mean <= 0:
            mu += 0.5
            continue
        if abs(mean - target_mean_c) < 1e-6:
            break
        mu += math.log((target_mean_c + 1e-9) / mean)
    observed = observed_for(mu)

    def coupled(rho: float) -> np.ndarray:
        z_latent = rho * z_obs + math.sqrt(max(1.0 - rho * rho, 0.0)) * z_noise
        out = np.empty(n, dtype=np.int64)
        out[np.argsort(z_latent, kind="stable")] = omitted_sorted
        return out

    def pearson(a: np.ndarray, b: np.ndarray) -> float | None:
        if a.std() == 0.0 or b.std() == 0.0:
            return None
        return float(np.corrcoef(a.astype(float), b.astype(float))[0, 1])

    if pearson(observed, coupled(0.0)) is None:
        # Degenerate marginal or constant observed column: correlation is
        # undefined for every coupling, so return the uncoupled pairing.
        return CitationErrorSample(observed, coupled(0.0))

    best_rho, best_gap = 0.0, float("inf")
    grid = np.linspace(-0.999, 0.999, 81)
    for _ in range(2):
        for rho in grid:
            r = pearson(observed, coupled(float(rho)))
            gap = abs(r - target_r)
            if gap < best_gap:
                best_rho, best_gap = float(rho), gap
        width = grid[1] - grid[0]
        grid = np.linspace(
            max(best_rho - width, -0.999), min(best_rho + width, 0.999), 81
        )

    omitted = coupled(best_rho)
    achieved = pearson(observed, omitted)
    if best_gap > tolerance:
        warnings.warn(
            f"target correlation {target_r:.3f} unreachable for this marginal; "
            f"best achieved {achieved:.3f}",
            RuntimeWarning,
            stacklevel=2,
        )
    return CitationErrorSample(observed, omitted)


# ---------------------------------------------------------------------------
# Default document-type confusion stand-in
# ---------------------------------------------------------------------------

# Synthetic audit: invented counts with a plausible error pattern
# (recorded articles are nearly always true articles; recorded letters
# and "other" records hide a fair number of true articles).  Used by the
# exercises when no audited confusion table is supplied.
_STANDIN_CONFUSION = np.array(
    [
        # observed: article review letter other      true type:
        [1932, 31, 50, 400],  # article
        [44, 212, 0, 40],  # review
        [16, 0, 81, 12],  # letter
        [8, 7, 15, 540],  # other
    ],
    dtype=np.int64,
)


def synthetic_confusion_table() -> DocTypeConfusionTable:
    """The built-in synthetic document-type confusion stand-in."""
    return DocTypeConfusionTable(_STANDIN_CONFUSION.copy())


# ---------------------------------------------------------------------------
# Exercises
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ExerciseDef:
    direction: str
    channels: frozenset
    scenario: ScenarioConfig | None


def _second_kind_scenario(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        unit_sizes={"A": 40, "B": 50},
        unit_locations={"A": 0.8, "B": 1.2},
        reference_size=200,
        reference_location=1.0,
        seed=seed,
    )


def _first_kind_scenario(seed: int, sizes: tuple[int, int, int] = (20, 30, 1000)) -> ScenarioConfig:
    size_a, size_b, size_ref = sizes
    return ScenarioConfig(
        unit_sizes={"A": size_a, "B": size_b},
        unit_locations={"A": math.log(5.0), "B": math.log(7.0)},
        reference_size=size_ref,
        reference_location=math.log(6.0),
        seed=seed,
    )


def _exercise_defs(seed: int) -> dict[str, _ExerciseDef]:
    second = _second_kind_scenario(seed)
    first = _first_kind_scenario(seed)
    first_large = _first_kind_scenario(seed, sizes=(2000, 3000, 10000))
    only_c = frozenset({CHANNEL_CITATIONS})
    only_d = frozenset({CHANNEL_DOCTYPES})
    return {
        "1": _ExerciseDef(SECOND_KIND, ALL_CHANNELS, None),
        "2": _ExerciseDef(SECOND_KIND, only_c, second),
        "3": _ExerciseDef(SECOND_KIND, only_d, second),
        "4": _ExerciseDef(SECOND_KIND, ALL_CHANNELS, second),
        "A1": _ExerciseDef(FIRST_KIND, only_c, first),
        "A2": _ExerciseDef(FIRST_KIND, only_d, first),
        "A3": _ExerciseDef(FIRST_KIND, ALL_CHANNELS, first),
        "A4": _ExerciseDef(FIRST_KIND, ALL_CHANNELS, first_large),
    }


def list_exercises() -> list[str]:
    return sorted(_exercise_defs(0), key=lambda k: (len(k), k))


@dataclass(frozen=True)
class ItemPrediction:
    """Replicate tallies for one demonstration publication."""

    label: str
    doctype: DocType
    citations: int
    doctype_draws: dict[str, int]
    citation_draws: dict[int, int]


@dataclass(frozen=True)
class ExerciseReport:
    """Everything a demonstration exercise produced."""

    name: str
    direction: str
    channels: tuple[str, ...]
    iterations: int
    seed: int
    items: tuple[ItemPrediction, ...] | None = None
    result: PropagationResult | None = None
    training_sample: CitationErrorSample | None = None
    confusion: DocTypeConfusionTable | None = None

    def to_dict(self) -> dict:
        payload: dict = {
            "exercise": self.name,
            "direction": self.direction,
            "channels": sorted(self.channels),
            "iterations": self.iterations,
            "seed": self.seed,
        }
        if self.items is not None:
            payload["items"] = [
                {
                    "label": item.label,
                    "doctype": item.doctype.value,
                    "citations": item.citations,
                    "doctype_draws": item.doctype_draws,
                    "citation_draws": {str(k): v for k, v in sorted(item.citation_draws.items())},
                }
                for item in self.items
            ]
        if self.result is not None:
            payload["units"] = _result_payload(self.result)["units"]
        return payload

    def to_text(self) -> str:
        lines = [
            f"exercise {self.name}: direction={self.direction}, "
            f"channels={'+'.join(sorted(self.channels))}, "
            f"iterations={self.iterations}, seed={self.seed}"
        ]
        if self.items is not None:
            lines.append("")
            lines.append("predicted document types (tally over draws)")
            header = ["item".ljust(26)] + [dt.value.rjust(8) for dt in DOCTYPE_ORDER]
            lines.append("  ".join(header))
            for item in self.items:
                row = [f"{item.label} ({item.doctype.value}, {item.citations} cit)".ljust(26)]
                row += [str(item.doctype_draws.get(dt.value, 0)).rjust(8) for dt in DOCTYPE_ORDER]
                lines.append("  ".join(row))
            lines.append("")
            lines.append("predicted corrected citation counts (value: tally)")
            for item in self.items:
                pairs = "  ".join(f"{k}:{v}" for k, v in sorted(item.citation_draws.items()))
                lines.append(f"{item.label} ({item.doctype.value}, {item.citations} cit)  {pairs}")
        if self.result is not None:
            lines.append("")
            lines.append(render_result_table(self.result))
        return "\n".join(lines)


def _fmt_num(value: float | None, decimals: int = 3) -> str:
    if value is None:
        return "n/a"
    rounded = round(float(value), decimals)
    if rounded == int(rounded):
        return str(int(rounded))
    return repr(rounded)


def render_result_table(result: PropagationResult) -> str:
    """Fixed-width observed-vs-simulated table, one row per unit."""
    observed_label = "error-free" if result.config.direction == FIRST_KIND else "observed"
    header = (
        f"{'unit':<12} {'P':>6} {'C':>8} {'MNCS':>6}   "
        f"{'P sim':>18} {'C sim':>22} {'MNCS sim':>20}"
    )
    lines = [f"({observed_label} vs simulated median with central 95% interval)", header]
    for unit in result.units:
        obs = result.observed[unit]
        cells = []
        for indicator, decimals in (("P", 3), ("C", 3), ("MNCS", 2)):
            s = result.distribution(unit, indicator).summary
            if s is None:
                cells.append("n/a")
                continue
            cells.append(
                f"{_fmt_num(s.median, decimals)} "
                f"({_fmt_num(s.ci_low, decimals)}, {_fmt_num(s.ci_high, decimals)})"
            )
        lines.append(
            f"{unit:<12} {obs.p:>6} {obs.c:>8} {_fmt_num(obs.mncs, 2):>6}   "
            f"{cells[0]:>18} {cells[1]:>22} {cells[2]:>20}"
        )
    return "\n".join(lines)


def run_exercise(
    name: str,
    iterations: int = 2000,
    seed: int = 0,
    citation_sample: CitationErrorSample | None = None,
    confusion: DocTypeConfusionTable | None = None,
    mcmc_config: McmcConfig | None = None,
    workers: int = 1,
) -> ExerciseReport:
    """Run one of the built-in demonstration exercises.

    Exercise "1" predicts corrected citation counts and true document
    types for three example publications (an article with 5 citations, a
    review with 10, a letter with 0) and tallies the draws.  Exercises
    "2"-"4" generate a small two-unit scenario and propagate second-kind
    errors through the citations channel, the doctypes channel, and
    both.  "A1"-"A3" are the first-kind (error injection) counterparts
    on a different scenario and "A4" repeats "A3" at a hundredfold
    publication volume.

    Training data defaults to the synthesized sample built from the
    embedded audit marginal and the synthetic confusion stand-in; pass
    explicit inputs to override.  All randomness derives from ``seed``.
    """
    defs = _exercise_defs(subseed(seed, 1))
    if name not in defs:
        raise UsageError(f"unknown exercise {name!r}; valid names: {', '.join(list_exercises())}")
    exercise = defs[name]

    if citation_sample is None:
        citation_sample = synthesize_training_sample(seed=subseed(seed, 2))
    if confusion is None:
        confusion = synthetic_confusion_table()

    citation_posterior = None
    doctype_posterior = None
    if CHANNEL_CITATIONS in exercise.channels:
        spec = NegBinModelSpec(direction=exercise.direction)
        cfg = mcmc_config or McmcConfig(seed=subseed(seed, 3))
        citation_posterior = fit_citation_error_model(citation_sample, spec, cfg)
    if CHANNEL_DOCTYPES in exercise.channels:
        doctype_posterior = fit_doctype_error_model(confusion, direction=exercise.direction)

    if exercise.scenario is None:
        items = []
        demo = (
            ("P1", DocType.ARTICLE, 5),
            ("P2", DocType.REVIEW, 10),
            ("P3", DocType.LETTER, 0),
        )
        for k, (label, doctype, citations) in enumerate(demo):
            types = predict_doctype(doctype_posterior, doctype, iterations, subseed(seed, 10 + k))
            type_tally: dict[str, int] = {}
            for dt in types:
                type_tally[dt.value] = type_tally.get(dt.value, 0) + 1
            corrected = predict_error_free_citations(
                citation_posterior, citations, iterations, subseed(seed, 20 + k)
            )
            values, freqs = np.unique(corrected, return_counts=True)
            items.append(
                ItemPrediction(
                    label=label,
                    doctype=doctype,
                    citations=citations,
                    doctype_draws=type_tally,
                    citation_draws={int(v): int(f) for v, f in zip(values, freqs)},
                )
            )
        return ExerciseReport(
            name=name,
            direction=exercise.direction,
            channels=tuple(sorted(exercise.channels)),
            iterations=iterations,
            seed=seed,
            items=tuple(items),
            training_sample=citation_sample,
            confusion=confusion,
        )

    units, reference = generate_scenario(exercise.scenario)
    config = PropagationConfig(
        iterations=iterations,
        seed=subseed(seed, 4),
        channels=exercise.channels,
        direction=exercise.direction,
        key_mode=KEY_DOCTYPE,
        workers=workers,
    )
    result = propagate(
        units,
        reference,
        FittedModels(citation=citation_posterior, doctype=doctype_posterior),
        config,
    )
    return ExerciseReport(
        name=name,
        direction=exercise.direction,
        channels=tuple(sorted(exercise.channels)),
        iterations=iterations,
        seed=seed,
        result=result,
        training_sample=citation_sample,
        confusion=confusion,
    )


# ---------------------------------------------------------------------------
# Report and plot-data writers
# ---------------------------------------------------------------------------


def _result_payload(result: PropagationResult) -> dict:
    units_payload: dict = {}
    for unit in result.units:
        per_indicator = {}
        for indicator in INDICATOR_NAMES:
            dist = result.distribution(unit, indicator)
            s = dist.summary
            per_indicator[indicator] = {
                "observed": dist.observed,
                "median": s.median if s else None,
                "ci_low": s.ci_low if s else None,
                "ci_high": s.ci_high if s else None,
                "relative_uncertainty_pct": s.relative_uncertainty_pct if s else None,
                "iterations": result.config.iterations,
                "seed": result.config.seed,
            }
        units_payload[unit] = per_indicator
    return {
        "iterations": result.config.iterations,
        "seed": result.config.seed,
        "channels": sorted(result.config.channels),
        "direction": result.config.direction,
        "key_mode": result.config.key_mode,
        "units": units_payload,
    }


def write_report_json(result: PropagationResult, path: str | Path) -> None:
    """Write the full-precision per-unit report.  Byte-stable on reruns."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(_result_payload(result), handle, sort_keys=True, indent=1)
        handle.write("\n")


def write_plot_summary(result: PropagationResult, path: str | Path) -> None:
    """CSV of observed vs simulated interval per unit and indicator."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["unit", "indicator", "observed", "median", "ci_low", "ci_high"])
        for unit in result.units:
            for indicator in INDICATOR_NAMES:
                dist = result.distribution(unit, indicator)
                s = dist.summary
                writer.writerow(
                    [
                        unit,
                        indicator,
                        "" if dist.observed is None else repr(float(dist.observed)),
                        repr(s.median) if s else "",
                        repr(s.ci_low) if s else "",
                        repr(s.ci_high) if s else "",
                    ]
                )


def write_uncertainty_plot(result: PropagationResult, path: str | Path) -> None:
    """CSV relating unit size to relative MNCS uncertainty."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["unit", "P_median", "mncs_rel_uncertainty_pct"])
        for unit in result.units:
            p_summary = result.distribution(unit, "P").summary
            m_summary = result.distribution(unit, "MNCS").summary
            rel = m_summary.relative_uncertainty_pct if m_summary else None
            writer.writerow(
                [
                    unit,
                    repr(p_summary.median) if p_summary else "",
                    "" if rel is None else repr(rel),
                ]
            )
