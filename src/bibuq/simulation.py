"""Monte Carlo propagation of data errors into indicator distributions.

The engine redraws the underlying publication data (citation counts,
document types, or both) once per iteration from the fitted error
models, rebuilds the normalization cells from the redrawn data, and
recomputes every unit's indicators (``indicators.unit_indicators``).
The observed values take the same route: the recorded data is scored as
one more row with nothing redrawn.  Collecting the per-iteration values
yields one empirical distribution per unit and indicator, summarized by
the median, a central 95% interval, and the relative uncertainty.

Within an iteration one posterior parameter draw is shared by all
publications: each iteration is one coherent hypothetical state of the
world.  Iteration i takes chain i mod C and that chain's kept draw
(i div C) mod kept (``predictive.cycled_params``), so even a short run
uses every chain.

Iterations run in kernel blocks: each iteration's draws fill one row of
(block, columns) arrays, a column being a cell or a publication, and the
cells and indicators of the whole block are computed together.  The
block size is one memory budget in column-iterations, ``BLOCK_BUDGET``,
over the column count, whether a column is a cell or a publication, and
does not depend on the worker count.  Each block draws its randomness
from its own substream, keyed by (seed, block index), with one call per
kind of draw: the Dirichlet probability rows of every iteration, then the
new doctypes, then the omitted citations.  Every run, in process or
pooled, with or without the item dump, consumes the same ordered list of
whole blocks, so results are bit-identical whatever the worker count;
they do depend on the block size, that is on the budget and the column
count.  Past 10,000 columns a block is one iteration, keyed by (seed,
iteration).

What no draw moves is built once per run, with the workspace
(``_Workspace``): the doctype draw's split of the groups into
small-group items and large groups, each with its run's tally row
(``predictive.GroupSplit``), the columns' recorded items, and
index arrays for every row of the run's largest block, namely each bin's
normalization cell key, unit slot and cell, and the (row, bin) slots its
columns' Poisson rates are summed into, or per item each publication's
(row, bin pair) base.  A short last block reads their leading rows.
Once per block the kernel makes its draws and computes only what they
move: the per-bin items and citations, per item the drawn doctypes
added to the bin pair bases and the bin sums, the cell rebuild and the
scores.

Given the parameter draw, publications with the same unit (or the
reference set), cell group, citation count and recorded doctype are iid,
so the kernel groups them.  P, C and MNCS count core items only
(articles and reviews), and a letter or an "other" item falls only in a
non-core cell, which no score reads.  So with doctype redraws the
kernel's columns are (unit, cell group, citation count) x new core
doctype: the groups that differ only in recorded doctype form one run
and share its 2 columns, since the omitted-count law never reads the
recorded doctype.  Each group's publications are tallied over (article,
review, non-core) on its recorded doctype's Dirichlet row with the two
non-core concentrations summed, straight into its run's tally
(``predictive.draw_doctype_counts``: one uniform per publication in a
small group, one multinomial for a larger one).  A run's tally puts k
of its publications under each new core doctype, and the omitted
citations of a column's k items are one gamma-Poisson sum,
``poisson(standard_gamma(k * theta) * mu / theta)``, the exact law of k
summed negative binomial draws whatever the items' recorded doctypes.
The items redrawn as non-core get no column and no citation draw.
Without doctype redraws a column is a group.

No score reads a column's own citation count: P, C, MNCS and the cell
means read only sums over the columns that share a unit (or the
reference set), cell and doctype.  So a grouped kernel scores bins of
those columns, and draws the omitted citations per bin: it draws every
column's gamma as above, sums the columns' Poisson rates ``gamma * mu /
theta`` into their bin, and draws one Poisson per bin.  Given the
gammas the columns' omissions are independent Poissons, and their sum
is one Poisson of the summed rates, so the law is exact.  A bin carries
its items, its recorded citations plus its omissions, and its cell, and
the cell sums and counts and the indicators follow exactly from these
per-bin values.  A publication is a group and a run of its own, and so
a bin of its own, where exactness needs its own value: first-kind
citation redraws (the clamp at zero), uncited unit publications under
reference-only normalization (the zero-mean-cell rule), and runs with
an item dump.  When the grouped columns (two per run with doctype
redraws, one per group without) would not be fewer than the
publications, every publication is drawn on its own, in layout order,
one uniform for its doctype.  Such per-item rows are summed into bins
before they are scored, and then scored as grouped rows are: each row
adds up its publications' items and citations per (unit or reference
set, cell group, core doctype), kept apart by being uncited under
reference-only normalization.  Their non-core items fall in no bin, as no
score reads their cells.  P, C and the exclusions are the per-item sums
exactly; MNCS adds one citation sum over the cell mean per bin, so it
can differ from an item-by-item sum in the last bits.

A first-kind citation redraw turns c into c - min(O, c), so it reads the
omitted count O only through min(O, c), a law on 0..c.  It is drawn by
inversion (``predictive.draw_clamped_omitted``): one uniform per
(iteration, publication), compared with the negative binomial CDF summed
by the pmf recursion from P(O = 0).  mu and P(O = 0) are computed once per
distinct citation count per iteration, through the citation-value index
the workspace keeps.  Most publications settle at 0 on one comparison.
For the rest the CDF of each distinct count is summed a chunk of steps at
a time, and each publication still walking takes its step in the chunk,
or c.  A publication whose walk could be long, by its tail ratio mu /
(theta + mu) or its mean, keeps the gamma-Poisson draw, clamped at c.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from itertools import chain
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

from .datamodel import PublicationSet, UsageError, ValidationError, pooled_fields
from .errormodels import (
    FIRST_KIND,
    SECOND_KIND,
    DirichletPosterior,
    NegBinPosterior,
    is_integer,
    substream_rng,
)
from .indicators import (
    KEY_DOCTYPE,
    KEY_MODES,
    IndicatorResult,
    cell_groups,
    cell_means,
    indicator_results,
    sorted_runs,
    unit_indicators,
)
# Not called here: bench/spans.py hooks these two names on this module.
from .indicators import build_normalization, indicators_for  # noqa: F401
from .predictive import (
    GroupSplit,
    cycled_params,
    draw_clamped_omitted,
    draw_doctype_codes,
    draw_doctype_counts,
    draw_omitted,
    predictive_dump,
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
    "summarize",
    "propagate",
]

CHANNEL_CITATIONS = "citations"
CHANNEL_DOCTYPES = "doctypes"
ALL_CHANNELS = frozenset({CHANNEL_CITATIONS, CHANNEL_DOCTYPES})


iteration_rng = substream_rng  # the kernel's name for one block's substream


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

    The values are ``np.median``'s and ``np.quantile``'s bit for bit, with
    their partitions and arithmetic, but without their NaN check, whose
    first call imports ``numpy.ma``.  A sort would do for all but the sign
    of a zero: it may order -0.0 and 0.0 otherwise than a partition.
    """
    values = np.asarray(replicates, dtype=np.float64).ravel()
    values = values[~np.isnan(values)]
    n = values.size
    if n == 0:
        raise ValidationError("no defined replicates to summarize")
    # np.median is np.mean of the middle one or two: a sum that starts at
    # 0.0, so a -0.0 sums to 0.0, over their count.
    half = n // 2
    if n % 2:
        median = float(0.0 + np.partition(values, [half, -1])[half])
    else:
        middle = np.partition(values, [half - 1, half, -1])
        median = float((0.0 + middle[half - 1] + middle[half]) / 2)
    # np.quantile's linear method: from the values at the floor and the
    # next position of (n - 1) q, both the last one past the end, the
    # interpolation runs from the nearer end.
    index = (n - 1) * np.array([0.025, 0.975])
    below = np.floor(index)
    above = below + 1
    below[index >= n - 1] = above[index >= n - 1] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    ranked = np.partition(values, sorted({0, -1, *below.tolist(), *above.tolist()}))
    start, stop, weight = ranked[below], ranked[above], index - below
    step = stop - start
    lo, hi = np.where(weight >= 0.5, stop - step * (1 - weight), start + step * weight).tolist()
    rel = 100.0 * (hi - lo) / median if median != 0.0 else None
    return DistributionSummary(
        median=median, ci_low=lo, ci_high=hi, relative_uncertainty_pct=rel, n=int(values.size)
    )


@dataclass(frozen=True)
class IndicatorDistribution:
    """Replicate distribution of one indicator for one unit.

    ``summary`` is None only when every replicate was undefined (an
    MNCS whose selection came up empty in all iterations).  For MNCS,
    ``excluded`` holds per iteration the number of the unit's core
    items the MNCS left out (see ``indicators.unit_indicators``); it is
    None for P and C.
    """

    unit: str
    indicator: str
    observed: float | None
    replicates: np.ndarray
    summary: DistributionSummary | None
    excluded: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropagationConfig:
    """Settings of a propagation run.

    ``channels`` selects which error mechanisms are redrawn, a collection
    of channel names; disabled channels pass the input data through
    unchanged.  ``direction``
    chooses correction (second kind: observed data is corrected upward)
    or injection (first kind: error-free data is corrupted).
    Every iteration uses one posterior parameter draw for all
    publications: chain ``iteration % chains``, kept draw
    ``(iteration // chains) % kept``.
    ``pooled_normalization`` includes the assessed units in the
    normalization universe alongside the reference set.  ``iterations``,
    ``seed`` and ``workers`` take Python or numpy integers, but not bools,
    and are stored as Python ints; ``pooled_normalization`` takes a Python
    or numpy bool and is stored as a Python bool.
    """

    iterations: int = 2000
    seed: int = 0
    channels: frozenset = ALL_CHANNELS
    direction: str = SECOND_KIND
    key_mode: str = KEY_DOCTYPE
    workers: int = 1
    pooled_normalization: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.channels, str):
            raise UsageError(
                f"channels must be a collection of channel names, not the string {self.channels!r}"
            )
        object.__setattr__(self, "channels", frozenset(self.channels))
        for name in ("iterations", "seed", "workers"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        pooled = self.pooled_normalization
        if not isinstance(pooled, (bool, np.bool_)):
            raise ValidationError(f"pooled_normalization must be a bool, got {pooled!r}")
        object.__setattr__(self, "pooled_normalization", bool(pooled))
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
    # How the run went, for the run manifest and not for report.json:
    # worker processes opened, publications, exchangeable groups, kernel
    # columns and scoring bins (per item, the bins each row is tallied
    # into), iterations per kernel block and blocks run, whether the kernel
    # drew per group or per publication, and the seconds spent in each
    # stage (workspace layout, scoring the recorded data, the kernel's
    # iterations, summaries).
    run_info: Mapping[str, object] = field(default_factory=dict)

    def distribution(self, unit: str, indicator: str) -> IndicatorDistribution:
        return self.distributions[unit][indicator]


# Column-iterations simulated together in one block.  A block holds a
# handful of (block, columns) arrays, so this bounds the kernel's memory;
# it does not depend on the worker count.  A block's fixed costs (a
# substream, the Dirichlet rows, the per-group or per-value draw work and
# the scoring calls) are shared by its rows, whether a column is a cell or
# a publication.
BLOCK_BUDGET = 20000


def _block_size(columns: int) -> int:
    """Iterations per kernel block: the budget over the columns, at least one."""
    return max(1, BLOCK_BUDGET // max(columns, 1))


@dataclass
class _Workspace:
    """Precomputed arrays shared by all iterations (and worker processes).

    Publications are laid out unit members first, then the reference
    set, and sorted into exchangeable groups (see ``_build_workspace``).
    The kernel draws on columns.  When grouping would not narrow it
    (``per_item``), column j is publication j and its doctype is redrawn
    in place from ``col_types``.  Without doctype redraws a column is a
    group.  With them a column is a (run, new core doctype) cell, ``run *
    2 + doctype``: a run is the groups that share unit slot, cell group,
    citation count and singleton id and differ only in their recorded
    doctype, which the omitted-count law never reads.  ``doctype_split``
    splits the groups once for ``draw_doctype_counts``: each group is
    tallied over article, review and non-core on its recorded (first
    kind: true) doctype's row, into its run's row, the run's 2 columns.
    ``col_items`` holds each column's recorded items: a group's size
    without doctype redraws, a run's recorded articles or reviews with
    them, and None when ``per_item``.  ``concentrations`` holds
    the Dirichlet rows the doctype draws use: (4, 4) when ``per_item``,
    else (4, 3) with the non-core categories merged.  Unit columns come
    first.

    The kernel scores bins, ``n_bins`` of them.  With grouped columns
    ``bin_order`` lists the columns bin by bin and ``bin_starts`` where
    each bin starts in it, for the integer per-bin sums of items and
    citations, and a bin holds the columns that share unit slot (or the
    reference set), cell group, doctype and singleton id, whatever their
    citation counts: no score reads a column's own count, only sums over
    a unit's (or the universe's) items in one cell.  An uncited
    publication outside the normalization universe is kept apart from
    cited ones too, so that a unit bin in a zero-mean cell is all cited
    or all uncited.  When ``per_item`` the bins are drawn per row
    instead, and ``bin_order`` and ``bin_starts`` are None: each (set
    slot, cell group) pair of the publications, in sorted order, has an
    article bin and a review bin, and under reference-only normalization
    as many again for its uncited items.  A row tallies its publications
    over 4 doctype slots per bin pair: publication j of doctype d goes to
    its pair's base plus d, 4 further when uncited under reference-only
    normalization, and the 2 non-core slots of every 4 are cut off.  A
    bin's cell key is its cell group times 4 plus its doctype, below
    ``n_cells``; the normalization counts it in its own cell group in the
    universe, otherwise in a spill group past the field-less one that no
    score reads.  Unit bins come first.  ``ids`` holds the unit
    publications' ids in a run that dumps them.

    The index arrays that no draw moves are built once per run, flat in
    C order, for the rows of the run's largest block: ``block_size``, or
    the run's iterations if fewer.  A block of fewer rows (the run's
    last) reads their leading entries.  Entry j of row r is, for
    ``n_units`` unit slots per row:
    - ``norm_keys``: bin j's normalization cell key plus ``r * n_cells``;
    - ``bin_slots``: with grouped columns, column j's bin plus ``r *
      n_bins``, the (row, bin) slot its Poisson rate is summed into;
      when ``per_item``, publication j's bin pair base plus
      ``r * 2 * n_bins``, to which a block adds its doctype slot;
    - ``unit_slots`` and ``unit_cells``: bin j's unit slot plus ``r *
      n_units``, or a slot past every row's for a bin that is no unit's
      core bin, and its cell key plus ``r * n_cells``.
    Only the draws and the sums, scores and cell rebuild of what they
    move are computed per block.

    Under first-kind citation redraws, ``cite_values`` holds the distinct
    citation counts and ``cite_index`` each column's entry in it, so a
    block computes each count's law once per row.
    """

    col_citations: np.ndarray
    col_log1p: np.ndarray
    col_types: np.ndarray
    col_items: np.ndarray | None
    doctype_split: GroupSplit | None
    bin_order: np.ndarray | None
    bin_starts: np.ndarray | None
    n_bins: int
    n_cells: int
    n_units: int
    bin_slots: np.ndarray
    norm_keys: np.ndarray
    unit_slots: np.ndarray
    unit_cells: np.ndarray
    params: np.ndarray | None
    concentrations: np.ndarray | None
    config: PropagationConfig
    block_size: int
    publications: int
    groups: int
    per_item: bool
    ids: list[str] | None = None
    cite_values: np.ndarray | None = None
    cite_index: np.ndarray | None = None


def _simulate_block(ws: _Workspace, bounds: tuple[int, int]) -> tuple[np.ndarray | None, ...]:
    """Redraw the data for iterations ``bounds``, [start, stop), and score every unit.

    [start, stop) is one kernel block: ``start`` is a multiple of
    ``ws.block_size`` and the block draws from the substream keyed by
    (seed, ``start // ws.block_size``), one call per kind of draw (two
    for the grouped doctypes), each iteration one row of (iterations,
    ...) arrays.  In order: the Dirichlet gammas of the probability rows,
    (iterations, 4, 4) when ``per_item`` and otherwise (iterations, 4, 3)
    over article, review and non-core; the new doctypes, (iterations,
    columns) uniforms when ``per_item``, and otherwise a tally per
    (iteration, run) over those 3 categories, drawn as one uniform per
    item of every small group and then one multinomial per large group,
    each added into its run's tally (``draw_doctype_counts``), whose
    article and review counts are the run's 2 columns; then the omitted
    citations, one gamma per (iteration, column) with its count of items
    and its iteration's parameter row, then one Poisson per (iteration,
    bin) of its columns' summed rates (per column when ``per_item``).
    First-kind citation redraws, always per item, draw instead one uniform
    per (iteration, publication), then one gamma and then one Poisson for
    each publication past the inversion's walk bounds
    (``draw_clamped_omitted``).  The columns' items and citations are
    summed into their bins (``_binned``), and the bins are scored.  The
    draws therefore depend on ``BLOCK_BUDGET`` and the column count, which
    set the block size, and on where the run's last block ends, but not
    on the worker count.  A block of one iteration is keyed by (seed,
    iteration).  A short last block reads the leading rows of the
    workspace's block index arrays.

    Returns per row and unit P, C, MNCS and the MNCS exclusion count,
    then, in a run that dumps its items (``ws.ids``), the unit
    publications' citations, (rows, publications), and doctype codes,
    (rows, publications) or one row all rows share; None twice otherwise.
    """
    cfg = ws.config
    start, stop = bounds
    rows = stop - start
    rng = iteration_rng(cfg.seed, start // ws.block_size)
    # Items per column: none when every column is one publication, else
    # the group sizes or, once doctypes are redrawn, each run's drawn
    # article and review counts.  Per item, each publication's doctype.
    k, types = ws.col_items, ws.col_types
    if CHANNEL_DOCTYPES in cfg.channels:
        concentrations = ws.concentrations
        prob_rows = sample_probability_rows(
            rng, np.broadcast_to(concentrations, (rows,) + concentrations.shape)
        )
        if ws.per_item:
            types = draw_doctype_codes(rng, prob_rows, ws.col_types)
        else:
            k = draw_doctype_counts(rng, prob_rows, ws.doctype_split)[..., :2].reshape(rows, -1)
    change = None  # the citations each bin (per item, publication) gains or loses
    if CHANNEL_CITATIONS in cfg.channels:
        params = ws.params[np.arange(start, stop) % ws.params.shape[0]]
        if cfg.direction == SECOND_KIND:
            bins = None
            if not ws.per_item:
                bins = (ws.bin_slots[: rows * ws.col_citations.size], ws.n_bins)
            change = draw_omitted(rng, params[:, None, :], ws.col_log1p, k, bins=bins)
        else:
            # Drawn per item: each publication loses min(O, c) of its own c.
            change = -draw_clamped_omitted(rng, params, ws.cite_values, ws.cite_index)
    scores = _score_rows(ws, rows, *_binned(ws, rows, k, types, change))
    if ws.ids is None:
        return scores + (None, None)
    n_u = len(ws.ids)
    cites = ws.col_citations[:n_u] + (0 if change is None else change[:, :n_u])
    return scores + (np.broadcast_to(cites, (rows, n_u)), types[..., :n_u])


def _binned(ws: _Workspace, rows: int, k, types, change=None):
    """Items and citations per bin, (rows, bins) or one (bins,) row all rows share.

    With grouped columns, ``k`` is the items per column, (rows, columns)
    or one row, and each bin sums its columns' items and recorded
    citations, then gains ``change``, its citations' change per row.  Per
    item, every publication adds ``change``, its own change per row, to
    its citations, and each row tallies its publications by ``types``,
    their doctype codes, into its bins (see ``_Workspace``).
    """
    if not ws.per_item:
        c = k * ws.col_citations
        k = np.add.reduceat(k[..., ws.bin_order], ws.bin_starts, axis=-1)
        c = np.add.reduceat(c[..., ws.bin_order], ws.bin_starts, axis=-1)
        return k, c if change is None else c + change
    n = ws.col_citations.size
    c = ws.col_citations if change is None else ws.col_citations + change
    slots = ws.bin_slots[: rows * n].reshape(rows, n) + types
    if not ws.config.pooled_normalization:
        slots += 4 * (c == 0)
    slots = slots.ravel()
    size = rows * 2 * ws.n_bins
    k = np.bincount(slots, None, size)
    c = np.bincount(slots, np.broadcast_to(c, (rows, n)).ravel(), size)
    # Of every 4 doctype slots, the 2 non-core ones are cut off.
    return tuple(sums.reshape(-1, 4)[:, :2].reshape(rows, -1) for sums in (k, c))


def _score_recorded(ws: _Workspace) -> tuple[np.ndarray, ...]:
    """``_score_rows`` of the recorded data: one row, nothing redrawn.

    The columns hold their recorded items and doctypes and are summed into
    their bins as the kernel sums them.
    """
    return _score_rows(ws, 1, *_binned(ws, 1, ws.col_items, ws.col_types))


def _each_row(values: np.ndarray, rows: int) -> np.ndarray:
    """``values`` flat over ``rows`` rows; one (n,) row is repeated for each."""
    return np.tile(values, rows) if values.ndim == 1 and rows > 1 else values.reshape(-1)


def _score_rows(ws: _Workspace, rows: int, k, c) -> tuple[np.ndarray, ...]:
    """Rebuild the normalization cells of ``rows`` data rows and score every unit.

    Per bin, as (rows, bins) or one (bins,) row that all rows share: ``k``
    its item count and ``c`` its citations.  The cells of all rows are
    rebuilt together over the cell keys ``norm_keys``, and
    ``unit_indicators`` scores the bins in ``unit_slots``, one that is no
    unit's core bin in a slot past every row's, whose cells are
    ``unit_cells``.  A bin's items share its cell.  Where that cell's mean
    can be zero, either all of them are uncited or all are cited (see
    ``_Workspace``), so scoring the bin's sum applies the per-item rule to
    each item.  Returns per row and unit P, C, MNCS and the MNCS exclusion
    count.
    """
    k, c = _each_row(k, rows), _each_row(c, rows)
    n_bins = rows * ws.n_bins
    counts, means = cell_means(ws.norm_keys[:n_bins], c, rows * ws.n_cells, k)
    cells = ws.unit_cells[:n_bins]
    scores = unit_indicators(
        ws.unit_slots[:n_bins], rows * ws.n_units, c, counts[cells], means[cells], k
    )
    return tuple(values.reshape(rows, ws.n_units) for values in scores)


def _block_rows(first: np.ndarray, step: int, rows: int) -> np.ndarray:
    """``first`` once per row for ``rows`` rows, row r plus ``r * step``, flat in C order."""
    return (first + step * np.arange(rows)[:, None]).ravel()


def _build_workspace(
    units: Sequence[PublicationSet],
    reference: PublicationSet | None,
    models: FittedModels,
    config: PropagationConfig,
    keep_ids: bool = False,
) -> _Workspace:
    """Lay out the run's publications as kernel columns.

    Given an iteration's parameter draw, publications with the same unit
    (or the reference set), cell group, citation count and recorded
    doctype are iid, so they form one exchangeable group.  A publication
    is a group of its own wherever exactness needs its own values:
    under first-kind citation redraws (the clamp at zero), for unit
    publications without citations under reference-only normalization
    when citations are redrawn (a zero-mean cell leaves out a cited item
    but keeps an uncited one), and in any run that keeps ``ids`` for the
    item dump.  Groups sort by (unit slot, cell group, citation count,
    singleton id, recorded doctype); with doctype redraws the groups
    that agree on all but the last key form a run, which gets one column
    per new core doctype.  When these columns (two per run with doctype
    redraws, one per group without) would be no fewer than the
    publications, every publication is its own column, in layout order.
    Grouped columns are then binned for scoring by (unit slot, cell group,
    doctype, singleton id, uncited outside the normalization universe),
    and per-item rows are tallied into bins by (unit slot, cell group,
    drawn core doctype, uncited under reference-only normalization).
    """
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
    counts = Counter(pubset.name for pubset in units)
    repeated = sorted(name for name, count in counts.items() if count > 1)
    if repeated:
        raise UsageError(f"unit names must be unique; repeated: {', '.join(repeated)}")

    # Only the columns the layout reads are pooled; the ids only for a dump.
    sets = [*units, reference] if reference is not None else units
    sizes = [len(pubset) for pubset in sets]
    n = sum(sizes)
    n_unit_pubs = sum(sizes[: len(units)])
    unit_slot = np.repeat(np.arange(len(sets)), sizes)  # the reference set is slot len(units)
    citations = np.concatenate([pubset.citations for pubset in sets])
    dt_codes = np.concatenate([pubset.doctypes for pubset in sets])
    in_norm = np.arange(n) >= (0 if config.pooled_normalization else n_unit_pubs)

    # Field-less publications under doctype-year-field get one extra
    # group past the real ones; no normalization publication is counted
    # in it, so its cells are never occupied and those publications are
    # never scored.
    years = np.concatenate([pubset.years for pubset in sets])
    cellgroup, firsts = cell_groups(years, pooled_fields(sets)[0], config.key_mode)
    n_cellgroups = firsts.size
    in_norm &= cellgroup < n_cellgroups
    if not in_norm.any():
        raise UsageError("normalization universe is empty")

    redraw_citations = CHANNEL_CITATIONS in config.channels
    redraw_doctypes = CHANNEL_DOCTYPES in config.channels
    single = np.full(n, keep_ids)
    if redraw_citations and config.direction == FIRST_KIND:
        single[:] = True
    elif redraw_citations and not config.pooled_normalization:
        single[:n_unit_pubs] |= citations[:n_unit_pubs] == 0
    single_id = np.where(single, np.arange(n), -1)
    n_groups = n
    col_items = doctype_split = None
    rep = np.arange(n)  # one column per publication, in layout order
    col_types = dt_codes
    concentrations = models.doctype.concentrations if redraw_doctypes else None
    if not single.all():
        keys = (unit_slot, cellgroup, citations, single_id, dt_codes)
        order, starts = sorted_runs(keys)  # starts flags each group's first publication
        heads = order[starts]
        n_groups = heads.size
        if redraw_doctypes:
            # The groups are already in key order, so this sort keeps them
            # and flags where a key other than the recorded doctype changes.
            _, new_run = sorted_runs([key[heads] for key in keys[:-1]])
            runs = np.flatnonzero(new_run)
            grouped = 2 * runs.size < n
        else:
            grouped = n_groups < n
        if grouped:
            sizes = col_items = np.diff(np.flatnonzero(np.append(starts, True)))
            if redraw_doctypes:
                group_run = np.cumsum(new_run) - 1  # each group's run, its tally row
                rep = np.repeat(heads[runs], 2)
                col_types = np.tile(np.arange(2, dtype=np.int64), runs.size)
                # A grouped draw tallies article, review and non-core.
                # Merging two Dirichlet categories sums their concentrations,
                # so these rows have the exact law of the four-way rows'
                # first two entries and their sum of the last two.
                concentrations = np.column_stack(
                    [concentrations[:, :2], concentrations[:, 2:].sum(axis=1)]
                )
                doctype_split = GroupSplit(sizes, dt_codes[heads], 3, group_run)
                # A run's 2 columns hold its recorded articles and reviews.
                slots = 4 * np.repeat(group_run, sizes) + dt_codes[order]
                col_items = np.bincount(slots, None, 4 * runs.size).reshape(-1, 4)[:, :2].ravel()
            else:
                rep = heads
                col_types = dt_codes[heads]

    # A bin sums the columns that share its key (see _Workspace).  Keys
    # sort by unit slot, so the unit bins come first.
    per_item = col_items is None
    bin_order = bin_starts = None
    if per_item:
        # Each (set slot, cell group) pair's bins: article and review, and
        # under reference-only normalization as many again for the
        # uncited items, with 4 doctype slots per bin pair.
        width = 2 if config.pooled_normalization else 4
        order, starts = sorted_runs((unit_slot, cellgroup))
        col_bin = np.empty(n, dtype=np.int64)
        col_bin[order] = (np.cumsum(starts) - 1) * 2 * width
        bin_rep = np.repeat(order[starts], width)
        bin_types = np.tile(np.arange(2, dtype=np.int64), bin_rep.size // 2)
    else:
        uncited_outside = ~in_norm & (citations == 0)
        keys = (unit_slot[rep], cellgroup[rep], col_types, single_id[rep], uncited_outside[rep])
        bin_order, starts = sorted_runs(keys)
        col_bin = np.empty(rep.size, dtype=np.int64)
        col_bin[bin_order] = np.cumsum(starts) - 1
        bin_starts = np.flatnonzero(starts)
        bin_rep, bin_types = rep[bin_order[starts]], col_types[bin_order[starts]]
    n_bins, n_units = bin_rep.size, len(units)
    bin_unit = unit_slot[bin_rep]
    n_cells = (n_cellgroups + 2) * 4

    # The block index arrays: each (iteration, bin or column) index that no draw
    # moves, for the rows of the run's largest block, flat in C order (see
    # _Workspace).
    block_size = _block_size(rep.size)
    rows = min(block_size, config.iterations)
    # A bin outside the universe is counted in the group past the field-less
    # one, whose cells no score reads.  The reference bins and the non-core
    # unit bins are scored past every slot of the block.
    norm_base = np.where(in_norm[bin_rep], cellgroup[bin_rep], n_cellgroups + 1) * 4 + bin_types
    core = np.tile((bin_unit < n_units) & (bin_types <= 1), rows)
    col_citations = citations[rep]
    cite_values = cite_index = None
    if redraw_citations and config.direction == FIRST_KIND:
        cite_values, cite_index = np.unique(col_citations, return_inverse=True)
    return _Workspace(
        col_citations=col_citations,
        col_log1p=np.log1p(col_citations.astype(np.float64)),
        col_types=col_types,
        col_items=col_items,
        doctype_split=doctype_split,
        bin_order=bin_order,
        bin_starts=bin_starts,
        n_bins=n_bins,
        n_cells=n_cells,
        n_units=n_units,
        bin_slots=_block_rows(col_bin, 2 * n_bins if per_item else n_bins, rows),
        norm_keys=_block_rows(norm_base, n_cells, rows),
        unit_slots=np.where(core, _block_rows(bin_unit, n_units, rows), rows * n_units),
        unit_cells=_block_rows(cellgroup[bin_rep] * 4 + bin_types, n_cells, rows),
        params=(
            cycled_params(models.citation, models.citation.n_draws)
            if models.citation is not None
            else None
        ),
        concentrations=concentrations,
        config=config,
        block_size=block_size,
        publications=n,
        groups=n_groups,
        per_item=per_item,
        ids=list(chain.from_iterable(pubset.ids for pubset in units)) if keep_ids else None,
        cite_values=cite_values,
        cite_index=cite_index,
    )


def pool_processes(requested: int, blocks: int, cpus: int | None) -> int:
    """Worker processes to open: the request, capped by CPUs and by blocks.

    ``cpus`` is ``os.cpu_count()``, which may be None when it is unknown;
    at least one process is always returned.
    """
    return max(1, min(requested, blocks, cpus or 1))


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
    The observed indicators are the same cell rebuild and scoring applied
    to the input data.  Every run scores one sum per scoring bin, so its
    observed MNCS can differ from ``indicators_for``'s in the last bits.

    The iterations run as one ordered list of whole kernel blocks, each
    drawn from its own substream, a block holding the iterations that
    ``BLOCK_BUDGET`` column-iterations allow, whether its columns are
    cells or publications: in this process, or when ``workers`` asks for
    more, in a pool capped by the CPUs and the blocks (with a stderr note
    when it opens fewer), whose workers take the blocks in order.  The
    worker count changes no replicate.  Unit names must be unique; a
    repeated name raises UsageError.

    ``dump_items`` optionally writes every redrawn unit publication as a
    CSV row (iteration, publication_id, citations, doctype); dumping
    draws every publication on its own and runs in this process, with a
    stderr note when ``workers`` asks for more.
    """
    if isinstance(units, PublicationSet):
        units = [units]
    units = list(units)
    models = models or FittedModels()
    config = config or PropagationConfig()

    started = perf_counter()
    ws = _build_workspace(units, reference, models, config, keep_ids=dump_items is not None)
    workspace_done = perf_counter()

    observed = indicator_results(
        [pubset.name for pubset in units], *(values[0] for values in _score_recorded(ws))
    )
    observed_done = perf_counter()

    iters = config.iterations
    bounds = [(lo, min(lo + ws.block_size, iters)) for lo in range(0, iters, ws.block_size)]
    processes = 1
    if dump_items is not None:
        # In process: imap has no backpressure, so a pool would queue every
        # block's unit columns here, where the writer holds one at a time.
        if config.workers > 1:
            print(
                f"note: running 1 of {config.workers} requested worker processes "
                "(the item dump is written by one process)",
                file=sys.stderr,
            )
    elif config.workers > 1:
        cpus = os.cpu_count()
        processes = pool_processes(config.workers, len(bounds), cpus)
        if processes < config.workers:
            print(
                f"note: running {processes} of {config.workers} requested worker "
                f"processes ({cpus} CPUs, {len(bounds)} blocks)",
                file=sys.stderr,
            )

    shape = (iters, ws.n_units)
    p_rep, c_rep, m_rep, x_rep = (
        np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.int64)
    )
    with ExitStack() as stack:
        dump = None
        if dump_items is not None:
            handle = stack.enter_context(Path(dump_items).open("w", newline="", encoding="utf-8"))
            dump = predictive_dump(ws.ids, handle)
        simulate = partial(_simulate_block, ws)
        if processes == 1:
            blocks = map(simulate, bounds)
        else:
            # Imported only here: it is about a tenth of `import bibuq`.
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(processes=processes))
            # One chunk per worker, so each worker unpickles the workspace once.
            blocks = pool.imap(simulate, bounds, chunksize=-(-len(bounds) // processes))
        # The one propagation loop, over whole blocks in order.
        for lo, hi in bounds:
            block = next(blocks)
            p_rep[lo:hi], c_rep[lo:hi], m_rep[lo:hi], x_rep[lo:hi] = block[:4]
            if dump is not None:
                dump(lo, block[4], block[5])
            del block  # not held while the next block is drawn
    kernel_done = perf_counter()

    distributions: dict[str, dict[str, IndicatorDistribution]] = {}
    for u, pubset in enumerate(units):
        obs = observed[pubset.name]
        per_indicator = {}
        for indicator, reps, obs_value, excluded in (
            ("P", p_rep[:, u], float(obs.p), None),
            ("C", c_rep[:, u], float(obs.c), None),
            ("MNCS", m_rep[:, u], obs.mncs, x_rep[:, u]),
        ):
            defined = ~np.isnan(reps)
            per_indicator[indicator] = IndicatorDistribution(
                unit=pubset.name,
                indicator=indicator,
                observed=obs_value,
                replicates=reps,
                summary=summarize(reps) if defined.any() else None,
                excluded=excluded,
            )
        distributions[pubset.name] = per_indicator
    summaries_done = perf_counter()

    return PropagationResult(
        units=tuple(pubset.name for pubset in units),
        observed=observed,
        distributions=distributions,
        config=config,
        run_info={
            "worker_processes": processes,
            "publications": ws.publications,
            "exchangeable_groups": ws.groups,
            "kernel_columns": ws.col_citations.size,
            "kernel_bins": ws.n_bins,
            "kernel_block_size": ws.block_size,
            "kernel_blocks": len(bounds),
            "grouped_draws": not ws.per_item,
            "timings": {
                "workspace": workspace_done - started,
                "observed": observed_done - workspace_done,
                "kernel": kernel_done - observed_done,
                "summaries": summaries_done - kernel_done,
            },
        },
    )

