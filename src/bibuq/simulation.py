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
block size is set by a memory budget in column-iterations and the column
count, not by the worker count: ``BLOCK_BUDGET`` for grouped columns, and
the larger ``_ITEM_BUDGET`` where every column is one publication, whose
blocks pay a fixed cost per block (a substream, the Dirichlet rows, the
citation draw's per-value work and the scoring calls) that a few rows
share.  Each block draws its randomness from its own substream, keyed by
(seed, block index), with one call per kind of draw: the Dirichlet
probability rows of every iteration, then the new doctypes, then the
omitted citations.  Every run, in process or pooled, with or without the
item dump, consumes the same ordered list of whole blocks, so results are
bit-identical whatever the worker count; they do depend on the block
size, that is on the budget and the column count.  Past half of its
budget in columns a block is one iteration, keyed by (seed, iteration):
past 4,096 grouped columns or 10,000 publications.

What no draw moves is built once per run, with the workspace
(``_Workspace``): the doctype draw's split of the groups into
small-group items and large groups, each with its run's tally row
(``predictive.GroupSplit``), the columns' recorded items, and
index arrays for every row of the run's largest block, namely each bin's
normalization cell key, the (row, bin) slots its columns' Poisson rates
are summed into, each scored bin's or entry's unit slot and cell, and
per item each unit publication's scoring-entry base.  A short last block
reads their leading rows.  Once per block the kernel makes its draws and
computes only what they move: the per-bin items and citations, per item
the drawn doctypes added to the cell keys and entry bases and the entry
sums, the cell rebuild and the scores.

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
one uniform for its doctype.  Such per-item rows are scored from sums
too: each row adds up its unit publications' items and citations per
(unit, cell group, core doctype), kept apart by being uncited where the
unit publications are outside the normalization universe, and those
entries are scored as bins are.  P, C and the exclusions are the
per-item sums exactly; MNCS adds one citation sum over the cell mean per
entry, so it can differ from an item-by-item sum in the last bits.

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

    ``channels`` selects which error mechanisms are redrawn; disabled
    channels pass the input data through unchanged.  ``direction``
    chooses correction (second kind: observed data is corrected upward)
    or injection (first kind: error-free data is corrupted).
    Every iteration uses one posterior parameter draw for all
    publications: chain ``iteration % chains``, kept draw
    ``(iteration // chains) % kept``.
    ``pooled_normalization`` includes the assessed units in the
    normalization universe alongside the reference set.  ``iterations``,
    ``seed`` and ``workers`` take Python or numpy integers, but not bools,
    and are stored as Python ints.
    """

    iterations: int = 2000
    seed: int = 0
    channels: frozenset = ALL_CHANNELS
    direction: str = SECOND_KIND
    key_mode: str = KEY_DOCTYPE
    workers: int = 1
    pooled_normalization: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "channels", frozenset(self.channels))
        for name in ("iterations", "seed", "workers"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
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
    # columns and scoring bins, iterations per kernel block and blocks run,
    # whether the kernel drew per group or per publication, and the seconds
    # spent in each stage (workspace layout, scoring the recorded data, the
    # kernel's iterations, summaries).
    run_info: Mapping[str, object] = field(default_factory=dict)

    def distribution(self, unit: str, indicator: str) -> IndicatorDistribution:
        return self.distributions[unit][indicator]


# Column-iterations simulated together in one block.  A block holds a
# handful of (block, columns) arrays, so this bounds the kernel's memory;
# it does not depend on the worker count.
BLOCK_BUDGET = 8192

# Column-iterations of a per-item block, where every column is one
# publication.  A per-item block's fixed costs are paid once per block, so
# a few rows share them: at 5,000 publications 4 rows ran about 1.4x as
# fast as 1, and more rows gained little while memory grew with them.
_ITEM_BUDGET = 20000


def _block_size(columns: int, per_item: bool) -> int:
    """Iterations per kernel block: the budget over the columns, at least one."""
    return max(1, (_ITEM_BUDGET if per_item else BLOCK_BUDGET) // max(columns, 1))


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

    The kernel scores bins, ``n_bins`` of them, and ``bin_types`` holds
    their recorded doctypes.  When ``per_item`` bin j is column j, and
    ``bin_order`` and ``bin_starts`` are None.  Otherwise ``bin_order``
    lists the columns bin by bin and ``bin_starts`` where each bin starts
    in it, for the integer per-bin sums of items and citations, and a bin
    holds the columns that share unit slot (or the reference set), cell
    group, doctype and singleton id, whatever their citation counts: no
    score reads a column's own count, only sums over a unit's (or the
    universe's) items in one cell.  An uncited publication outside the
    normalization universe is kept apart from cited ones too, so that a
    unit bin in a zero-mean cell is all cited or all uncited.  A bin's
    cell key is its cell group times 4 plus its doctype, below
    ``n_cells``; the normalization counts it in its own cell group in the
    universe, otherwise in a spill group past the field-less one that no
    score reads.  Unit bins come first, ``n_ubins`` of them.  ``ids``
    holds the unit publications' ids in a run that dumps them.

    When ``per_item``, a row sums its unit publications into scoring
    entries: one per (unit slot, cell group) pair they occupy and core
    doctype, and under reference-only normalization as many again for
    the uncited ones.  The sums run over 4 slots per pair and doctype
    pair: publication j of doctype d goes to the slot of its entry base
    plus d, 4 further when uncited under reference-only normalization,
    and the 2 non-core slots of every 4 are cut off.  Otherwise every bin
    is a scoring entry.  Each row has ``n_scored`` entries.

    The index arrays that no draw moves are built once per run, flat in
    C order, for the rows of the run's largest block: ``block_size``, or
    the run's iterations if fewer.  A block of fewer rows (the run's
    last) reads their leading entries.  Entry j of row r is, for
    ``n_units`` unit slots per row:
    - ``norm_keys``: bin j's normalization cell key plus ``r * n_cells``,
      and when ``per_item`` without its doctype, which a block adds;
    - ``bin_slots`` (grouped only): column j's bin plus ``r * n_bins``,
      the (row, bin) slot its Poisson rate is summed into;
    - ``entry_base`` (``per_item`` only): unit publication j's entry base
      plus ``r * 2 * n_scored``;
    - ``unit_slots`` and ``unit_cells``: scoring entry j's unit slot plus
      ``r * n_units``, or with grouped columns a slot past every row's
      for a bin that is no unit's core bin, and its cell key plus ``r *
      n_cells``.
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
    bin_types: np.ndarray
    n_ubins: int
    n_scored: int
    n_cells: int
    n_units: int
    bin_slots: np.ndarray | None
    norm_keys: np.ndarray
    unit_slots: np.ndarray
    unit_cells: np.ndarray
    entry_base: np.ndarray | None
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


def _worker_block(ws: _Workspace, bounds: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """One block's P, C, MNCS and exclusion rows, without its unit columns."""
    return _simulate_block(ws, *bounds)[:4]


def _simulate_block(ws: _Workspace, start: int, stop: int) -> tuple[np.ndarray | None, ...]:
    """Redraw the data for iterations [start, stop) and score every unit.

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
    (``draw_clamped_omitted``).  The columns' items and recorded citations
    are summed into their bins, and the bins are scored (per item, each
    row's publications into its scoring entries).  The draws therefore
    depend on the budget (``BLOCK_BUDGET``, or ``_ITEM_BUDGET`` when
    ``per_item``) and the column count, which set the block size, and on
    where the run's last block ends, but not on the worker count.  A block
    of one iteration is keyed by (seed, iteration).  A short last block
    reads the leading rows of the workspace's block index arrays.
    """
    cfg = ws.config
    rows = stop - start
    rng = iteration_rng(cfg.seed, start // ws.block_size)
    # Items per column: none when every column is one publication, else
    # the group sizes or, once doctypes are redrawn, each run's drawn
    # article and review counts.
    k = ws.col_items
    types = ws.bin_types
    if CHANNEL_DOCTYPES in cfg.channels:
        concentrations = ws.concentrations
        prob_rows = sample_probability_rows(
            rng, np.broadcast_to(concentrations, (rows,) + concentrations.shape)
        )
        if ws.per_item:
            types = draw_doctype_codes(rng, prob_rows, ws.col_types)
        else:
            k = draw_doctype_counts(rng, prob_rows, ws.doctype_split)[..., :2].reshape(rows, -1)
    change = None  # the citations each bin gains (second kind) or loses
    if CHANNEL_CITATIONS in cfg.channels:
        params = ws.params[np.arange(start, stop) % ws.params.shape[0]]
        if cfg.direction == SECOND_KIND:
            bins = None
            if ws.bin_slots is not None:
                bins = (ws.bin_slots[: rows * ws.col_citations.size], ws.n_bins)
            change = draw_omitted(rng, params[:, None, :], ws.col_log1p, k, bins=bins)
        else:
            # Drawn per item: each publication loses min(O, c) of its own c.
            change = -draw_clamped_omitted(rng, params, ws.cite_values, ws.cite_index)
    k, c = _binned(ws, k)
    if change is not None:
        c = c + change
    return _score_rows(ws, rows, c, types, k)


def _binned(ws: _Workspace, k):
    """Items and recorded citations per bin, given the items ``k`` per column.

    ``k`` is (rows, columns) or one (columns,) row that every row shares,
    and the bins come out in its shape.  It is None when every column is
    one publication, and is then returned as it is, with the columns' own
    citations.
    """
    c = ws.col_citations if k is None else k * ws.col_citations
    if ws.bin_order is None:
        return k, c
    return (
        np.add.reduceat(k[..., ws.bin_order], ws.bin_starts, axis=-1),
        np.add.reduceat(c[..., ws.bin_order], ws.bin_starts, axis=-1),
    )


def _score_recorded(ws: _Workspace) -> tuple[np.ndarray | None, ...]:
    """``_score_rows`` of the recorded data: one row, nothing redrawn.

    The columns hold their recorded items (``col_items``) and are summed
    into their bins as the kernel sums them.
    """
    k, c = _binned(ws, ws.col_items)
    return _score_rows(ws, 1, c, ws.bin_types, k)


def _each_row(values: np.ndarray, rows: int) -> np.ndarray:
    """``values`` flat over ``rows`` rows; one (n,) row is repeated for each."""
    return np.tile(values, rows) if values.ndim == 1 and rows > 1 else values.reshape(-1)


def _score_rows(ws: _Workspace, rows: int, c, types, k) -> tuple[np.ndarray | None, ...]:
    """Rebuild the normalization cells of ``rows`` data rows and score every unit.

    Per bin, as (rows, bins) or one (bins,) row that all rows share: ``c``
    its citations and ``k`` its item count (None when every bin is one
    publication).  ``types`` is read only when every bin is one
    publication: the drawn doctype codes, or the recorded ``bin_types``.
    The cells of all rows are rebuilt together over the cell keys
    ``norm_keys`` (per item, plus each publication's doctype), and
    ``unit_indicators`` scores the entries in ``unit_slots``, whose cells
    are ``unit_cells``: with grouped columns every bin, one that is no
    unit's core bin in a slot past every row's; per item, each row first
    sums its unit publications' items and citations into scoring entries
    (see ``_Workspace``).  Returns per row and unit P, C, MNCS and the
    MNCS exclusion count, then, when ``per_item``, the unit publications'
    citations (rows, publications) and doctype codes, (rows,
    publications) or one row all rows share, for the item dump; None
    twice otherwise.
    """
    c = _each_row(c, rows)
    if k is not None:
        k = _each_row(k, rows)
    keys = ws.norm_keys[: rows * ws.n_bins]
    if ws.per_item:
        keys = (keys.reshape(rows, -1) + types).ravel()
    counts, means = cell_means(keys, c, rows * ws.n_cells, k)

    # Score the bins.  A bin's items share its cell.  Where that cell's
    # mean can be zero, either all of them are uncited or all are cited
    # (see _Workspace), so scoring the bin's sum applies the per-item rule
    # to each item.  Per item, the entries are such bins.
    n_scored = rows * ws.n_scored
    c_unit = dt_unit = None
    if k is None:
        # Every entry's 2 core doctypes are followed by 2 non-core slots,
        # which the scores leave out.
        n_u = ws.n_ubins
        c_unit = c.reshape(rows, -1)[:, :n_u]
        dt_unit = types[..., :n_u]
        entry = ws.entry_base[: rows * n_u].reshape(rows, n_u) + dt_unit
        if not ws.config.pooled_normalization:
            entry += 4 * (c_unit == 0)
        entry = entry.ravel()
        k = np.bincount(entry, minlength=2 * n_scored).reshape(-1, 4)[:, :2].ravel()
        c = np.bincount(entry, c_unit.ravel(), 2 * n_scored).reshape(-1, 4)[:, :2].ravel()
    cells = ws.unit_cells[:n_scored]
    p_vals, c_vals, mncs_vals, excluded = unit_indicators(
        ws.unit_slots[:n_scored], rows * ws.n_units, c, counts[cells], means[cells], k
    )

    shape = (rows, ws.n_units)
    return (
        p_vals.reshape(shape),
        c_vals.reshape(shape),
        mncs_vals.reshape(shape),
        excluded.reshape(shape),
        c_unit,
        dt_unit,
    )


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
    doctype, singleton id, uncited outside the normalization universe).
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

    # A bin is a column, or with grouped columns the columns that share
    # its key (see _Workspace).  Keys sort by unit slot, so the unit
    # columns and bins come first.
    per_item = col_items is None
    col_bin = bin_order = bin_starts = None
    bin_rep, bin_types = rep, col_types  # a publication in each bin, and its doctype
    if not per_item:
        uncited_outside = ~in_norm & (citations == 0)
        keys = (unit_slot[rep], cellgroup[rep], col_types, single_id[rep], uncited_outside[rep])
        bin_order, starts = sorted_runs(keys)
        col_bin = np.empty(rep.size, dtype=np.int64)
        col_bin[bin_order] = np.cumsum(starts) - 1
        bin_starts = np.flatnonzero(starts)
        bin_rep, bin_types = rep[bin_order[starts]], col_types[bin_order[starts]]
    n_bins, n_units = bin_rep.size, len(units)
    bin_unit = unit_slot[bin_rep]
    n_ubins = int(np.count_nonzero(bin_unit < n_units))
    n_cells = (n_cellgroups + 2) * 4

    # The block index arrays: each (iteration, entry) index that no draw
    # moves, for the rows of the run's largest block, flat in C order (see
    # _Workspace).
    block_size = _block_size(rep.size, per_item)
    rows = min(block_size, config.iterations)
    # A bin outside the universe is counted in the group past the field-less
    # one, whose cells no score reads.
    norm_base = np.where(in_norm[bin_rep], cellgroup[bin_rep], n_cellgroups + 1) * 4
    entry_base = bin_slots = None
    if per_item:
        # The scoring entries of each (unit slot, cell group) pair (see
        # _Workspace); under reference-only normalization no unit
        # publication is in the universe, and uncited ones get their own.
        width = 2 if config.pooled_normalization else 4
        order, starts = sorted_runs((unit_slot[:n_unit_pubs], cellgroup[:n_unit_pubs]))
        item_entry = np.empty(n_unit_pubs, dtype=np.int64)
        item_entry[order] = (np.cumsum(starts) - 1) * 2 * width
        heads = order[starts]
        entry_unit = np.repeat(unit_slot[heads], width)
        entry_cell = np.repeat(cellgroup[heads] * 4, width)
        entry_cell += np.tile([0, 1], entry_cell.size // 2)  # article, review
        n_scored = entry_unit.size
        entry_base = _block_rows(item_entry, 2 * n_scored, rows)
        unit_slots = _block_rows(entry_unit, n_units, rows)
        unit_cells = _block_rows(entry_cell, n_cells, rows)
    else:
        # A grouped bin's doctype is fixed, so its cell keys are whole.
        # Every bin is scored; the reference bins and the non-core unit
        # bins go past every slot of the block.
        norm_base += bin_types
        n_scored = n_bins
        bin_slots = _block_rows(col_bin, n_bins, rows)
        core = np.tile((bin_unit < n_units) & (bin_types <= 1), rows)
        unit_slots = np.where(core, _block_rows(bin_unit, n_units, rows), rows * n_units)
        unit_cells = _block_rows(cellgroup[bin_rep] * 4 + bin_types, n_cells, rows)
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
        bin_types=bin_types,
        n_ubins=n_ubins,
        n_scored=n_scored,
        n_cells=n_cells,
        n_units=n_units,
        bin_slots=bin_slots,
        norm_keys=_block_rows(norm_base, n_cells, rows),
        unit_slots=unit_slots,
        unit_cells=unit_cells,
        entry_base=entry_base,
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
    to the input data.  Every run scores one sum per scoring bin, or per
    scoring entry when it draws each publication on its own, so its
    observed MNCS can differ from ``indicators_for``'s in the last bits.

    The iterations run as one ordered list of whole kernel blocks, each
    drawn from its own substream, a block holding the iterations that a
    budget of column-iterations allows (a larger one when every column is
    one publication): in this process, or when ``workers``
    asks for more, in a pool capped by the CPUs and the blocks (with a
    stderr note when it opens fewer), whose workers take the blocks in
    order.  The worker count changes no replicate.  Unit names must be
    unique; a repeated name raises UsageError.

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
        [pubset.name for pubset in units], *(values[0] for values in _score_recorded(ws)[:4])
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
        if processes == 1:
            blocks = (_simulate_block(ws, lo, hi) for lo, hi in bounds)
        else:
            # Imported only here: it is about a tenth of `import bibuq`.
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(processes=processes))
            # One chunk per worker, so each worker unpickles the workspace once.
            blocks = pool.imap(
                partial(_worker_block, ws), bounds, chunksize=-(-len(bounds) // processes)
            )
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

