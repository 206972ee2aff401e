"""Size-dependent and field-normalized citation indicators.

Three indicators are computed per unit: P, the number of core
publications (articles and reviews); C, their total citations; and MNCS,
the mean of citation scores normalized by the expected citations of a
publication's normalization cell.  Letters and other non-core types are
excluded from the indicators but still contribute to the normalization
cells they fall into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .datamodel import DOCTYPE_ORDER, DocType, PublicationSet, UsageError

__all__ = [
    "KEY_DOCTYPE",
    "KEY_DOCTYPE_YEAR_FIELD",
    "KEY_MODES",
    "NormalizationCell",
    "NormalizationCells",
    "IndicatorResult",
    "build_normalization",
    "cell_means",
    "unit_indicators",
    "indicator_results",
    "indicators_for",
]

KEY_DOCTYPE = "doctype"
KEY_DOCTYPE_YEAR_FIELD = "doctype-year-field"
KEY_MODES = (KEY_DOCTYPE, KEY_DOCTYPE_YEAR_FIELD)


@dataclass(frozen=True)
class NormalizationCell:
    """Expected citations of one normalization class.

    ``year`` and ``field`` are None under the doctype-only key mode
    (wildcards).
    """

    doctype: DocType
    year: int | None
    field: str | None
    expected_citations: float
    size: int


@dataclass(frozen=True)
class NormalizationCells:
    """All occupied normalization cells of a reference universe, keyed by
    (doctype,) or, under the field-aware mode, (doctype, year, field)."""

    key_mode: str
    cells: Mapping[tuple, NormalizationCell]


def cell_groups(
    years: np.ndarray, fields: np.ndarray, key_mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Cell group of each row, and the first row of each group.

    ``years`` and ``fields`` are a set's columns (a field code of -1 for
    no field).  A row's cell is ``4 * group + doctype code``.  Under the
    doctype-only mode every row is in group 0, whose first row is taken
    as 0.  Under the field-aware mode the groups number the distinct
    (year, field) pairs in order of first appearance, and a row without a
    field gets the code one past the last group, which has no cells.
    """
    if key_mode == KEY_DOCTYPE:
        return np.zeros(years.size, dtype=np.int64), np.zeros(1, dtype=np.int64)
    if key_mode != KEY_DOCTYPE_YEAR_FIELD:
        raise UsageError(f"unknown key mode {key_mode!r}, expected one of {KEY_MODES}")
    has_field = np.flatnonzero(fields >= 0)
    codes, firsts = first_seen_codes(years[has_field], fields[has_field])
    groups = np.full(years.size, firsts.size, dtype=np.int64)
    groups[has_field] = codes
    return groups, has_field[firsts]


def _group_label(pubset: PublicationSet, row: int, key_mode: str) -> tuple:
    """(year, field) of the cell group whose first row is ``row``; () without fields."""
    if key_mode == KEY_DOCTYPE:
        return ()
    return int(pubset.years[row]), pubset.field_labels[pubset.fields[row]]


def first_seen_codes(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct key tuples in order of first appearance.

    ``keys`` are equal-length int arrays, read as one tuple per index.
    Returns each index's code and the first index of each code.
    """
    order, starts = sorted_runs(keys)
    firsts = order[starts]  # a stable sort puts each run's first index first
    rank = np.empty(firsts.size, dtype=np.int64)
    rank[np.argsort(firsts)] = np.arange(firsts.size)
    codes = np.empty(order.size, dtype=np.int64)
    codes[order] = rank[np.cumsum(starts) - 1]
    return codes, np.sort(firsts)


def _packed_key(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, int] | None:
    """Each key tuple and its position packed into one int64, or None when they do not fit.

    Each key is offset by its minimum and takes the bits its range needs,
    the first key highest, and the position takes the lowest bits.  So
    the packed values are distinct and sort as the (tuple, position)
    pairs do.  Returns them with the position's bit count; None when more
    than 63 bits are needed, or there are no tuples.
    """
    n = keys[0].size
    if not n:
        return None
    lows = [int(key.min()) for key in keys]
    widths = [(int(key.max()) - low).bit_length() for key, low in zip(keys, lows)]
    position_bits = (n - 1).bit_length()
    if sum(widths) + position_bits > 63:
        return None
    packed = np.zeros(n, dtype=np.int64)
    for key, low, width in zip(keys, lows, widths):
        packed <<= width
        packed |= key.astype(np.int64, copy=False) - low
    packed <<= position_bits
    packed |= np.arange(n)
    return packed, position_bits


def sorted_runs(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of the key tuples, and where each run of equal tuples starts.

    The first key sorts first.  ``starts`` flags, in sorted order, the
    first index of each run.  When the keys' ranges and the positions fit
    in 63 bits together, one sort of the packed values (``_packed_key``)
    gives ``np.lexsort``'s order, ties in position order; otherwise
    ``np.lexsort`` sorts them.
    """
    packed = _packed_key(keys)
    if packed is None:
        order = np.lexsort(keys[::-1])
        same = np.ones(max(order.size - 1, 0), dtype=bool)
        for key in keys:
            ordered = key[order]
            same &= ordered[1:] == ordered[:-1]
    else:
        values, position_bits = packed
        values.sort()
        order = values & ((1 << position_bits) - 1)
        values >>= position_bits
        same = values[1:] == values[:-1]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = ~same
    return order, starts


def build_normalization(
    sets: PublicationSet | Iterable[PublicationSet], key_mode: str = KEY_DOCTYPE
) -> NormalizationCells:
    """Compute expected citations per cell over a pooled universe.

    ``sets`` may be a single publication set or any iterable of them;
    all members are pooled.  A cell appears only if at least one
    publication falls into it.  All document types contribute to cells,
    including non-core ones.  Cells are listed in order of their first
    publication.
    """
    pool = sets if isinstance(sets, PublicationSet) else PublicationSet.concat("", list(sets))
    groups, firsts = cell_groups(pool.years, pool.fields, key_mode)
    has_cell = groups < firsts.size
    key = (4 * groups + pool.doctypes)[has_cell]
    if key.size == 0:
        raise UsageError("normalization universe is empty")
    counts, means = cell_means(key, pool.citations[has_cell], 4 * firsts.size)
    occupied, first = np.unique(key, return_index=True)
    cells = {}
    for k in occupied[np.argsort(first)].tolist():
        group, code = divmod(k, 4)
        doctype = DOCTYPE_ORDER[code]
        label = _group_label(pool, firsts[group], key_mode)
        year, field = label or (None, None)
        cells[(doctype, *label)] = NormalizationCell(
            doctype=doctype,
            year=year,
            field=field,
            expected_citations=float(means[k]),
            size=int(counts[k]),
        )
    return NormalizationCells(key_mode=key_mode, cells=cells)


def cell_means(cells, citations, n_cells, sizes=None):
    """Item count and mean citations (0.0 when empty) of ``n_cells`` cells.

    An entry in cell ``cells`` counts ``sizes`` items (1 without) whose
    citations ``citations`` sums; sums are exact in float64 up to 2**53.
    """
    sums = np.bincount(cells, weights=citations, minlength=n_cells)
    counts = np.bincount(cells, weights=sizes, minlength=n_cells)
    with np.errstate(invalid="ignore"):
        means = np.divide(sums, counts, out=np.zeros(sums.size), where=counts > 0)
    return counts, means


def unit_indicators(slots, n_units, citations, count, expected, sizes=None):
    """P, C, MNCS and the MNCS exclusion count per unit slot.

    The one definition of the indicators, for the observed values and
    every Monte Carlo replicate.  An entry is one publication, or with
    ``sizes`` that many publications of one slot, type and cell, whose
    citations ``citations`` sums.  Per entry, in flat arrays of one
    length: ``slots`` is its unit slot below ``n_units`` if it is a core
    item (article or review), and any slot at or past ``n_units`` if it
    is not, and ``count`` and ``expected`` are the item count (0 for no
    cell) and mean citations of its cell.

    Only core items count.  An item scores its citations over its cell's
    mean.  MNCS leaves out an item whose cell is empty and a cited item
    whose cell's mean is zero; an uncited one there scores 0.0
    (degenerate but consistent).  Every sum is one ``bincount`` over all
    entries in entry order, an entry the sum skips going to a slot at or
    past ``n_units``, which is cut off.  Returns float P, C and MNCS (NaN
    where nothing was scored) and int64 exclusions, each of length
    ``n_units``.
    """

    def total(slot, weights=None):
        return np.bincount(slot, weights=weights, minlength=n_units + 1)[:n_units]

    included = (count > 0) & ((expected > 0) | (citations == 0))
    scored = np.where(included, slots, n_units)
    scores = np.divide(citations, expected, out=np.zeros(expected.shape), where=expected > 0)
    p = total(slots, sizes).astype(np.float64)
    c_total = total(slots, citations)
    num = total(scored, scores)
    den = total(scored, sizes)
    mncs_values = np.where(den > 0, num / np.maximum(den, 1), np.nan)
    # Whole item counts, exact in float64: the core items less the scored ones.
    return p, c_total, mncs_values, (p - den).astype(np.int64)


@dataclass(frozen=True)
class IndicatorResult:
    """Indicator values of one unit.

    ``p`` counts core publications, ``c`` sums their citations, ``mncs``
    averages their normalized scores (None when undefined), ``excluded``
    counts core publications left out of the MNCS mean.
    """

    unit: str
    p: int
    c: int
    mncs: float | None
    excluded: int


def indicator_results(names, p, c, mncs, excluded) -> dict[str, IndicatorResult]:
    """The ``unit_indicators`` values of unit slot u as ``names[u]``'s result."""
    return {
        name: IndicatorResult(
            unit=name,
            p=int(p[u]),
            c=int(c[u]),
            mncs=None if np.isnan(mncs[u]) else float(mncs[u]),
            excluded=int(excluded[u]),
        )
        for u, name in enumerate(names)
    }


def indicators_for(pubset: PublicationSet, cells: NormalizationCells) -> IndicatorResult:
    """P, C, and MNCS of one unit against a fixed normalization."""
    groups, firsts = cell_groups(pubset.years, pubset.fields, cells.key_mode)
    # The set's cells, 4 per cell group in doctype order, then 4 empty
    # ones for field-less rows.
    table = [
        cells.cells.get((doctype, *_group_label(pubset, row, cells.key_mode)))
        for row in firsts.tolist()
        for doctype in DOCTYPE_ORDER
    ] + [None] * 4
    size = np.array([0 if cell is None else cell.size for cell in table], dtype=np.int64)
    mean = np.array([0.0 if cell is None else cell.expected_citations for cell in table])
    key = 4 * groups + pubset.doctypes
    # Article and review codes come first in DOCTYPE_ORDER: core items
    # (codes 0 and 1) go to slot 0, the rest past it.
    scored = unit_indicators(
        (pubset.doctypes > 1).astype(np.int64),
        1,
        pubset.citations,
        size[key],
        mean[key],
    )
    return indicator_results([pubset.name], *scored)[pubset.name]
