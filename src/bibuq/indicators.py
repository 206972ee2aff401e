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

from .datamodel import (
    CORE_TYPES,
    DocType,
    Publication,
    PublicationSet,
    UsageError,
    doctype_index,
)

__all__ = [
    "KEY_DOCTYPE",
    "KEY_DOCTYPE_YEAR_FIELD",
    "KEY_MODES",
    "NormalizationCell",
    "NormalizationCells",
    "IndicatorResult",
    "select_core",
    "build_normalization",
    "unit_indicators",
    "ncs",
    "mncs",
    "indicators_for",
]

KEY_DOCTYPE = "doctype"
KEY_DOCTYPE_YEAR_FIELD = "doctype-year-field"
KEY_MODES = (KEY_DOCTYPE, KEY_DOCTYPE_YEAR_FIELD)


def select_core(pubset: PublicationSet) -> PublicationSet:
    """Keep only articles and reviews, preserving order."""
    return pubset.with_members([p for p in pubset if p.doctype in CORE_TYPES])


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


def cell_key(pub: Publication, key_mode: str):
    """Normalization key of a publication, or None if it has no cell.

    Under the field-aware mode, publications without a field label
    cannot be assigned to any cell.
    """
    if key_mode == KEY_DOCTYPE:
        return (pub.doctype,)
    if key_mode == KEY_DOCTYPE_YEAR_FIELD:
        if pub.field is None:
            return None
        return (pub.doctype, pub.year, pub.field)
    raise UsageError(f"unknown key mode {key_mode!r}, expected one of {KEY_MODES}")


@dataclass(frozen=True)
class NormalizationCells:
    """All occupied normalization cells of a reference universe."""

    key_mode: str
    cells: Mapping[tuple, NormalizationCell]

    def lookup(self, pub: Publication) -> NormalizationCell | None:
        key = cell_key(pub, self.key_mode)
        if key is None:
            return None
        return self.cells.get(key)


def build_normalization(
    sets: PublicationSet | Iterable[PublicationSet], key_mode: str = KEY_DOCTYPE
) -> NormalizationCells:
    """Compute expected citations per cell over a pooled universe.

    ``sets`` may be a single publication set or any iterable of them;
    all members are pooled.  A cell appears only if at least one
    publication falls into it.  All document types contribute to cells,
    including non-core ones.
    """
    if isinstance(sets, PublicationSet):
        sets = [sets]
    if key_mode not in KEY_MODES:
        raise UsageError(f"unknown key mode {key_mode!r}, expected one of {KEY_MODES}")
    sums: dict[tuple, int] = {}
    counts: dict[tuple, int] = {}
    for pubset in sets:
        for pub in pubset:
            key = cell_key(pub, key_mode)
            if key is None:
                continue
            sums[key] = sums.get(key, 0) + pub.citations
            counts[key] = counts.get(key, 0) + 1
    cells = {}
    for key, count in counts.items():
        doctype = key[0]
        year = key[1] if len(key) == 3 else None
        field = key[2] if len(key) == 3 else None
        cells[key] = NormalizationCell(
            doctype=doctype,
            year=year,
            field=field,
            expected_citations=sums[key] / count,
            size=count,
        )
    if not cells:
        raise UsageError("normalization universe is empty")
    return NormalizationCells(key_mode=key_mode, cells=cells)


def unit_indicators(units, n_units, citations, types, count, expected, sizes=None):
    """P, C, MNCS and the MNCS exclusion count per unit slot.

    The one definition of the indicators, for the observed values and
    every Monte Carlo replicate.  An entry is one publication, or with
    ``sizes`` that many publications of one slot, type and cell, whose
    citations ``citations`` sums.  Per entry: ``units`` is its slot below
    ``n_units``, ``types`` its doctype code, ``count`` and ``expected``
    the item count (0 for no cell) and mean citations of its cell.

    Only core items count.  An item scores its citations over its cell's
    mean.  MNCS leaves out an item whose cell is empty and a cited item
    whose cell's mean is zero; an uncited one there scores 0.0
    (degenerate but consistent).  Every sum is a ``bincount`` in entry
    order.  Returns float P, C and MNCS (NaN where nothing was scored)
    and int64 exclusions, each of length ``n_units``.
    """
    # Article and review codes come first in DOCTYPE_ORDER, so the core
    # items are those with code <= 1.
    core = types <= 1
    slot = units[core]
    c = citations[core]
    k = None if sizes is None else sizes[core]
    mean = expected[core]
    p = np.bincount(slot, weights=k, minlength=n_units).astype(np.float64)
    c_total = np.bincount(slot, weights=c, minlength=n_units)
    included = (count[core] > 0) & ((mean > 0) | (c == 0))
    scores = np.divide(c, mean, out=np.zeros(c.shape), where=mean > 0)
    num = np.bincount(slot[included], weights=scores[included], minlength=n_units)
    den = np.bincount(
        slot[included], weights=None if k is None else k[included], minlength=n_units
    )
    mncs_values = np.where(den > 0, num / np.maximum(den, 1), np.nan)
    excluded = np.bincount(
        slot[~included], weights=None if k is None else k[~included], minlength=n_units
    )
    return p, c_total, mncs_values, excluded.astype(np.int64)


def _score(pubs: Sequence[Publication], types: np.ndarray, cells: NormalizationCells):
    """``unit_indicators`` of publications in one slot, each against its own cell."""
    found = [cells.lookup(pub) for pub in pubs]
    return unit_indicators(
        np.zeros(len(pubs), dtype=np.int64),
        1,
        np.array([pub.citations for pub in pubs], dtype=np.int64),
        types,
        np.array([0 if cell is None else cell.size for cell in found], dtype=np.int64),
        np.array([0.0 if cell is None else cell.expected_citations for cell in found]),
    )


def ncs(pub: Publication, cells: NormalizationCells) -> float | None:
    """Normalized citation score of one publication, whatever its type.

    None when ``unit_indicators`` would leave it out of an MNCS.
    """
    # Code 0 scores it as a core item.
    score = _score([pub], np.zeros(1, dtype=np.int64), cells)[2][0]
    return None if np.isnan(score) else float(score)


def mncs(pubset: PublicationSet, cells: NormalizationCells) -> float | None:
    """Mean normalized citation score of the unit, None when undefined."""
    return indicators_for(pubset, cells).mncs


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


def indicators_for(pubset: PublicationSet, cells: NormalizationCells) -> IndicatorResult:
    """P, C, and MNCS of one unit against a fixed normalization."""
    types = np.array([doctype_index(pub.doctype) for pub in pubset], dtype=np.int64)
    p, c, mean_score, excluded = _score(pubset.members, types, cells)
    return IndicatorResult(
        unit=pubset.name,
        p=int(p[0]),
        c=int(c[0]),
        mncs=None if np.isnan(mean_score[0]) else float(mean_score[0]),
        excluded=int(excluded[0]),
    )
