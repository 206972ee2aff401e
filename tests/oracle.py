"""Slow reference implementations that the fast paths are tested against.

Each routine here is the direct per-item form of a package function and
consumes the random stream in the same order, so the package must match
it bit for bit: ``rng.gamma`` with a scale for the negative binomial,
an (n, k) cumulative-sum argmax for the category draw, and for the
propagation kernel one publication at a time, scored one Monte Carlo
iteration at a time (MNCS from per-(unit, cell) citation sums, in the
kernel's order).  ``simulate_block`` draws a kernel block's
randomness in the kernel's order from the block's substream;
``simulate_one`` is the per-iteration form the kernel used before it
keyed substreams by block, one substream per iteration, which a block of
one iteration still reproduces.  The grouped kernel instead tallies each
group of exchangeable publications over article, review and non-core,
from Dirichlet rows whose two non-core categories are merged (one
uniform per publication of every small group first, then one
multinomial per large group), and draws one citation sum for a group's
core tallies only.  So it matches the oracle bit for bit only where
every publication is its own group.  Elsewhere P matches exactly only
when doctypes are not redrawn, and the rest agree in distribution.

First-kind citation redraws are drawn per publication by inverting the
CDF of min(O, c): ``clamped_omitted`` takes one uniform per (iteration,
publication) and ``walk_clamped`` walks one publication's pmf recursion
from P(O = 0) until the uniform falls below the CDF sum, the walk reaches
c, or the sum stops growing; the publications past the kernel's walk
bounds then take a gamma and a Poisson each, in (iteration,
publication) order.  ``negbin_rvs`` stays the law that the inversion is
tested against.

``load_publications_rows`` is the row-by-row form of ``load_publications``:
one ``csv.DictReader`` row and one validated ``Publication`` at a time,
raising at the first bad cell with the reader's line number.

``indicators_scalar`` is the per-publication form of ``indicators_for``:
``cell_key`` names a publication's cell, ``ncs_scalar`` looks it up in
the cells' mapping and scores the publication.  The scores are summed in
an explicit left-to-right loop, the order of the package's ``bincount``
over the members, on every Python; ``sum()`` over floats is compensated
from Python 3.12 on.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bibuq.datamodel import (
    CORE_TYPES,
    DocType,
    Publication,
    PublicationSet,
    ValidationError,
    doctype_index,
)
from bibuq.errormodels import SECOND_KIND
from bibuq.indicators import KEY_DOCTYPE, KEY_DOCTYPE_YEAR_FIELD, IndicatorResult
from bibuq.predictive import _WALK_MAX_MEAN, _WALK_MAX_RATIO
from bibuq.simulation import CHANNEL_CITATIONS, CHANNEL_DOCTYPES, iteration_rng


def negbin_rvs(rng, mu, theta):
    mu = np.minimum(np.asarray(mu, dtype=np.float64), 1e12)
    lam = rng.gamma(shape=theta, scale=mu / theta)
    return rng.poisson(lam)


def walk_clamped(u, c, first, ratio, slope):
    """min(O, c) for one uniform: the first j with u < F(j) or j = c.

    ``first`` is P(O = 0), ``ratio`` the tail ratio r = mu / (theta + mu)
    and ``slope`` r * (theta - 1), so that p(j) = p(j - 1) * (r + slope /
    j); the walk also stops where a pmf term no longer changes the CDF
    sum.
    """
    j, pmf, cdf = 0, first, first
    while u >= cdf:
        j += 1
        pmf = pmf * (slope / j + ratio)
        if j == c or cdf + pmf == cdf:
            break
        cdf = cdf + pmf
    return j


def clamped_omitted(rng, params, citations):
    """min(O, c) per (row, publication) of a (rows, n) block, walked one at a time.

    ``params`` holds one parameter row per block row.  Every element takes
    a uniform first; then the elements past the walk bounds, in (row,
    publication) order, take a gamma each and then a Poisson each.
    """
    with np.errstate(over="ignore"):
        mu = np.exp(params[:, 1:2] * np.log1p(citations) + params[:, :1])
    mu = np.minimum(mu, 1e12)
    theta = np.repeat(params[:, 2:], citations.shape[1], axis=1)
    ratio = mu / (theta + mu)
    first = (theta / (theta + mu)) ** theta
    slope = ratio * (theta - 1.0)
    u = rng.random(citations.shape)
    out = np.zeros(citations.shape, dtype=np.int64)
    past = []
    for i in np.ndindex(citations.shape):
        c = int(citations[i])
        if c == 0:
            continue
        if ratio[i] > _WALK_MAX_RATIO or mu[i] > _WALK_MAX_MEAN:
            past.append(i)
            continue
        out[i] = walk_clamped(float(u[i]), c, float(first[i]), float(ratio[i]), float(slope[i]))
    if past:
        at = tuple(np.array(past).T)
        omitted = negbin_rvs(rng, mu[at], theta[at])
        out[at] = np.minimum(omitted, citations[at])
    return out


def sample_probability_rows(rng, concentrations):
    gams = rng.gamma(shape=concentrations)
    sums = gams.sum(axis=-1, keepdims=True)
    for i in np.ndindex(sums.shape[:-1]):
        if sums[i] == 0.0:
            gams[i] = 0.0
            gams[i + (int(concentrations[i].argmax()),)] = 1.0
    return gams / gams.sum(axis=-1, keepdims=True)


def draw_doctype_codes(rng, prob_rows, conditioning_codes):
    p = prob_rows[conditioning_codes]
    cum = np.cumsum(p, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(conditioning_codes.shape[0])
    return (u[:, None] < cum).argmax(axis=1)


def predict_doctype_codes(posterior, conditioning, n, seed):
    """Category codes of ``predict_doctype``: n Dirichlet rows, n uniforms."""
    rng = np.random.default_rng(seed)
    rows = sample_probability_rows(rng, np.broadcast_to(posterior.row(conditioning), (n, 4)))
    return draw_doctype_codes(rng, rows, np.arange(n))


@dataclass(frozen=True)
class Layout:
    """Per-publication inputs of a run, in workspace order.

    Publications are unit members first and then the reference set; the
    reference set's unit index is -1.  A field-less publication under
    doctype-year-field gets cell code -1.
    """

    citations: np.ndarray
    dt_codes: np.ndarray
    unit_index: np.ndarray
    in_norm: np.ndarray
    cell_codes: np.ndarray
    n_cellgroups: int
    n_units: int


def publication_layout(units, reference, config):
    pubs = [pub for pubset in units for pub in pubset] + list(reference or ())
    unit_index = [u for u, pubset in enumerate(units) for _ in pubset]
    n_unit_pubs = len(unit_index)
    unit_index += [-1] * (len(pubs) - n_unit_pubs)
    in_norm = np.array(
        [config.pooled_normalization] * n_unit_pubs + [True] * (len(pubs) - n_unit_pubs)
    )
    if config.key_mode == KEY_DOCTYPE_YEAR_FIELD:
        groups: dict = {}
        cell_codes = np.array(
            [
                -1 if pub.field is None else groups.setdefault((pub.year, pub.field), len(groups))
                for pub in pubs
            ],
            dtype=np.int64,
        )
        n_cellgroups = max(len(groups), 1)
    else:
        cell_codes, n_cellgroups = np.zeros(len(pubs), dtype=np.int64), 1
    return Layout(
        citations=np.array([pub.citations for pub in pubs], dtype=np.int64),
        dt_codes=np.array([doctype_index(pub.doctype) for pub in pubs], dtype=np.int64),
        unit_index=np.array(unit_index, dtype=np.int64),
        in_norm=in_norm,
        cell_codes=cell_codes,
        n_cellgroups=n_cellgroups,
        n_units=len(units),
    )


def posterior_draw(posterior, iteration):
    """The parameter row iteration i uses: chain i mod C, draw (i div C) mod kept."""
    chains, kept = posterior.draws.shape[:2]
    return posterior.draws[iteration % chains, (iteration // chains) % kept]


def simulate_one(layout, models, cfg, iteration):
    """One Monte Carlo iteration from its own (seed, iteration) substream.

    ``layout`` is ``publication_layout`` of the run.  The substream gives
    first the probability rows and one doctype code per publication, then
    one omitted count per publication under the iteration's posterior
    draw.  Returns what ``score`` returns.
    """
    rng = iteration_rng(cfg.seed, iteration)
    c = layout.citations
    dt = layout.dt_codes
    if CHANNEL_DOCTYPES in cfg.channels:
        rows = sample_probability_rows(rng, models.doctype.concentrations)
        dt = draw_doctype_codes(rng, rows, dt)

    if CHANNEL_CITATIONS in cfg.channels:
        params = posterior_draw(models.citation, iteration)
        if cfg.direction == SECOND_KIND:
            with np.errstate(over="ignore"):
                mu = np.exp(params[0] + params[1] * np.log1p(c.astype(np.float64)))
            c = c + negbin_rvs(rng, mu, params[2])
        else:
            c = c - clamped_omitted(rng, params[None, :], c[None, :])[0]
    return score(layout, c, dt)


def simulate_block(layout, models, cfg, start, stop, block_size):
    """Iterations [start, stop) of the kernel block that starts at ``start``.

    The block's substream is keyed by (seed, start // block_size).  It
    gives, one publication at a time in layout order: the Dirichlet rows
    of every iteration, then a uniform per (iteration, publication) for
    the doctype draws, then a gamma per (iteration, publication) and
    last a Poisson per (iteration, publication), the omitted count under
    the iteration's posterior draw.  First-kind citation redraws take
    instead a uniform per (iteration, publication), then a gamma and a
    Poisson per publication past the walk bounds (``clamped_omitted``).
    Returns one ``score`` per iteration.
    """
    assert start % block_size == 0 and 0 < stop - start <= block_size
    rng = iteration_rng(cfg.seed, start // block_size)
    iterations = range(start, stop)
    n = layout.citations.size
    c = np.tile(layout.citations, (len(iterations), 1))
    dt = np.tile(layout.dt_codes, (len(iterations), 1))
    if CHANNEL_DOCTYPES in cfg.channels:
        conc = models.doctype.concentrations
        rows = sample_probability_rows(rng, np.stack([conc] * len(iterations)))
        u = rng.random((len(iterations), n))
        for r in range(len(iterations)):
            cum = np.cumsum(rows[r][dt[r]], axis=1)
            cum[:, -1] = 1.0
            dt[r] = (u[r][:, None] < cum).argmax(axis=1)

    if CHANNEL_CITATIONS in cfg.channels:
        params = np.array([posterior_draw(models.citation, j) for j in iterations])
        if cfg.direction == SECOND_KIND:
            with np.errstate(over="ignore"):
                mu = np.exp(params[:, :1] + params[:, 1:2] * np.log1p(c.astype(np.float64)))
            mu = np.minimum(mu, 1e12)
            theta = np.repeat(params[:, 2:], n, axis=1)
            lam = rng.gamma(shape=theta, scale=mu / theta)
            c = c + rng.poisson(lam)
        else:
            c = c - clamped_omitted(rng, params, c)
    return [score(layout, c[r], dt[r]) for r in range(len(iterations))]


def score(layout, c, dt):
    """One iteration's indicators from its redrawn citations and doctypes.

    Returns per unit P, C, MNCS and the number of core items the MNCS
    left out, then the redrawn citations and doctype codes of every
    publication.  MNCS adds up, per unit, one score per entry: the summed
    citations of the unit's scored items in one cell group, uncited
    outside the universe or not, and core doctype, over the cell mean, in
    that order, the order in which the kernel scores a row drawn per item.
    """
    unit_index, n_units = layout.unit_index, layout.n_units
    n_cells = layout.n_cellgroups * 4
    has_group = layout.cell_codes >= 0
    keys = np.where(has_group, layout.cell_codes, 0) * 4 + dt
    norm_mask = layout.in_norm & has_group
    sums = np.bincount(keys[norm_mask], weights=c[norm_mask], minlength=n_cells)
    counts = np.bincount(keys[norm_mask], minlength=n_cells)
    with np.errstate(invalid="ignore"):
        means = np.divide(sums, counts, out=np.zeros(n_cells), where=counts > 0)

    core = dt <= 1
    selected = core & (unit_index >= 0)
    unit_sel = unit_index[selected]
    p_vals = np.bincount(unit_sel, minlength=n_units).astype(np.float64)
    c_vals = np.bincount(unit_sel, weights=c[selected].astype(np.float64), minlength=n_units)

    expected = means[keys]
    cell_occupied = has_group & (counts[keys] > 0)
    consistent = (expected > 0) | (c == 0)
    included = selected & cell_occupied & consistent

    # The scored items' citations are summed per entry (unit, cell group,
    # uncited outside the universe, doctype) first, and the entries'
    # scores are added up in that order.
    n_groups = layout.n_cellgroups + 1  # the last one for field-less items
    group = np.where(has_group, layout.cell_codes, layout.n_cellgroups)
    uncited_outside = ~layout.in_norm & (c == 0)
    entry = ((unit_index * n_groups + group) * 2 + uncited_outside) * 2 + dt
    n_entries = n_units * n_groups * 4
    sums = np.bincount(entry[included], weights=c[included], minlength=n_entries)
    entry_group = np.arange(n_entries) // 4 % n_groups
    entry_cell = np.minimum(entry_group, layout.n_cellgroups - 1) * 4 + np.arange(n_entries) % 2
    entry_mean = np.where(entry_group < layout.n_cellgroups, means[entry_cell], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(entry_mean > 0, sums / np.where(entry_mean > 0, entry_mean, 1.0), 0.0)
    num = np.bincount(np.arange(n_entries) // (4 * n_groups), weights=scores, minlength=n_units)
    den = np.bincount(unit_index[included], minlength=n_units)
    with np.errstate(invalid="ignore"):
        mncs_vals = np.where(den > 0, num / np.maximum(den, 1), np.nan)
    excluded = np.bincount(unit_index[selected & ~included], minlength=n_units)
    return p_vals, c_vals, mncs_vals, excluded, c, dt


def cell_key(pub, key_mode):
    """Key of a publication's cell in ``NormalizationCells.cells``, None without one.

    Under the field-aware mode a publication without a field label has no
    cell.
    """
    if key_mode == KEY_DOCTYPE:
        return (pub.doctype,)
    assert key_mode == KEY_DOCTYPE_YEAR_FIELD
    return None if pub.field is None else (pub.doctype, pub.year, pub.field)


def ncs_scalar(pub, cells):
    """Normalized citation score of one publication, None if unscorable.

    None when the publication has no cell (no field label, or a cell
    absent from the universe) or is cited in a cell whose mean is zero;
    an uncited one there scores 0.0.
    """
    key = cell_key(pub, cells.key_mode)
    cell = None if key is None else cells.cells.get(key)
    if cell is None:
        return None
    if cell.expected_citations == 0.0:
        return 0.0 if pub.citations == 0 else None
    return pub.citations / cell.expected_citations


def indicators_scalar(pubset, cells):
    """P, C, MNCS and MNCS exclusions of one unit, one publication at a time."""
    p = c = scored = excluded = 0
    total = 0.0
    for pub in pubset:
        if pub.doctype not in CORE_TYPES:
            continue
        p += 1
        c += pub.citations
        score = ncs_scalar(pub, cells)
        if score is None:
            excluded += 1
        else:
            total += score
            scored += 1
    return IndicatorResult(
        unit=pubset.name,
        p=p,
        c=c,
        mncs=total / scored if scored else None,
        excluded=excluded,
    )


_PUB_HEADER = ["id", "unit", "doctype", "year", "field", "citations"]


def _int_cell(row: dict, column: str, path: Path, line: int, minimum: int = 0) -> int:
    raw = (row.get(column) or "").strip()
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{path}:{line}: {column} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ValidationError(f"{path}:{line}: {column} must be >= {minimum}, got {value}")
    return value


def load_publications_rows(path) -> list[PublicationSet]:
    """Publication sets of a CSV, read and checked one row at a time."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        got = reader.fieldnames or []
        missing = [c for c in _PUB_HEADER if c not in got]
        if missing:
            raise ValidationError(f"{path}: missing columns {missing}, header is {got}")
        by_unit: dict[str, list[Publication]] = {}
        seen_ids: set[str] = set()
        for row in reader:
            line = reader.line_num
            pid = (row.get("id") or "").strip()
            unit = (row.get("unit") or "").strip()
            if not pid:
                raise ValidationError(f"{path}:{line}: empty publication id")
            if not unit:
                raise ValidationError(f"{path}:{line}: empty unit name")
            if pid in seen_ids:
                raise ValidationError(f"{path}:{line}: duplicate publication id {pid!r}")
            seen_ids.add(pid)
            pub = Publication(
                id=pid,
                unit=unit,
                doctype=DocType.parse(row.get("doctype") or ""),
                year=_int_cell(row, "year", path, line, minimum=-(10**9)),
                citations=_int_cell(row, "citations", path, line),
                field=(row.get("field") or "").strip() or None,
            )
            by_unit.setdefault(unit, []).append(pub)
    return [PublicationSet(name=unit, members=pubs) for unit, pubs in by_unit.items()]
