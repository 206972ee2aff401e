"""Posterior-predictive draws for single publications.

These operations turn fitted error models into Monte Carlo replicates of
a publication's citation count or document type.  Parameter uncertainty
is propagated by cycling through the stored posterior draws with the
chains interleaved: replicate j uses chain j mod C and that chain's kept
draw (j div C) mod kept (``cycled_params``), so every chain is used from
the first replicates on.  The document-type model is exact, so each
replicate samples a fresh probability vector from the conditioning row's
Dirichlet and then a category from it.

The samplers take an optional leading block axis: the Monte Carlo kernel
draws a whole block of iterations with one call per kind of draw, one
row of each array per iteration.
"""

from __future__ import annotations

import csv
import math
from typing import Callable, Sequence, TextIO

import numpy as np

from .datamodel import DocType, DOCTYPE_ORDER, UsageError
from .errormodels import (
    FIRST_KIND,
    SECOND_KIND,
    DirichletPosterior,
    NegBinPosterior,
    negbin_rvs,
)

__all__ = [
    "predict_omitted",
    "predict_error_free_citations",
    "predict_error_affected_citations",
    "predict_doctype",
    "predictive_dump",
]


def _check_n(n: int) -> None:
    if n < 1:
        raise UsageError(f"need at least one draw, got n={n}")


def _check_citations(c: int) -> None:
    if c < 0:
        raise UsageError(f"citation count must be >= 0, got {c}")


def cycled_params(posterior: NegBinPosterior, n: int) -> np.ndarray:
    """Posterior parameter rows for n replicates, the chains interleaved.

    Row j is chain j mod C, kept draw (j div C) mod kept: the draws in
    kept-major order, cycled.
    """
    interleaved = posterior.draws.swapaxes(0, 1).reshape(-1, 3)
    return interleaved[np.arange(n) % interleaved.shape[0]]


def draw_omitted(
    rng: np.random.Generator,
    params: np.ndarray,
    log1p_predictor: np.ndarray,
    counts: np.ndarray | None = None,
    bins: tuple[np.ndarray, int] | None = None,
) -> np.ndarray:
    """Vectorized omitted-count draws.

    ``params`` holds (intercept, slope, dispersion) in its last axis; the
    rest of its shape broadcasts against ``log1p_predictor`` (the model
    predictor through ``np.log1p``).  So one (3,) row applies to every
    element, an (n, 3) array lines up with n predictors, and a (rows, 1,
    3) array draws a (rows, n) block, one parameter row per block row.
    ``counts`` optionally makes an element the summed omissions of that
    many iid items that share its predictor, and ``bins``, a pair (slots,
    bin count), optionally sums the elements into bins along the last
    axis with one Poisson draw per bin (see ``negbin_rvs``).  First-kind
    citation redraws read the count only through min(O, c) and draw that
    with ``draw_clamped_omitted``, one uniform per element, instead.
    """
    params = np.asarray(params, dtype=np.float64)
    b0 = params[..., 0]
    b1 = params[..., 1]
    theta = params[..., 2]
    mu = np.asarray(b1 * log1p_predictor)  # a fresh array, exp'd in place
    mu += b0
    with np.errstate(over="ignore"):
        np.exp(mu, out=mu)
    return negbin_rvs(rng, mu, theta, counts, bins)


# The clamped draw inverts a publication's CDF only where the walk to its
# draw is short: its tail ratio mu / (theta + mu), the factor its pmf
# shrinks by per step far out, is at most _WALK_MAX_RATIO, and its mean is
# at most _WALK_MAX_MEAN.  Anywhere else it keeps the gamma-Poisson draw.
# The ratio was set by a sweep on the benchmark's first-kind workload (see
# CHANGES.md); the mean bound keeps P(O = 0) >= exp(-_WALK_MAX_MEAN), far
# from underflow, whatever the dispersion.  The walk tabulates the CDF in
# chunks of steps, _FIRST_CHUNK first and each later chunk twice as long:
# on that workload one chunk settles all but about one block in ten.
_WALK_MAX_RATIO = 0.875
_WALK_MAX_MEAN = 16.0
_FIRST_CHUNK = 16


def draw_clamped_omitted(
    rng: np.random.Generator, params: np.ndarray, values: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """min(O, c) for O ~ NB(theta, mu(c)), one uniform per element.

    The first-kind clamp max(c - O, 0) is c - min(O, c), so it reads O
    only through min(O, c), a law on 0..c.  ``params`` is (rows, 3), one
    (intercept, slope, dispersion) row per block row; ``values`` holds the
    distinct citation counts c in ascending order and ``index`` (m,) maps
    each column to its value.  Everything but the uniforms is computed per
    (row, value): mu, the tail ratio r = mu / (theta + mu), P(O = 0) =
    (theta / (theta + mu)) ** theta and the CDF.  Returns (rows, m)
    integer draws.

    One uniform u is drawn per (row, column), all before anything else,
    and the draw is the first j with u < F(j) or j = c, F being the NB
    CDF: inversion by sequential search, exact up to the rounding of the
    CDF sums.  Most elements settle at j = 0 on one comparison (an
    uncited one always does).  For the rest, each (row, value) walks the
    pmf recursion p(j) = p(j - 1) * (r * (theta - 1) / j + r) and sums the
    CDF a chunk of steps at a time, and each element still walking takes
    the first step of the chunk where its u falls below the CDF, or where
    the walk stops: at c, or where the pmf term no longer changes the CDF
    sum.  Elements past the chunk walk on into the next, twice as long.
    An element past the walk bounds (``_WALK_MAX_RATIO``,
    ``_WALK_MAX_MEAN``) ignores its uniform and keeps the gamma-Poisson
    draw of ``negbin_rvs``, clamped at c: after every uniform, one gamma
    per such element in (row, column) order, then one Poisson each.
    """
    rows, m, n_values = params.shape[0], index.size, values.size
    theta = params[:, 2:]
    # Capping the exponent keeps exp finite; negbin_rvs caps the mean at 1e12.
    mu = np.exp(np.minimum(params[:, 1:2] * np.log1p(values) + params[:, :1], 28.0))
    total = theta + mu
    ratio = mu / total
    walks = (ratio <= _WALK_MAX_RATIO) & (mu <= _WALK_MAX_MEAN)
    first = (theta / total) ** theta
    # Where u is below this an element settles at 0 at once: P(O = 0) for
    # a walk, 1 for an uncited element, -1 (never) past the walk bounds.
    settle = np.where(walks, first, -1.0)
    if n_values and values[0] == 0:
        settle[:, 0] = 1.0
    u = rng.random((rows, m))
    draws = np.zeros(rows * m, dtype=np.int64)
    at = np.flatnonzero(u >= settle.take(index, axis=1))
    row, col = np.divmod(at, m)
    slot = row * n_values + index[col]  # the element's (row, value)
    if (settle < 0).any():
        off = ~walks.ravel()[slot]
        omitted = negbin_rvs(rng, mu.ravel()[slot[off]], theta.ravel()[row[off]])
        draws[at[off]] = np.minimum(omitted, values[index[col[off]]])
        at, slot = at[~off], slot[~off]
    level = u.ravel()[at]
    # The walk per (row, value), as of step j: pmf, CDF sum, and the
    # recursion's two terms.
    pmf = cdf = first.ravel()
    ratio, slope = ratio.ravel(), (ratio * (theta - 1.0)).ravel()
    cap = np.tile(values, rows)
    j, width = 0, _FIRST_CHUNK
    while at.size:
        steps = np.arange(j + 1, j + width + 1)[:, None]
        pmfs = np.empty((width + 1, pmf.size))
        pmfs[0] = pmf
        np.divide(slope, steps, out=pmfs[1:])
        pmfs[1:] += ratio
        np.cumprod(pmfs, axis=0, out=pmfs)
        cdfs = pmfs.copy()
        cdfs[0] = cdf
        np.cumsum(cdfs, axis=0, out=cdfs)
        # (row, value) by step: F(step), or 2 from where the walk stops on.
        stops = (cdfs[1:] == cdfs[:-1]) | (steps >= cap)
        table = np.where(stops, 2.0, cdfs[1:]).T.copy()
        # An element's row of ``below`` is True up to its step in the
        # chunk; one True throughout walks on into the next chunk.
        below = table.take(slot, axis=0) <= level[:, None]
        draws[at] = below.argmin(axis=1) + (j + 1)
        go = np.flatnonzero(below[:, -1])
        at, slot, level = at[go], slot[go], level[go]
        pmf, cdf = pmfs[-1], cdfs[-1]
        j += width
        width *= 2
    return draws.reshape(rows, m)


def predict_omitted(posterior: NegBinPosterior, citations: int, n: int, seed: int) -> np.ndarray:
    """Draw n omitted-citation counts for one publication.

    ``citations`` is the model predictor: the observed count under a
    second-kind posterior, the error-free count under a first-kind one.
    Deterministic given (posterior, citations, n, seed).
    """
    _check_n(n)
    _check_citations(citations)
    rng = np.random.default_rng(seed)
    params = cycled_params(posterior, n)
    return draw_omitted(rng, params, np.log1p(np.full(n, citations, dtype=np.float64)))


def predict_error_free_citations(
    posterior: NegBinPosterior, citations: int, n: int, seed: int
) -> np.ndarray:
    """Draw n corrected citation counts: observed plus predicted omissions.

    Requires a second-kind posterior (the model conditions on the
    observed count).  Every draw is >= the observed count.
    """
    if posterior.spec.direction != SECOND_KIND:
        raise UsageError("correction requires a posterior fitted in the second-kind direction")
    omitted = predict_omitted(posterior, citations, n, seed)
    return citations + omitted


def predict_error_affected_citations(
    posterior: NegBinPosterior, citations: int, n: int, seed: int
) -> np.ndarray:
    """Draw n corrupted citation counts: error-free minus predicted omissions.

    Requires a first-kind posterior (the model conditions on the
    error-free count).  Draws are clamped at zero, so each lies in
    [0, citations]: each is ``citations`` minus one
    ``draw_clamped_omitted`` draw of min(O, citations).
    """
    if posterior.spec.direction != FIRST_KIND:
        raise UsageError("error injection requires a posterior fitted in the first-kind direction")
    _check_n(n)
    _check_citations(citations)
    rng = np.random.default_rng(seed)
    params = cycled_params(posterior, n)
    clamped = draw_clamped_omitted(rng, params, np.array([citations]), np.zeros(1, dtype=np.int64))
    return citations - clamped[:, 0]


def draw_doctype_codes(
    rng: np.random.Generator, prob_rows: np.ndarray, conditioning_codes: np.ndarray
) -> np.ndarray:
    """Sample category codes given per-category probability rows.

    ``prob_rows`` is (c, k): a probability vector over k categories per
    conditioning category, or (rows, c, k) for a block of rows, which
    gives (rows, n) codes.  ``conditioning_codes`` (n,) selects the row
    per item.  Item i gets the first category whose cumulative
    probability exceeds its uniform draw ``u``.  The cumulative sums
    never decrease and ``u`` is below 1, so that category is the number
    of the first k - 1 cumulative sums that ``u`` reaches.  The last sum
    is never compared, so every code is below k even where rounding
    leaves that sum below 1.
    """
    # One contiguous array of thresholds per comparison: ``take`` from it
    # is cheaper than a fancy index over the category axis too.  The
    # category axis goes first by ``transpose``, a few microseconds
    # cheaper per call than ``np.moveaxis``.
    sums = np.cumsum(prob_rows[..., :-1], axis=-1)
    thresholds = sums.transpose((sums.ndim - 1,) + tuple(range(sums.ndim - 1))).copy()
    u = rng.random(prob_rows.shape[:-2] + conditioning_codes.shape)
    codes = np.zeros(u.shape, dtype=np.int64)
    for threshold in thresholds:
        codes += u >= threshold.take(conditioning_codes, axis=-1)
    return codes


# A group of at most this many items draws one uniform per item and
# tallies the codes; a larger group draws one multinomial.  numpy's
# multinomial costs about the same per group whatever its size, and a
# few uniforms cost less.
_SMALL_GROUP = 8


class GroupSplit:
    """Groups of iid items split by size for ``draw_doctype_counts``.

    Made once per layout, so that a draw does only per-draw work.  Group
    g has ``sizes[g]`` items, all conditioned on the category
    ``conditioning_codes[g]``, and its tally over ``categories``
    categories goes into row ``into[g]`` of ``rows`` tally rows.  Each
    item of a group of at most ``_SMALL_GROUP`` items has an entry in
    ``item_slots``, its row times ``categories``, and in ``item_codes``,
    its group's conditioning category.  The larger groups have sizes
    ``large_sizes``, conditioning categories ``large_codes`` and their
    rows' category slots ``large_slots``.

    A plain class: a dataclass would cost about a millisecond at import.
    """

    __slots__ = (
        "rows", "categories", "item_slots", "item_codes", "large_sizes", "large_codes",
        "large_slots",
    )

    def __init__(
        self, sizes: np.ndarray, conditioning_codes: np.ndarray, categories: int, into: np.ndarray
    ):
        small = sizes <= _SMALL_GROUP
        group_of = np.repeat(np.flatnonzero(small), sizes[small])
        large = np.flatnonzero(~small)
        self.rows, self.categories = int(into.max(initial=-1)) + 1, categories
        self.item_slots = into[group_of] * categories
        self.item_codes = conditioning_codes[group_of]
        self.large_sizes = sizes[large]
        self.large_codes = conditioning_codes[large]
        self.large_slots = (into[large] * categories)[:, None] + np.arange(categories)


def draw_doctype_counts(
    rng: np.random.Generator, prob_rows: np.ndarray, split: GroupSplit
) -> np.ndarray:
    """Per-category counts of groups of iid items, summed into tally rows.

    ``prob_rows`` is (c, k): a probability vector over k categories per
    conditioning category, or (rows, c, k) for a block of rows; k is
    ``split.categories``.  ``split`` (a ``GroupSplit``) holds the groups,
    each of iid items conditioned on one category, and each group's tally
    row.  Given ``prob_rows`` the tally of a group's categories is
    Multinomial(its size, its conditioning row).  A group of at most
    ``_SMALL_GROUP`` items tallies its items' ``draw_doctype_codes``
    codes; a larger group draws the multinomial directly, at a cost that
    does not grow with its size.  One call draws the uniforms of every
    small-group item in every row, then one call the multinomials of every
    large group in every row.  Returns a (``split.rows``, k) integer
    array, (rows, ``split.rows``, k) for a block, each tally row the sum
    of its groups' tallies; a row's counts sum to its groups' sizes and a
    zero-probability category gets 0.  A block's array is a view whose
    memory is tally-row major: ``transpose(1, 2, 0)`` of it is
    contiguous, so the kernel reads each (tally row, category) across the
    block's rows as one contiguous run.
    """
    lead = prob_rows.shape[:-2]
    rows, width = math.prod(lead), split.rows * split.categories
    # Each small-group item's code is binned at (tally row, code, row), so
    # one bincount tallies the whole block; the large groups' multinomials
    # are then added at their tally rows' slots, unbuffered, as a tally row
    # may hold several of them; flat arrays take ``np.add.at``'s fast path.
    codes = draw_doctype_codes(rng, prob_rows, split.item_codes)
    codes += split.item_slots
    codes *= rows
    row = np.arange(rows).reshape(lead + (1,))
    codes += row
    counts = np.bincount(codes.ravel(), minlength=width * rows)
    if split.large_sizes.size:
        drawn = rng.multinomial(split.large_sizes, prob_rows[..., split.large_codes, :])
        slots = split.large_slots * rows + row[..., None]
        np.add.at(counts, slots.ravel(), drawn.ravel())
    counts = counts.reshape(split.rows, split.categories, rows).transpose(2, 0, 1)
    return counts.reshape(lead + (split.rows, split.categories))


def sample_probability_rows(rng: np.random.Generator, concentrations: np.ndarray) -> np.ndarray:
    """One Dirichlet draw per row of a (c, k) concentration array.

    A (rows, c, k) array, a block of rows, works the same way.  Rows
    whose gamma draws all underflow to zero (possible only for vanishing
    concentrations) fall back to a point mass on the row's largest
    concentration.
    """
    gams = rng.standard_gamma(concentrations)
    sums = gams.sum(axis=-1, keepdims=True)
    bad = np.nonzero(sums[..., 0] == 0.0)
    if bad[0].size:
        gams[bad] = 0.0
        gams[bad + (concentrations[bad].argmax(axis=-1),)] = 1.0
        sums = gams.sum(axis=-1, keepdims=True)
    return gams / sums


def predict_doctype(
    posterior: DirichletPosterior, conditioning: DocType, n: int, seed: int
) -> list[DocType]:
    """Draw n document types conditional on one recorded (or true) type.

    Each draw samples a probability vector from the conditioning row's
    Dirichlet and then a category from it, i.e. the draws are
    Dirichlet-multinomial with the posterior concentrations.
    """
    _check_n(n)
    rng = np.random.default_rng(seed)
    rows = sample_probability_rows(rng, np.broadcast_to(posterior.row(conditioning), (n, 4)))
    codes = draw_doctype_codes(rng, rows, np.arange(n))
    return [DOCTYPE_ORDER[code] for code in codes]


class _Echo:
    """A file-like sink whose ``write`` returns the text it is given."""

    def write(self, text: str) -> str:
        return text


# The dump writer caches the "<count>,<doctype>\r\n" tail of the rows
# whose count is below this bound: at most 4 * 4,096 short strings (about
# 1.2 MB), made only up to the largest count seen.
DUMP_TAIL_COUNTS = 4096


def predictive_dump(
    ids: Sequence[str], handle: TextIO
) -> Callable[[int, np.ndarray, np.ndarray], None]:
    """Write the item dump's header to ``handle`` and return its block writer.

    The writer, ``write(first_iteration, citations_rows, codes_rows)``,
    takes a kernel block: row r of the (iterations, items) arrays is
    iteration ``first_iteration + r``; both line up with ``ids``, and the
    codes index ``DOCTYPE_ORDER``.  It writes one row per item per
    iteration: iteration, publication_id, citations, doctype, with one
    ``handle.write`` per iteration.  The bytes are exactly those
    ``csv.writer`` writes row by row (``\\r\\n`` line ends, minimal
    quoting), however the iterations are split into blocks.

    A row is three strings: "<iteration>,", the id field with its comma,
    and the tail "<count>,<doctype>\\r\\n".  One list holds the three
    slots of every row.  The id slots are filled once per run with the
    fields ``csv.writer`` itself quotes.  Per iteration, the lead slots
    take the iteration's one lead string, the tail slots take the cached
    tails indexed by ``4 * count + code`` (one array ``take``), a row
    whose count is outside ``[0, DUMP_TAIL_COUNTS)`` gets its tail
    formatted on its own, and the list is joined and written at once.
    The cache grows as larger counts appear.  Only one iteration's rows
    are held at a time.
    """
    echo = csv.writer(_Echo())
    endings = [echo.writerow(("", dt.value)) for dt in DOCTYPE_ORDER]
    n = len(ids)
    parts = [""] * (3 * n)
    # "<id>,\r\n" with the line end cut off leaves the id field and its comma.
    parts[1::3] = [echo.writerow((pub_id, ""))[:-2] for pub_id in ids]
    # tails[4 * count + code] is "<count>,<doctype>\r\n", for the counts
    # seen so far up to the bound.
    tails = np.empty(0, dtype=object)
    handle.write(echo.writerow(("iteration", "publication_id", "citations", "doctype")))

    def write(first_iteration: int, citations_rows: np.ndarray, codes_rows: np.ndarray) -> None:
        nonlocal tails
        if not n:
            return
        rows = zip(citations_rows, codes_rows)
        for iteration, (citations, codes) in enumerate(rows, first_iteration):
            low, top = int(citations.min()), int(citations.max())
            fits = low >= 0 and top < DUMP_TAIL_COUNTS
            cached = citations if fits else np.clip(citations, 0, DUMP_TAIL_COUNTS - 1)
            known, need = tails.size // 4, min(max(top, 0), DUMP_TAIL_COUNTS - 1) + 1
            if need > known:
                more = [f"{count}{ending}" for count in range(known, need) for ending in endings]
                tails = np.concatenate([tails, np.array(more, dtype=object)])
            parts[0::3] = [f"{iteration},"] * n
            parts[2::3] = tails.take(4 * cached + codes).tolist()
            if not fits:
                for i in np.flatnonzero(cached != citations).tolist():
                    parts[3 * i + 2] = f"{int(citations[i])}{endings[codes[i]]}"
            handle.write("".join(parts))

    return write
