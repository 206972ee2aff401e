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
    bins: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized omitted-count draws.

    ``params`` holds (intercept, slope, dispersion) in its last axis; the
    rest of its shape broadcasts against ``log1p_predictor`` (the model
    predictor through ``np.log1p``).  So one (3,) row applies to every
    element, an (n, 3) array lines up with n predictors, and a (rows, 1,
    3) array draws a (rows, n) block, one parameter row per block row.
    ``counts`` optionally makes an element the summed omissions of that
    many iid items that share its predictor, and ``bins`` optionally sums
    the elements into bins along the last axis with one Poisson draw per
    bin (see ``negbin_rvs``).
    """
    params = np.asarray(params, dtype=np.float64)
    b0 = params[..., 0]
    b1 = params[..., 1]
    theta = params[..., 2]
    with np.errstate(over="ignore"):
        mu = np.exp(b0 + b1 * log1p_predictor)
    return negbin_rvs(rng, mu, theta, counts, bins)


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
    [0, citations].
    """
    if posterior.spec.direction != FIRST_KIND:
        raise UsageError("error injection requires a posterior fitted in the first-kind direction")
    omitted = predict_omitted(posterior, citations, n, seed)
    return np.maximum(citations - omitted, 0)


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
    # is cheaper than a fancy index over the category axis too.
    thresholds = np.moveaxis(np.cumsum(prob_rows[..., :-1], axis=-1), -1, 0).copy()
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


def draw_doctype_counts(
    rng: np.random.Generator,
    prob_rows: np.ndarray,
    sizes: np.ndarray,
    conditioning_codes: np.ndarray,
) -> np.ndarray:
    """Per-category counts of groups of iid items.

    ``prob_rows`` is (c, k): a probability vector over k categories per
    conditioning category, or (rows, c, k) for a block of rows.  Group g
    has ``sizes[g]`` items, all conditioned on the category
    ``conditioning_codes[g]``.  Given ``prob_rows`` the items are iid
    categorical on that row, so the tally of their categories is
    Multinomial(``sizes[g]``, ``prob_rows[conditioning_codes[g]]``).  A
    group of at most ``_SMALL_GROUP`` items tallies its items'
    ``draw_doctype_codes`` codes; a larger group draws the multinomial
    directly, at a cost that does not grow with its size.  One call draws
    the uniforms of every small-group item in every row, then one call
    the multinomials of every large group in every row.  Returns a
    (groups, k) integer array, (rows, groups, k) for a block; each
    group's counts sum to ``sizes[g]`` and a zero-probability category
    gets 0.
    """
    lead, k = prob_rows.shape[:-2], prob_rows.shape[-1]
    rows, groups = math.prod(lead), sizes.size
    small = sizes <= _SMALL_GROUP
    # Each small-group item's code is binned at (row, group, code), so one
    # bincount tallies the whole block; the large groups' bins stay empty
    # until their multinomials fill them.
    group_of = np.repeat(np.flatnonzero(small), sizes[small])
    codes = draw_doctype_codes(rng, prob_rows, conditioning_codes[group_of])
    codes += group_of * k
    codes += (np.arange(rows) * (groups * k)).reshape(lead + (1,))
    counts = np.bincount(codes.ravel(), minlength=rows * groups * k).reshape(lead + (groups, k))
    large = np.flatnonzero(~small)
    if large.size:
        counts[..., large, :] = rng.multinomial(
            sizes[large], prob_rows[..., conditioning_codes[large], :]
        )
    return counts


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
