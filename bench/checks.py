"""Output checks made outside the program.

Each check recomputes what the pipeline returned from the generated input
arrays, or tests a property the method must have.  None of them compares
against stored output.  A check returns an error message, or None when it
passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import DOCTYPES, Inputs, Workload

INDICATORS = ("P", "C", "MNCS")
# Replicate means of P and C must lie within this many standard errors of
# their analytic expectation.
Z_BAND = 5.0
# The posterior mean of each citation-model parameter must lie within this
# many posterior standard deviations of the audit's generating value.
COVER_SD = 5.0
# Relative tolerance for floating-point values whose summation order
# differs from the program's (MNCS, quantiles).
REL_TOL = 1e-12


def _close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def indicators(
    citations: np.ndarray,
    doctypes: np.ndarray,
    unit: np.ndarray,
    group: np.ndarray,
    n_units: int,
) -> dict[str, np.ndarray]:
    """P, C, MNCS and MNCS-excluded counts per (replicate, unit).

    ``citations`` and ``doctypes`` are (replicates, publications) arrays
    over the whole normalization universe; ``unit`` is -1 for reference
    publications; ``group`` is the normalization group (one group for the
    doctype-only key, -1 for a publication that has no cell).
    """
    reps, n = citations.shape
    n_keys = (int(group.max()) + 1) * 4
    has_cell = np.broadcast_to(group >= 0, (reps, n))
    key = np.where(group >= 0, group, 0) * 4 + doctypes + (np.arange(reps) * n_keys)[:, None]
    sums = np.bincount(key[has_cell], weights=citations[has_cell], minlength=reps * n_keys)
    sizes = np.bincount(key[has_cell], minlength=reps * n_keys)
    mean = np.where(has_cell, sums[key] / np.maximum(sizes[key], 1), 0.0)

    core = (doctypes <= 1) & (unit >= 0)
    slot = (np.arange(reps) * n_units)[:, None] + unit
    scorable = core & has_cell & ((mean > 0) | (citations == 0))
    score = citations / np.where(mean > 0, mean, 1.0) * (mean > 0)
    size = reps * n_units
    p = np.bincount(slot[core], minlength=size)
    c = np.bincount(slot[core], weights=citations[core], minlength=size)
    num = np.bincount(slot[scorable], weights=score[scorable], minlength=size)
    den = np.bincount(slot[scorable], minlength=size)
    mncs = np.full(size, np.nan)
    np.divide(num, den, out=mncs, where=den > 0)
    shape = (reps, n_units)
    return {
        "P": p.reshape(shape).astype(np.float64),
        "C": c.reshape(shape),
        "MNCS": mncs.reshape(shape),
        "excluded": (p - den).reshape(shape),
    }


def check_observed(workload: Workload, inputs: Inputs, result) -> str | None:
    # Pooled normalization: the universe is the units plus the reference set.
    parts = [inputs.units] + ([inputs.reference] if inputs.reference is not None else [])
    field_aware = workload.key_mode == "doctype-year-field"
    ref = indicators(
        np.concatenate([part.citations for part in parts])[None, :],
        np.concatenate([part.doctype for part in parts])[None, :],
        np.concatenate([part.unit for part in parts]),
        np.concatenate([part.group if field_aware else 0 * part.group for part in parts]),
        len(workload.units),
    )
    for u, (name, _, _) in enumerate(workload.units):
        got = result.observed[name]
        if got.p != ref["P"][0, u] or got.c != ref["C"][0, u]:
            return f"{name}: observed P, C = {got.p}, {got.c}, recomputed {ref['P'][0, u]}, {ref['C'][0, u]}"
        want = ref["MNCS"][0, u]
        if not _close(got.mncs, None if math.isnan(want) else float(want)):
            return f"{name}: observed MNCS {got.mncs!r}, recomputed {want!r}"
        if got.excluded != ref["excluded"][0, u]:
            return f"{name}: observed excluded {got.excluded}, recomputed {ref['excluded'][0, u]}"
    return None


def _quantile(sorted_values: np.ndarray, prob: float) -> float:
    """Linear interpolation between order statistics (Hyndman-Fan type 7)."""
    h = (sorted_values.size - 1) * prob
    lo = math.floor(h)
    hi = min(lo + 1, sorted_values.size - 1)
    a, b = float(sorted_values[lo]), float(sorted_values[hi])
    return a + (h - lo) * (b - a)


def check_summaries(workload: Workload, result, report_path: Path, plot_path: Path) -> str | None:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    with plot_path.open(newline="", encoding="utf-8") as handle:
        plot = {(row["unit"], row["indicator"]): row for row in csv.DictReader(handle)}
    for name, _, _ in workload.units:
        for indicator in INDICATORS:
            reps = np.asarray(result.distribution(name, indicator).replicates, dtype=np.float64)
            if reps.shape != (workload.iterations,):
                return f"{name} {indicator}: {reps.shape} replicates for {workload.iterations} iterations"
            defined = np.sort(reps[~np.isnan(reps)])
            if indicator != "MNCS" and defined.size != workload.iterations:
                return f"{name} {indicator}: only {defined.size} defined replicates"
            entry = report["units"][name][indicator]
            if defined.size == 0:
                want = {"median": None, "ci_low": None, "ci_high": None}
            else:
                want = {
                    "median": _quantile(defined, 0.5),
                    "ci_low": _quantile(defined, 0.025),
                    "ci_high": _quantile(defined, 0.975),
                }
            median = want["median"]
            want["relative_uncertainty_pct"] = (
                100.0 * (want["ci_high"] - want["ci_low"]) / median if median else None
            )
            for key, value in want.items():
                if not _close(entry[key], value):
                    return f"{name} {indicator} {key}: report {entry[key]!r}, recomputed {value!r}"
            row = plot[(name, indicator)]
            for key in ("median", "ci_low", "ci_high"):
                shown = float(row[key]) if row[key] else None
                if shown != entry[key]:
                    return f"{name} {indicator} {key}: plot summary {row[key]!r}, report {entry[key]!r}"
    return None


def check_fit_coverage(workload: Workload, posterior) -> str | None:
    draws = posterior.draws.reshape(-1, 3).copy()
    draws[:, 2] = np.log(draws[:, 2])
    a = workload.audit
    truth = (a.intercept, a.slope, math.log(a.dispersion))
    for label, column, value in zip(("intercept", "slope", "log_dispersion"), draws.T, truth):
        z = (column.mean() - value) / column.std()
        if not abs(z) <= COVER_SD:
            return f"{label}: generating value {value:.4f} is {z:.2f} posterior sd from the mean"
    return None


def expectation_z(workload: Workload, inputs: Inputs, posterior, result) -> dict[str, float]:
    """z-scores of the P and C replicate means against their expectation.

    Correction keeps a core item with probability q(recorded type), the
    posterior-mean probability that its true type is core, and adds
    omitted citations with mean exp(b0 + b1 * log1p(c)) under the
    posterior draw that iteration j uses (draw j modulo the number of
    draws, chain-major).  So E[P] = sum q and E[C] = sum q * (c + E[omitted]).
    """
    concentrations = inputs.confusion.T + 1.0  # recorded type x true type
    q = concentrations[:, :2].sum(axis=1) / concentrations.sum(axis=1)
    flat = posterior.draws.reshape(-1, 3)
    params = flat[np.arange(workload.iterations) % flat.shape[0]]
    pubs = inputs.units
    values, inverse = np.unique(pubs.citations, return_inverse=True)
    mean_omitted = np.exp(
        params[:, :1] + params[:, 1:2] * np.log1p(values.astype(np.float64))[None, :]
    ).mean(axis=0)[inverse]
    qi = q[pubs.doctype]
    out = {}
    for u, (name, _, _) in enumerate(workload.units):
        mine = pubs.unit == u
        expected = {
            "P": qi[mine].sum(),
            "C": (qi[mine] * (pubs.citations[mine] + mean_omitted[mine])).sum(),
        }
        for indicator, want in expected.items():
            reps = np.asarray(result.distribution(name, indicator).replicates, dtype=np.float64)
            se = reps.std(ddof=1) / math.sqrt(reps.size)
            out[f"{name}.{indicator}"] = float((reps.mean() - want) / se)
    return out


def check_expectation(z: dict[str, float]) -> str | None:
    worst = max(z, key=lambda k: abs(z[k]))
    if not abs(z[worst]) <= Z_BAND:
        return f"{worst}: replicate mean is {z[worst]:.2f} standard errors from its expectation"
    return None


def read_dump(path: Path, ids: list[str], iterations: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Citations and doctype codes per (iteration, unit publication).

    Returns the arrays and the number of data rows.  A cell that no row
    fills stays -1; a cell filled twice makes the row count exceed
    iterations times publications.
    """
    position = {pid: k for k, pid in enumerate(ids)}
    code = {label: k for k, label in enumerate(DOCTYPES)}
    n = len(ids)
    citations = np.full((iterations, n), -1, dtype=np.int64)
    doctypes = np.full((iterations, n), -1, dtype=np.int64)
    rows = 0
    with path.open(encoding="utf-8") as handle:
        if handle.readline().strip() != "iteration,publication_id,citations,doctype":
            raise ValueError(f"{path}: unexpected dump header")
        while True:
            lines = handle.readlines(1 << 22)
            if not lines:
                break
            fields = [line.rstrip("\r\n").split(",") for line in lines]
            it = np.array([f[0] for f in fields]).astype(np.int64)
            pos = np.array([position[f[1]] for f in fields])
            citations[it, pos] = np.array([f[2] for f in fields]).astype(np.int64)
            doctypes[it, pos] = np.array([code[f[3]] for f in fields])
            rows += len(lines)
    return citations, doctypes, rows


def check_dump(workload: Workload, inputs: Inputs, result, dump_path: Path) -> dict[str, str | None]:
    """Row count, injection bounds and exact replicate recomputation."""
    pubs = inputs.units
    citations, doctypes, rows = read_dump(dump_path, pubs.ids, workload.iterations)
    expected_rows = workload.iterations * len(pubs.ids)
    out: dict[str, str | None] = {"dump_rows": None, "dump_bounds": None, "dump_replicates": None}
    if rows != expected_rows or (citations < 0).any():
        out["dump_rows"] = f"{rows} rows, expected one per iteration and publication: {expected_rows}"
        out["dump_bounds"] = out["dump_replicates"] = "dump incomplete"
        return out
    over = citations > pubs.citations[None, :]
    if over.any():
        out["dump_bounds"] = f"{int(over.sum())} dumped counts exceed the error-free count"

    # Pooled normalization without a reference set: the universe is
    # exactly the dumped publications, so every replicate can be rebuilt.
    block = 50
    for start in range(0, workload.iterations, block):
        stop = min(start + block, workload.iterations)
        ref = indicators(
            citations[start:stop], doctypes[start:stop], pubs.unit, pubs.group, len(workload.units)
        )
        for u, (name, _, _) in enumerate(workload.units):
            for indicator in INDICATORS:
                got = np.asarray(result.distribution(name, indicator).replicates)[start:stop]
                want = ref[indicator][:, u]
                if indicator == "MNCS":
                    wrong = ~np.isclose(got, want, rtol=REL_TOL, atol=0.0, equal_nan=True)
                else:
                    wrong = got != want
                if wrong.any():
                    bad = int(np.flatnonzero(wrong)[0])
                    out["dump_replicates"] = (
                        f"{name} {indicator} iteration {start + bad}: returned {got[bad]!r}, "
                        f"recomputed from the dump {want[bad]!r}"
                    )
                    return out
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
