"""Spans around the calls into each layer of the package.

The tracer replaces a layer's public function at the name its caller
binds (``bibuq.simulation.draw_omitted`` is what ``_simulate_one`` calls)
with a wrapper that records a span: name, start, end, parent span, and
an optional count of work done.  Spans stay in memory; the run writes them
out after it ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

import numpy as np


def _set_rows(args, kwargs, result) -> int:
    return sum(len(s) for s in result)


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _confusion_rows(args, kwargs, result) -> int:
    return result.counts.size  # one row per (true, recorded) pair


def _result_size(args, kwargs, result) -> int:
    return int(np.size(result))


# (module, attribute, span name, work counter)
POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("bibuq", "load_publications", "datamodel.load_publications", _set_rows),
    ("bibuq", "load_citation_error_sample", "datamodel.load_citation_error_sample", _result_len),
    ("bibuq", "load_doctype_confusion", "datamodel.load_doctype_confusion", _confusion_rows),
    ("bibuq", "fit_citation_error_model", "errormodels.fit_citation_error_model", None),
    ("bibuq", "fit_doctype_error_model", "errormodels.fit_doctype_error_model", None),
    ("bibuq.mcmc", "run_chain", "mcmc.run_chain", None),
    ("bibuq.errormodels", "negbin_logpmf", "errormodels.negbin_logpmf", _result_size),
    ("bibuq.errormodels", "mcmc_diagnostics", "mcmc.diagnostics", None),
    ("bibuq", "propagate", "simulation.propagate", None),
    ("bibuq.simulation", "iteration_rng", "simulation.iteration_rng", None),
    ("bibuq.simulation", "draw_omitted", "predictive.draw_omitted", _result_size),
    ("bibuq.predictive", "negbin_rvs", "errormodels.negbin_rvs", None),
    ("bibuq.simulation", "sample_probability_rows", "predictive.sample_probability_rows", None),
    ("bibuq.simulation", "draw_doctype_codes", "predictive.draw_doctype_codes", _result_size),
    ("bibuq.simulation", "build_normalization", "indicators.build_normalization", None),
    ("bibuq.simulation", "indicators_for", "indicators.indicators_for", None),
    ("bibuq.simulation", "summarize", "simulation.summarize", None),
    ("bibuq", "write_report_json", "simulation.write_report_json", None),
    ("bibuq", "write_plot_summary", "simulation.write_plot_summary", None),
    ("bibuq", "write_uncertainty_plot", "simulation.write_uncertainty_plot", None),
)


class Tracer:
    """In-memory span recorder for one traced pipeline round."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index, work count].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                record[4] = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer point for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span, counter in POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, work count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
        )
        for k, (name, start, end, parent, work) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[k]
            entry["work"] += work
        return dict(out)

    def write(self, path) -> None:
        """Write the spans as CSV, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,parent,start_s,end_s,work\n")
            for k, (name, start, end, parent, work) in enumerate(self.spans):
                handle.write(f"{k},{name},{parent},{start - origin:.9f},{end - origin:.9f},{work}\n")


def layer_metrics(totals: dict[str, dict[str, float]], wall_s: float, dump_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, named as in BENCHMARK.json."""

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    loaders = ("datamodel.load_publications", "datamodel.load_citation_error_sample",
               "datamodel.load_doctype_confusion")
    load_s = sum(get(n, "total_s") for n in loaders)
    doctype_draw_s = get("predictive.sample_probability_rows", "total_s") + get(
        "predictive.draw_doctype_codes", "total_s"
    )
    draw_s = get("predictive.draw_omitted", "total_s") + doctype_draw_s
    items = get("predictive.draw_omitted", "work") + get("predictive.draw_doctype_codes", "work")
    spans_self = sum(entry["self_s"] for entry in totals.values())
    return {
        "datamodel.load_publications_s": get("datamodel.load_publications", "total_s"),
        "datamodel.load_rows_per_s": sum(get(n, "work") for n in loaders) / load_s,
        "errormodels.fit_citation_s": get("errormodels.fit_citation_error_model", "total_s"),
        "errormodels.negbin_logpmf_s": get("errormodels.negbin_logpmf", "total_s"),
        "errormodels.negbin_logpmf_calls": get("errormodels.negbin_logpmf", "calls"),
        "errormodels.negbin_logpmf_values": get("errormodels.negbin_logpmf", "work"),
        "mcmc.run_chain_s": get("mcmc.run_chain", "self_s"),
        "mcmc.diagnostics_s": get("mcmc.diagnostics", "total_s"),
        "predictive.draw_omitted_s": get("predictive.draw_omitted", "total_s"),
        "errormodels.negbin_rvs_s": get("errormodels.negbin_rvs", "total_s"),
        "predictive.doctype_draw_s": doctype_draw_s,
        "predictive.items_drawn_per_s": items / draw_s if draw_s else 0.0,
        "predictive.calls": sum(
            get(n, "calls")
            for n in ("predictive.draw_omitted", "predictive.sample_probability_rows",
                      "predictive.draw_doctype_codes")
        ),
        "simulation.iteration_rng_s": get("simulation.iteration_rng", "total_s"),
        "simulation.iteration_rng_calls": get("simulation.iteration_rng", "calls"),
        "simulation.propagate_s": get("simulation.propagate", "total_s"),
        "simulation.propagate_self_s": get("simulation.propagate", "self_s"),
        "indicators.build_normalization_s": get("indicators.build_normalization", "total_s"),
        "indicators.indicators_for_s": get("indicators.indicators_for", "total_s"),
        "simulation.summarize_s": get("simulation.summarize", "total_s"),
        "simulation.write_reports_s": sum(
            get(n, "total_s")
            for n in ("simulation.write_report_json", "simulation.write_plot_summary",
                      "simulation.write_uncertainty_plot")
        ),
        "simulation.dump_bytes": float(dump_bytes),
        "trace.wall_s": wall_s,
        "trace.residual_pct": 100.0 * (wall_s - spans_self) / wall_s,
    }
