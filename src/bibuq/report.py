"""The report format: ``report.json``, its table and the plot CSVs.

A run's report holds one record per unit and indicator: the ``RECORD_KEYS``
values, then the run's iterations and seed.  ``report_payload`` builds it,
the writers store it and ``read_report`` reads it back for ``bibuq report``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Mapping

from .datamodel import ValidationError, read_json_object, write_csv, write_json
from .errormodels import FIRST_KIND, SECOND_KIND
from .simulation import PropagationResult

__all__ = [
    "INDICATOR_NAMES",
    "RECORD_KEYS",
    "report_payload",
    "report_header",
    "render_report_table",
    "render_result_table",
    "read_report",
    "write_report_json",
    "write_plot_summary",
    "write_uncertainty_plot",
]

INDICATOR_NAMES = ("P", "C", "MNCS")

# The values of a unit's record for one indicator, each a number or null.
RECORD_KEYS = ("observed", "median", "ci_low", "ci_high", "relative_uncertainty_pct")


def report_payload(result: PropagationResult) -> dict:
    """The ``report.json`` payload of a run."""
    units_payload: dict = {}
    for unit in result.units:
        per_indicator = {}
        for indicator in INDICATOR_NAMES:
            dist = result.distribution(unit, indicator)
            values = (None,) * 4
            if s := dist.summary:
                values = (s.median, s.ci_low, s.ci_high, s.relative_uncertainty_pct)
            per_indicator[indicator] = {
                **dict(zip(RECORD_KEYS, (dist.observed, *values))),
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


def report_header(payload: Mapping) -> str:
    """The run line printed above a report's table."""
    return (
        f"direction={payload.get('direction', SECOND_KIND)}, "
        f"channels={'+'.join(payload.get('channels', []))}, "
        f"iterations={payload.get('iterations')}, seed={payload.get('seed')}"
    )


def _fmt_num(value: float | None, decimals: int = 3) -> str:
    if value is None:
        return "n/a"
    rounded = round(float(value), decimals)
    if rounded == int(rounded):
        return str(int(rounded))
    return repr(rounded)


def render_report_table(payload: Mapping) -> str:
    """Fixed-width table of a ``report.json`` payload.

    One row per unit and indicator: observed (or error-free) value,
    median, central 95% interval and relative uncertainty.
    """
    observed_label = "error-free" if payload.get("direction") == FIRST_KIND else "observed"
    lines = [
        f"{'unit':<12} {'indicator':<10} {observed_label:>12} "
        f"{'median':>12} {'95% interval':>24} {'rel. unc.':>10}"
    ]
    for unit, records in payload["units"].items():
        for indicator in INDICATOR_NAMES:
            record = records.get(indicator)
            if record is None:
                continue
            decimals = 2 if indicator == "MNCS" else 3
            interval = (
                f"({_fmt_num(record['ci_low'], decimals)}, "
                f"{_fmt_num(record['ci_high'], decimals)})"
            )
            rel = record.get("relative_uncertainty_pct")
            rel_text = "n/a" if rel is None else f"{rel:.1f}%"
            lines.append(
                f"{unit:<12} {indicator:<10} {_fmt_num(record['observed'], decimals):>12} "
                f"{_fmt_num(record['median'], decimals):>12} {interval:>24} {rel_text:>10}"
            )
    return "\n".join(lines)


def render_result_table(result: PropagationResult) -> str:
    """The ``render_report_table`` table of a run's report payload."""
    return render_report_table(report_payload(result))


def read_report(path: str | Path) -> dict:
    """A stored report that ``render_report_table`` can read; else a ValidationError naming it.

    A missing ``direction`` reads as second-kind.
    """
    payload = read_json_object(path, "report")
    direction = payload.get("direction", SECOND_KIND)
    if direction not in (SECOND_KIND, FIRST_KIND):
        raise ValidationError(
            f"{path}: direction must be {SECOND_KIND!r} or {FIRST_KIND!r}, got {direction!r}"
        )
    channels = payload.get("channels", [])
    if not isinstance(channels, list) or not all(isinstance(c, str) for c in channels):
        raise ValidationError(f"{path}: channels must be a list of strings")
    if not isinstance(payload.get("units"), dict):
        raise ValidationError(f"{path}: not a propagation report (no \"units\" object)")
    for unit, records in payload["units"].items():
        if not isinstance(records, dict):
            raise ValidationError(f"{path}: unit {unit!r} must be a JSON object")
        for indicator, record in records.items():
            # Each a finite int or float, or null: no bool, NaN, infinity or missing key.
            if not isinstance(record, dict) or not all(
                value is None or type(value) in (int, float) and abs(value) <= sys.float_info.max
                for value in (record.get(key, "") for key in RECORD_KEYS)
            ):
                raise ValidationError(
                    f"{path}: unit {unit!r} indicator {indicator!r} must hold "
                    f"{', '.join(RECORD_KEYS)}, each a number or null"
                )
    return payload


def write_report_json(result: PropagationResult, path: str | Path) -> None:
    """Write the full-precision per-unit report.  Byte-stable on reruns."""
    write_json(report_payload(result), path)


def _csv_value(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_plot_summary(result: PropagationResult, path: str | Path) -> None:
    """CSV of observed vs simulated interval per unit and indicator."""
    columns = RECORD_KEYS[:4]
    rows = ([unit, indicator] + [_csv_value(record[k]) for k in columns]
            for unit, records in report_payload(result)["units"].items()
            for indicator, record in records.items())
    write_csv(path, ["unit", "indicator", *columns], rows)


def write_uncertainty_plot(result: PropagationResult, path: str | Path) -> None:
    """CSV relating unit size to relative MNCS uncertainty."""
    rows = ([unit, _csv_value(records["P"]["median"]),
             _csv_value(records["MNCS"]["relative_uncertainty_pct"])]
            for unit, records in report_payload(result)["units"].items())
    write_csv(path, ["unit", "P_median", "mncs_rel_uncertainty_pct"], rows)
