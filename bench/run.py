"""Single-process benchmark of the bibuq fit-and-propagate pipeline.

One run generates a workload's input CSVs from ``--seed``, then repeats
whole rounds of the pipeline the ``fit`` and ``propagate``/``inject``
commands perform, until ``--seconds`` have passed:

1. load the publications, the citation audit and the confusion table;
2. fit the citation and document-type error models;
3. propagate with one worker;
4. write report.json, plot_summary.csv and plot_uncertainty.csv.

Every round's outputs are checked against the benchmark's own
recomputation (see checks.py).  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the full record of the run,
which is also written to bench/results/.

    python3 bench/run.py --workload correct-44k --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --quick
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

MIN_ROUNDS = 3
RESULTS_DIR = BENCH_DIR / "results"
SCRATCH_DIR = BENCH_DIR / ".scratch"


def import_package():
    """Import bibuq from this checkout's sources; returns (module, seconds)."""
    src = ROOT / "src"
    if not (src / "bibuq" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bibuq sources under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import bibuq

    elapsed = perf_counter() - start
    if Path(bibuq.__file__).resolve().parent != (src / "bibuq").resolve():
        raise SystemExit(f"bench: imported bibuq from {bibuq.__file__}, not from {src}")
    return bibuq, elapsed


def git_sha() -> str:
    """HEAD commit read from .git without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, to identify the code in a checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bibuq").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _status(field_name: str) -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"{field_name} missing from /proc/self/status")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Round:
    traced: bool
    setup_s: float = float("nan")
    propagate_s: float = float("nan")
    report_s: float = float("nan")
    checks: dict[str, str | None] = field(default_factory=dict)
    report_sha: str = ""
    layers: dict[str, float] = field(default_factory=dict)


def run_pipeline(bibuq, wl, inputs, seed: int, out: Path, rnd: Round):
    """One pass of load, fit, propagate and write; fills the round's times."""
    start = perf_counter()
    units = bibuq.load_publications(inputs.pubs_path)
    reference = None
    if inputs.reference_path is not None:
        (reference,) = bibuq.load_publications(inputs.reference_path)
    sample = bibuq.load_citation_error_sample(inputs.audit_path)
    table = bibuq.load_doctype_confusion(inputs.confusion_path)
    citation = bibuq.fit_citation_error_model(
        sample, bibuq.NegBinModelSpec(direction=wl.direction), bibuq.McmcConfig(seed=seed)
    )
    doctype = bibuq.fit_doctype_error_model(table, 1.0, wl.direction)
    config = bibuq.PropagationConfig(
        iterations=wl.iterations,
        seed=seed,
        direction=wl.direction,
        key_mode=wl.key_mode,
        workers=1,
    )
    models = bibuq.FittedModels(citation=citation, doctype=doctype)
    setup_end = perf_counter()
    result = bibuq.propagate(
        units, reference, models, config, dump_items=out / "dump.csv" if wl.dump else None
    )
    propagate_end = perf_counter()
    bibuq.write_report_json(result, out / "report.json")
    bibuq.write_plot_summary(result, out / "plot_summary.csv")
    bibuq.write_uncertainty_plot(result, out / "plot_uncertainty.csv")
    end = perf_counter()
    rnd.setup_s = setup_end - start
    rnd.propagate_s = propagate_end - setup_end
    rnd.report_s = end - start
    return citation, result


def check_round(wl, inputs, citation, result, out: Path) -> tuple[dict[str, str | None], dict]:
    """Run every check of the workload.

    Returns a map from check name to error message (None when it passed)
    and the diagnostic values the checks computed, for the run record.
    """
    diag = citation.diagnostics
    info: dict = {"fit": {"converged": diag.converged, "rhat": diag.rhat, "ess": diag.ess}}
    # The sampler misses its own R-hat threshold for some seeds, so
    # convergence is recorded above instead of being counted as an
    # operation; coverage of the generating parameters is the fit's check.
    found: dict[str, str | None] = {"pipeline": None}
    found["fit_covers_truth"] = checks.check_fit_coverage(wl, citation)
    found["observed_indicators"] = checks.check_observed(wl, inputs, result)
    found["summaries"] = checks.check_summaries(
        wl, result, out / "report.json", out / "plot_summary.csv"
    )
    if wl.direction == "second-kind":
        info["expectation_z"] = checks.expectation_z(wl, inputs, citation, result)
        found["expectation"] = checks.check_expectation(info["expectation_z"])
    if wl.dump:
        found.update(checks.check_dump(wl, inputs, result, out / "dump.csv"))
    threads = _status("Threads")
    info["threads"] = threads
    found["threads"] = None if threads <= nproc() else f"{threads:.0f} threads on {nproc()} cpus"
    return found, info


def check_names(wl) -> list[str]:
    names = ["fit_covers_truth", "observed_indicators", "summaries"]
    if wl.direction == "second-kind":
        names.append("expectation")
    if wl.dump:
        names += ["dump_rows", "dump_bounds", "dump_replicates"]
    return names + ["threads", "report_stable"]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def run_workload(bibuq, import_s: float, wl, seed: int, seconds: float, trace: bool, min_rounds: int):
    """All rounds of one workload; returns (record, result line)."""
    SCRATCH_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=SCRATCH_DIR))
    record: dict = {"workload": wl.name, "seed": seed, "trace": int(trace), "import_s": import_s}
    try:
        inputs = workloads.generate(wl, seed, scratch)
        rounds: list[Round] = []
        peak_rss_mb = None
        last_tracer = None
        start = perf_counter()
        while len(rounds) < min_rounds or perf_counter() - start < seconds:
            rnd = Round(traced=trace and len(rounds) % 2 == 1)
            out = scratch / f"round{len(rounds)}"
            out.mkdir()
            try:
                if rnd.traced:
                    tracer = Tracer()
                    with tracer.installed():
                        citation, result = run_pipeline(bibuq, wl, inputs, seed, out, rnd)
                    dump_bytes = (out / "dump.csv").stat().st_size if wl.dump else 0
                    rnd.layers = layer_metrics(tracer.totals(), rnd.report_s, dump_bytes)
                    last_tracer = tracer
                else:
                    citation, result = run_pipeline(bibuq, wl, inputs, seed, out, rnd)
                if peak_rss_mb is None:
                    # Read before any check runs, so the checks' own
                    # arrays never count toward the program's peak.
                    peak_rss_mb = _status("VmHWM") / 1024.0
                rnd.checks, info = check_round(wl, inputs, citation, result, out)
                record.setdefault("checks", info)
                rnd.report_sha = checks.sha256(out / "report.json")
                first_sha = rounds[0].report_sha if rounds else rnd.report_sha
                rnd.checks["report_stable"] = (
                    None if rnd.report_sha == first_sha else "report.json bytes differ between rounds"
                )
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                rnd.checks = {"pipeline": f"raised {exc!r}"}
            shutil.rmtree(out)
            rounds.append(rnd)
        if last_tracer is not None:
            RESULTS_DIR.mkdir(exist_ok=True)
            last_tracer.write(RESULTS_DIR / f"{wl.name}-seed{seed}-spans.csv")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    names = ["pipeline"] + check_names(wl)
    attempted = len(names) * len(rounds)
    failures = [
        {"round": k, "check": name, "error": rnd.checks.get(name, "not run")}
        for k, rnd in enumerate(rounds)
        for name in names
        if rnd.checks.get(name, "not run") is not None
    ]
    plain = [r for r in rounds if not r.traced and r.checks.get("pipeline") is None]
    record.update(
        rounds=len(rounds),
        operations_per_round=names,
        attempted=attempted,
        failed=len(failures),
        failures=failures,
        report_sha256=sorted({r.report_sha for r in rounds if r.report_sha}),
        per_round=[
            {"traced": r.traced, "setup_s": r.setup_s, "propagate_s": r.propagate_s,
             "report_s": r.report_s}
            for r in rounds
        ],
    )
    traced = [r for r in rounds if r.traced and r.layers]
    metrics: dict[str, dict] = {}
    if plain and not trace:
        values = {
            "setup_s": (import_s + median([r.setup_s for r in plain]), "s"),
            "mc_iters_per_s": (median([wl.iterations / r.propagate_s for r in plain]), "iterations/s"),
            "report_s": (import_s + median([r.report_s for r in plain]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    elif plain and traced:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layer_values = {k: median([r.layers[k] for r in traced]) for k in traced[0].layers}
        traced_ips = median([wl.iterations / r.propagate_s for r in traced])
        plain_ips = median([wl.iterations / r.propagate_s for r in plain])
        layer_values["trace.overhead_pct"] = 100.0 * (plain_ips / traced_ips - 1.0)
        metrics = {k: {"value": layer_values[k], "unit": units[k]} for k in units}
    record["metrics"] = metrics
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return record, line


def environment() -> dict:
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="run every workload once untraced and once traced at tiny size, with all checks",
    )
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")

    bibuq, import_s = import_package()
    env = environment()
    if args.quick:
        ok = True
        for name, wl in workloads.QUICK.items():
            for trace in (False, True):
                record, line = run_workload(bibuq, import_s, wl, args.seed, 0.0, trace, 1 + trace)
                ok = ok and line["correct"]
                print(json.dumps({
                    "quick": name, "trace": int(trace), "correct": line["correct"],
                    "attempted": line["attempted"], "failed": line["failed"],
                    "failures": record["failures"],
                }))
        return 0 if ok else 1

    wl = workloads.WORKLOADS[args.workload]
    record, line = run_workload(
        bibuq, import_s, wl, args.seed, args.seconds, bool(args.trace),
        2 * MIN_ROUNDS if args.trace else MIN_ROUNDS,
    )
    record["environment"] = env
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
