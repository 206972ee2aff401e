"""Command line interface for fitting, propagation, and reporting.

Every run that writes outputs also writes a ``run_manifest.json``
recording the command, the resolved configuration, the seed, the
package version, and a sha256 digest per input file, so any result can
be traced back to exactly what produced it.  Reruns with identical
inputs and configuration produce byte-identical data files; only the
manifest timestamp differs.

Exit codes: 0 success, 1 runtime failure, 2 usage or input error,
3 when --strict is set and a fitted model failed its convergence check.
An input file that is not UTF-8, not parseable, or of the wrong JSON
shape exits 2 with a message naming the file.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .datamodel import (
    PublicationSet,
    UsageError,
    ValidationError,
    embedded_missed_citation_sample,
    EMBEDDED_SAMPLE_OBSERVED_CITATIONS,
    load_citation_error_sample,
    load_doctype_confusion,
    load_publications,
    read_json_object,
    sample_statistics,
    write_citation_error_sample,
    write_doctype_confusion,
    write_json,
)
from .errormodels import (
    FIRST_KIND,
    SECOND_KIND,
    DirichletPosterior,
    McmcConfig,
    NegBinModelSpec,
    NegBinPosterior,
    fit_citation_error_model,
    fit_doctype_error_model,
    load_posterior,
    save_posterior,
)
from .exercises import list_exercises, run_exercise
from .report import (
    read_report,
    render_report_table,
    render_result_table,
    report_header,
    write_plot_summary,
    write_report_json,
    write_uncertainty_plot,
)
from .simulation import FittedModels, PropagationConfig, propagate

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3

MANIFEST_NAME = "run_manifest.json"
CITATION_POSTERIOR_NAME = "citation_posterior.json"
DOCTYPE_POSTERIOR_NAME = "doctype_posterior.json"
REPORT_NAME = "report.json"
PLOT_SUMMARY_NAME = "plot_summary.csv"
PLOT_UNCERTAINTY_NAME = "plot_uncertainty.csv"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    inputs: list[Path],
    outputs: list[str],
    propagation: dict | None = None,
) -> None:
    """Write run_manifest.json.

    Besides what the data files depend on, it records the Python and
    numpy versions and, for propagation runs, ``PropagationResult.run_info``
    (worker processes opened, publications, exchangeable groups, kernel
    columns, scoring bins, whether the draws were grouped, and per-stage
    seconds).  None of this goes into report.json.
    """
    manifest = {
        "command": command,
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
        "config": config,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": sorted(outputs),
    }
    if propagation is not None:
        manifest["propagation"] = dict(propagation)
    write_json(manifest, out_dir / MANIFEST_NAME)


def _load_config_file(path: str | None) -> dict:
    """Read a JSON config; a run manifest is accepted via its "config" key."""
    if path is None:
        return {}
    payload = read_json_object(path, "config")
    if "config" in payload and "command" in payload:
        payload = payload["config"]
    return payload


def _check_config_value(name: str, value, default) -> None:
    """Reject a config-file value whose type is not its default's.

    A bool is not an integer, while an integer is a valid float.  A path
    setting (default None) is a string or null, ``channels`` a comma
    string or a list of names, and a callable default stands for an
    integer read from the environment.
    """
    if isinstance(default, bool):
        ok, expected = isinstance(value, bool), "true or false"
    elif callable(default) or isinstance(default, int):
        ok, expected = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, expected = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    elif isinstance(default, frozenset):
        ok = isinstance(value, str) or (
            isinstance(value, list) and all(isinstance(v, str) for v in value)
        )
        expected = "a string or a list of strings"
    elif default is None:
        ok, expected = value is None or isinstance(value, str), "a string or null"
    else:
        ok, expected = isinstance(value, str), "a string"
    if not ok:
        raise UsageError(f"config value {name!r} must be {expected}, got {json.dumps(value)}")


def _resolve(args: argparse.Namespace, config_file: dict, defaults: dict) -> dict:
    """Each setting named in ``defaults``: flag > config file > default.

    A config file may hold only these settings, and each value must have
    its default's type.  A callable default is called only when neither
    source sets the value.  The result is what the command runs with and
    also the ``config`` block of its manifest, so passing the manifest
    back replays the run.
    """
    unknown = sorted(set(config_file) - set(defaults))
    if unknown:
        raise UsageError(
            f"unknown config key {unknown[0]!r}; {args.command} reads "
            f"{', '.join(sorted(defaults))}"
        )
    settings = {}
    for name, default in defaults.items():
        if getattr(args, name, None) is not None:
            settings[name] = getattr(args, name)
        elif name in config_file:
            _check_config_value(name, config_file[name], default)
            settings[name] = config_file[name]
        else:
            settings[name] = default() if callable(default) else default
    return settings


def _config_of(cls, settings: dict):
    """A library config object built from the settings of its fields."""
    return cls(**{f.name: settings[f.name] for f in fields(cls)})


def _env_workers() -> int:
    """Worker count when neither --workers nor the config file sets one."""
    raw = os.environ.get("BIBUQ_WORKERS")
    if raw is None:
        return PropagationConfig.workers
    try:
        workers = int(raw)
    except ValueError:
        raise ValidationError(f"BIBUQ_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValidationError(f"BIBUQ_WORKERS must be >= 1, got {workers}")
    return workers


def _ensure_out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_fit_diagnostics(label: str, posterior: NegBinPosterior) -> None:
    diag = posterior.diagnostics
    chains, kept, _ = posterior.draws.shape
    print(f"{label}: {posterior.n_draws} draws ({chains} chains x {kept} kept)")
    print(f"{'parameter':<16} {'split R-hat':>12} {'ESS':>10}")
    for name in diag.rhat:
        rhat = diag.rhat[name]
        rhat_text = f"{rhat:.4f}" if rhat == rhat else "n/a"
        print(f"{name:<16} {rhat_text:>12} {diag.ess[name]:>10.0f}")
    acc = ", ".join(f"{a:.2f}" for a in posterior.acceptance_rates)
    print(f"acceptance per chain: {acc}")
    print(f"converged: {'yes' if diag.converged else 'NO (R-hat above threshold)'}")


def _cmd_fit(args: argparse.Namespace) -> int:
    settings = _resolve(
        args,
        _load_config_file(args.config),
        {
            **dict.fromkeys(("citation_sample", "doctype_confusion")),
            "direction": NegBinModelSpec.direction,
            "pseudocount": DirichletPosterior.pseudocount,
            **asdict(McmcConfig()),
        },
    )
    citation_path = settings["citation_sample"]
    confusion_path = settings["doctype_confusion"]
    if citation_path is None and confusion_path is None:
        raise UsageError("fit needs --citation-sample and/or --doctype-confusion")
    direction = settings["direction"]
    mcmc_config = _config_of(McmcConfig, settings)
    out_dir = _ensure_out_dir(args.out)

    inputs: list[Path] = []
    outputs: list[str] = []
    converged = True
    if citation_path is not None:
        sample = load_citation_error_sample(citation_path)
        inputs.append(Path(citation_path))
        posterior = fit_citation_error_model(
            sample, NegBinModelSpec(direction=direction), mcmc_config
        )
        save_posterior(posterior, out_dir / CITATION_POSTERIOR_NAME)
        outputs.append(CITATION_POSTERIOR_NAME)
        _print_fit_diagnostics("citation error model", posterior)
        converged = posterior.diagnostics.converged
    if confusion_path is not None:
        table = load_doctype_confusion(confusion_path)
        inputs.append(Path(confusion_path))
        doctype_posterior = fit_doctype_error_model(table, settings["pseudocount"], direction)
        save_posterior(doctype_posterior, out_dir / DOCTYPE_POSTERIOR_NAME)
        outputs.append(DOCTYPE_POSTERIOR_NAME)
        print(f"document-type error model: conjugate update of {table.total()} audited records")

    _write_manifest(out_dir, "fit", settings, inputs, outputs + [MANIFEST_NAME])
    if args.strict and not converged:
        print("convergence check failed and --strict is set", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _load_models(
    citation_path: str | None, doctype_path: str | None
) -> tuple[FittedModels, list[Path]]:
    citation = None
    doctype = None
    inputs: list[Path] = []
    if citation_path is not None:
        loaded = load_posterior(citation_path)
        if not isinstance(loaded, NegBinPosterior):
            raise UsageError(f"{citation_path} does not contain a citation error model")
        citation = loaded
        inputs.append(Path(citation_path))
    if doctype_path is not None:
        loaded = load_posterior(doctype_path)
        if not isinstance(loaded, DirichletPosterior):
            raise UsageError(f"{doctype_path} does not contain a document-type error model")
        doctype = loaded
        inputs.append(Path(doctype_path))
    return FittedModels(citation=citation, doctype=doctype), inputs


def _run_propagation(args: argparse.Namespace, direction: str) -> int:
    settings = _resolve(
        args,
        _load_config_file(args.config),
        {
            **dict.fromkeys(("pubs", "reference", "citation_model", "doctype_model", "dump_items")),
            **asdict(PropagationConfig()),
            "direction": direction,
            "workers": _env_workers,
        },
    )
    if settings["direction"] != direction:
        raise UsageError(f"{args.command} runs {direction}, not {settings['direction']!r}")
    channels = settings["channels"]
    # flags give channels as a comma string, manifests as a list
    if isinstance(channels, str):
        channels = [c.strip() for c in channels.split(",") if c.strip()]
    settings["channels"] = sorted(set(channels))

    pubs_path = settings["pubs"]
    if pubs_path is None:
        raise UsageError(f"{args.command} needs --pubs")
    units = load_publications(pubs_path)
    inputs = [Path(pubs_path)]

    reference = None
    reference_path = settings["reference"]
    if reference_path is not None:
        ref_sets = load_publications(reference_path)
        if not ref_sets:
            raise ValidationError(f"{reference_path}: reference file has no publications")
        # One reference set, named after its first unit, whatever units its rows name.
        reference = PublicationSet.concat(ref_sets[0].name, ref_sets)
        inputs.append(Path(reference_path))

    models, model_inputs = _load_models(settings["citation_model"], settings["doctype_model"])
    inputs.extend(model_inputs)

    config = _config_of(PropagationConfig, settings)
    if args.strict and models.citation is not None and not models.citation.diagnostics.converged:
        print("loaded citation model failed convergence and --strict is set", file=sys.stderr)
        return EXIT_NOT_CONVERGED

    out_dir = _ensure_out_dir(args.out)
    dump = settings["dump_items"]
    if dump:
        unit_pubs = sum(len(pubset) for pubset in units)
        print(
            f"note: writing {config.iterations * unit_pubs} item rows "
            f"({config.iterations} iterations x {unit_pubs} unit publications) "
            f"to {out_dir / dump}",
            file=sys.stderr,
        )
    result = propagate(
        units,
        reference,
        models,
        config,
        dump_items=out_dir / dump if dump else None,
    )
    write_report_json(result, out_dir / REPORT_NAME)
    write_plot_summary(result, out_dir / PLOT_SUMMARY_NAME)
    write_uncertainty_plot(result, out_dir / PLOT_UNCERTAINTY_NAME)
    outputs = [REPORT_NAME, PLOT_SUMMARY_NAME, PLOT_UNCERTAINTY_NAME, MANIFEST_NAME]
    if dump:
        outputs.append(str(dump))

    _write_manifest(out_dir, args.command, settings, inputs, outputs, result.run_info)
    print(render_result_table(result))
    print(f"report written to {out_dir / REPORT_NAME}")
    return EXIT_OK


def _cmd_propagate(args: argparse.Namespace) -> int:
    return _run_propagation(args, SECOND_KIND)


def _cmd_inject(args: argparse.Namespace) -> int:
    return _run_propagation(args, FIRST_KIND)


def _cmd_exercise(args: argparse.Namespace) -> int:
    settings = _resolve(
        args,
        _load_config_file(args.config),
        {
            "exercise": None,
            "iterations": PropagationConfig.iterations,
            "seed": PropagationConfig.seed,
            **dict.fromkeys(("citation_sample", "doctype_confusion")),
            "no_synthesize": False,
            "workers": _env_workers,
        },
    )
    if settings["exercise"] is None:
        raise UsageError(f"exercise needs a name: {', '.join(list_exercises())}")

    inputs: list[Path] = []
    citation_sample = None
    sample_path = settings["citation_sample"]
    if sample_path is not None:
        citation_sample = load_citation_error_sample(sample_path)
        inputs.append(Path(sample_path))
    confusion = None
    confusion_path = settings["doctype_confusion"]
    if confusion_path is not None:
        confusion = load_doctype_confusion(confusion_path)
        inputs.append(Path(confusion_path))

    if settings["no_synthesize"]:
        supplied = {"--citation-sample": citation_sample, "--doctype-confusion": confusion}
        for flag, given in supplied.items():
            if given is None:
                raise UsageError(f"--no-synthesize is set but no {flag} file was supplied")

    report = run_exercise(
        settings["exercise"],
        iterations=settings["iterations"],
        seed=settings["seed"],
        citation_sample=citation_sample,
        confusion=confusion,
        workers=settings["workers"],
    )
    print(report.to_text())

    if args.out:
        out_dir = _ensure_out_dir(args.out)
        outputs = ["exercise.json", "exercise.txt", MANIFEST_NAME]
        write_json(report.to_dict(), out_dir / "exercise.json")
        (out_dir / "exercise.txt").write_text(report.to_text() + "\n", encoding="utf-8")
        if sample_path is None and report.training_sample is not None:
            write_citation_error_sample(
                report.training_sample, out_dir / "training_citation_sample.csv"
            )
            outputs.append("training_citation_sample.csv")
        if confusion_path is None and report.confusion is not None:
            write_doctype_confusion(report.confusion, out_dir / "training_doctype_confusion.csv")
            outputs.append("training_doctype_confusion.csv")
        run_info = report.result.run_info if report.result is not None else None
        _write_manifest(out_dir, "exercise", settings, inputs, outputs, run_info)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    payload = read_report(args.report)
    print(report_header(payload))
    print(render_report_table(payload))
    return EXIT_OK


def _print_sample_totals(
    records: int, observed: int, omitted: int, omitted_rate: float, share_with_omission: float
) -> None:
    print(f"records:                {records}")
    print(f"observed citations:     {observed}")
    print(f"omitted citations:      {omitted}")
    print(f"omitted rate:           {100.0 * omitted_rate:.2f}%")
    print(f"share with >=1 omitted: {100.0 * share_with_omission:.2f}%")
    print(f"mean observed:          {observed / records:.4f}")
    print(f"mean corrected:         {(observed + omitted) / records:.4f}")


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.sample is None:
        marginal = embedded_missed_citation_sample()
        missed = marginal.total_missed()
        observed = EMBEDDED_SAMPLE_OBSERVED_CITATIONS
        print("embedded correction audit")
        _print_sample_totals(
            marginal.record_count(), observed, missed, missed / observed,
            marginal.share_with_missing(),
        )
        return EXIT_OK
    stats = sample_statistics(load_citation_error_sample(args.sample))
    _print_sample_totals(
        stats.n_records, stats.total_observed, stats.total_omitted, stats.omitted_rate,
        stats.share_with_omission,
    )
    if stats.pearson_r is None:
        print("pearson r:              undefined (zero variance)")
    else:
        r_text = f"{stats.pearson_r:.4f}"
        if stats.r_ci_low is not None:
            r_text += f" (95% CI {stats.r_ci_low:.4f} to {stats.r_ci_high:.4f})"
        print(f"pearson r:              {r_text}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bibuq",
        description=(
            "Quantify how citation and document-type data errors propagate "
            "into bibliometric indicators (P, C, MNCS)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser(
        "fit",
        help="fit error models from audit data",
        description=(
            "Fit the omitted-citation regression (MCMC) and/or the "
            "document-type confusion model (conjugate) and save the "
            "posteriors as JSON."
        ),
    )
    fit.add_argument("--citation-sample", help="CSV of observed_citations,omitted_citations")
    fit.add_argument("--doctype-confusion", help="CSV of true_type,observed_type,count")
    fit.add_argument(
        "--direction",
        choices=[SECOND_KIND, FIRST_KIND],
        help=f"error direction to model (default {NegBinModelSpec.direction})",
    )
    fit.add_argument("--chains", type=int, help=f"MCMC chains (default {McmcConfig.chains})")
    fit.add_argument(
        "--warmup", type=int,
        help=f"draws per chain discarded before the kept ones (default {McmcConfig.warmup})",
    )
    fit.add_argument(
        "--keep", type=int, help=f"kept draws per chain (default {McmcConfig.keep})"
    )
    fit.add_argument(
        "--pseudocount", type=float,
        help=f"Dirichlet prior pseudocount (default {DirichletPosterior.pseudocount})",
    )
    fit.add_argument("--seed", type=int, help=f"random seed (default {McmcConfig.seed})")
    fit.add_argument("--config", help="JSON config file (or a previous run manifest)")
    fit.add_argument("--strict", action="store_true", help="exit 3 if convergence fails")
    fit.add_argument("--out", required=True, help="output directory")
    fit.set_defaults(func=_cmd_fit)

    def add_propagation_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--pubs", help="publications CSV (assessed units)")
        cmd.add_argument("--reference", help="publications CSV pooled into the reference set")
        cmd.add_argument("--citation-model", help="fitted citation posterior JSON")
        cmd.add_argument("--doctype-model", help="fitted document-type posterior JSON")
        cmd.add_argument(
            "--channels",
            help="comma-separated error channels: citations,doctypes (default both)",
        )
        cmd.add_argument(
            "--iterations", type=int,
            help=f"Monte Carlo iterations (default {PropagationConfig.iterations})",
        )
        cmd.add_argument(
            "--seed", type=int, help=f"random seed (default {PropagationConfig.seed})"
        )
        cmd.add_argument(
            "--key-mode",
            choices=["doctype", "doctype-year-field"],
            help=f"normalization cell key (default {PropagationConfig.key_mode})",
        )
        cmd.add_argument(
            "--workers", type=int,
            help=f"worker processes (default $BIBUQ_WORKERS or {PropagationConfig.workers})",
        )
        cmd.add_argument(
            "--reference-only-normalization",
            dest="pooled_normalization",
            action="store_false",
            default=None,
            help="exclude assessed units from the normalization universe",
        )
        cmd.add_argument(
            "--dump-items", help="also write per-item draws to this CSV inside --out"
        )
        cmd.add_argument("--config", help="JSON config file (or a previous run manifest)")
        cmd.add_argument(
            "--strict", action="store_true", help="exit 3 if a loaded model failed convergence"
        )
        cmd.add_argument("--out", required=True, help="output directory")

    prop = sub.add_parser(
        "propagate",
        help="correct observed data and propagate uncertainty (second kind)",
        description=(
            "Monte Carlo correction of observed publication data: redraw "
            "citations and/or document types from second-kind error models, "
            "recompute P, C, and MNCS per iteration, and report medians "
            "with 95% intervals."
        ),
    )
    add_propagation_args(prop)
    prop.set_defaults(func=_cmd_propagate)

    inject = sub.add_parser(
        "inject",
        help="corrupt error-free data and propagate uncertainty (first kind)",
        description=(
            "Monte Carlo error injection into error-free publication data "
            "using first-kind error models; otherwise identical to propagate."
        ),
    )
    add_propagation_args(inject)
    inject.set_defaults(func=_cmd_inject)

    exercise = sub.add_parser(
        "exercise",
        help="run a built-in demonstration exercise",
        description=(
            "Run one of the built-in demonstration exercises "
            f"({', '.join(list_exercises())}). Training inputs are "
            "synthesized from embedded data unless explicit files are given."
        ),
    )
    exercise.add_argument(
        "exercise", nargs="?", help=f"exercise name: {', '.join(list_exercises())}"
    )
    exercise.add_argument(
        "--iterations", "--draws", dest="iterations", type=int,
        help=f"Monte Carlo draws (default {PropagationConfig.iterations})",
    )
    exercise.add_argument(
        "--seed", type=int, help=f"random seed (default {PropagationConfig.seed})"
    )
    exercise.add_argument("--citation-sample", help="override the synthesized training sample")
    exercise.add_argument("--doctype-confusion", help="override the synthetic confusion table")
    exercise.add_argument(
        "--no-synthesize",
        action="store_true",
        default=None,
        help="fail instead of synthesizing missing training inputs",
    )
    exercise.add_argument(
        "--workers", type=int,
        help=f"worker processes (default $BIBUQ_WORKERS or {PropagationConfig.workers})",
    )
    exercise.add_argument("--config", help="JSON config file (or a previous run manifest)")
    exercise.add_argument("--out", help="optionally write tables and inputs here")
    exercise.set_defaults(func=_cmd_exercise)

    report = sub.add_parser(
        "report",
        help="render a stored report.json as a table",
        description="Pretty-print a report.json produced by propagate or inject.",
    )
    report.add_argument("report", help="path to report.json")
    report.set_defaults(func=_cmd_report)

    stats = sub.add_parser(
        "stats",
        help="describe a citation error sample (or the embedded audit)",
        description=(
            "Print record counts, totals, omission rate and correlation of a "
            "correction audit sample; without a file, describe the embedded audit."
        ),
    )
    stats.add_argument("sample", nargs="?", help="CSV of observed_citations,omitted_citations")
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as err:
        name = err.filename if err.filename else err
        print(f"error: input file not found: {name}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
