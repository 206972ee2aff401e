"""The package layout: which module owns what, and what the package exports."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import bibuq

PACKAGE = Path(bibuq.__file__).resolve().parent

# The package's public names, submodules aside.
EXPORTED = {
    "CHANNEL_CITATIONS", "CHANNEL_DOCTYPES", "CitationErrorSample", "DirichletPosterior",
    "DistributionSummary", "DocType", "DocTypeConfusionTable",
    "EMBEDDED_SAMPLE_OBSERVED_CITATIONS", "FIRST_KIND", "FittedModels", "IndicatorDistribution",
    "IndicatorResult", "KEY_DOCTYPE", "KEY_DOCTYPE_YEAR_FIELD", "McmcConfig", "McmcDiagnostics",
    "MissedCitationMarginal", "NegBinModelSpec", "NegBinPosterior", "NormalizationCells",
    "PropagationConfig", "PropagationResult", "Publication", "PublicationSet", "SECOND_KIND",
    "SampleStatistics", "ScenarioConfig", "UsageError", "ValidationError", "build_normalization",
    "embedded_missed_citation_sample", "fit_citation_error_model", "fit_doctype_error_model",
    "generate_scenario", "indicators_for", "list_exercises", "load_citation_error_sample",
    "load_doctype_confusion", "load_posterior", "load_publications", "mcmc_diagnostics",
    "predict_doctype", "predict_error_affected_citations", "predict_error_free_citations",
    "predict_omitted", "prior_predictive_check", "propagate", "render_result_table",
    "run_exercise", "sample_statistics", "save_posterior", "subseed", "summarize",
    "synthesize_training_sample", "synthetic_confusion_table", "write_plot_summary",
    "write_publications", "write_report_json", "write_uncertainty_plot",
}


def _package_imports(path: Path) -> list[tuple[str, str]]:
    """(package module, imported name) of each ``from`` import of another package module.

    ``from . import x`` gives the module "" and the name "x".
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                found += [(module, alias.name) for alias in node.names]
            elif module == "bibuq" or module.startswith("bibuq."):
                found += [(module.removeprefix("bibuq").lstrip("."), alias.name)
                          for alias in node.names]
    return found


def test_no_module_imports_a_private_name_of_another():
    private = [
        f"{path.name}: {name} from .{module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module, name in _package_imports(path)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert private == []


def test_simulation_imports_neither_report_nor_exercises():
    imported = {
        module.split(".")[0] or name
        for module, name in _package_imports(PACKAGE / "simulation.py")
    }
    assert imported, "no package import found in simulation.py"
    assert not imported & {"report", "exercises"}


def test_package_exports_are_unchanged():
    names = {name for name in bibuq.__all__ if not isinstance(getattr(bibuq, name), types.ModuleType)}
    assert len(EXPORTED) == 59
    assert names == EXPORTED
