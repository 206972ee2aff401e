"""Uncertainty quantification for bibliometric indicators under data errors.

The package fits Bayesian models of two error mechanisms in citation
databases (omitted citations, misassigned document types), draws
posterior-predictive replicates of the affected publication data, and
propagates them through the indicator computation (P, C, MNCS) to put a
credible interval next to every reported value.
"""

__version__ = "0.1.0"

from .datamodel import (
    CitationErrorSample,
    DocType,
    DocTypeConfusionTable,
    EMBEDDED_SAMPLE_OBSERVED_CITATIONS,
    MissedCitationMarginal,
    Publication,
    PublicationSet,
    SampleStatistics,
    UsageError,
    ValidationError,
    embedded_missed_citation_sample,
    load_citation_error_sample,
    load_doctype_confusion,
    load_publications,
    sample_statistics,
    write_publications,
)
from .errormodels import (
    FIRST_KIND,
    SECOND_KIND,
    DirichletPosterior,
    McmcConfig,
    McmcDiagnostics,
    NegBinModelSpec,
    NegBinPosterior,
    fit_citation_error_model,
    fit_doctype_error_model,
    load_posterior,
    mcmc_diagnostics,
    prior_predictive_check,
    save_posterior,
)
from .predictive import (
    predict_doctype,
    predict_error_affected_citations,
    predict_error_free_citations,
    predict_omitted,
)
from .indicators import (
    KEY_DOCTYPE,
    KEY_DOCTYPE_YEAR_FIELD,
    IndicatorResult,
    NormalizationCells,
    build_normalization,
    indicators_for,
)
from .simulation import (
    CHANNEL_CITATIONS,
    CHANNEL_DOCTYPES,
    DistributionSummary,
    FittedModels,
    IndicatorDistribution,
    PropagationConfig,
    PropagationResult,
    propagate,
    summarize,
)
from .report import (
    render_result_table,
    write_plot_summary,
    write_report_json,
    write_uncertainty_plot,
)
from .exercises import (
    ScenarioConfig,
    generate_scenario,
    list_exercises,
    run_exercise,
    subseed,
    synthesize_training_sample,
    synthetic_confusion_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
