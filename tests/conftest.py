"""Shared fixtures.

The MCMC fits are the slow part of the suite, so the posteriors used by
several test modules are fitted once per session on the synthesized
training sample.

The ``ci`` hypothesis profile (``pytest --hypothesis-profile=ci``) draws
the same examples on every run and prints the blob that replays a
failure, so a CI failure reproduces locally.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from bibuq.errormodels import (
    FIRST_KIND,
    McmcConfig,
    NegBinModelSpec,
    fit_citation_error_model,
    fit_doctype_error_model,
)
from bibuq.exercises import synthesize_training_sample, synthetic_confusion_table

settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(scope="session")
def training_sample():
    return synthesize_training_sample(seed=0)


@pytest.fixture(scope="session")
def second_kind_posterior(training_sample):
    return fit_citation_error_model(training_sample, config=McmcConfig(seed=5))


@pytest.fixture(scope="session")
def first_kind_posterior(training_sample):
    spec = NegBinModelSpec(direction=FIRST_KIND)
    return fit_citation_error_model(training_sample, spec=spec, config=McmcConfig(seed=5))


@pytest.fixture(scope="session")
def confusion_table():
    return synthetic_confusion_table()


@pytest.fixture(scope="session")
def doctype_posterior(confusion_table):
    return fit_doctype_error_model(confusion_table)


@pytest.fixture(scope="session")
def doctype_posterior_first(confusion_table):
    return fit_doctype_error_model(confusion_table, direction=FIRST_KIND)
