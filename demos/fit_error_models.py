"""Fit both error models and inspect their posteriors.

The omitted-citation model is a negative binomial regression of the
number of missing citations on the (log1p) observed count, sampled by
independence Metropolis-Hastings around its posterior mode.  The
document-type model is a conjugate Dirichlet update of a confusion
table, so it needs no sampling at all.
"""

import numpy as np

from bibuq import (
    DocType,
    fit_citation_error_model,
    fit_doctype_error_model,
    synthesize_training_sample,
    synthetic_confusion_table,
)


def main() -> None:
    sample = synthesize_training_sample(seed=0)
    posterior = fit_citation_error_model(sample)
    flat = posterior.flat()
    print("omitted-citation model (negative binomial regression)")
    for index, label in enumerate(("intercept", "slope", "dispersion")):
        lo, mid, hi = np.quantile(flat[:, index], [0.025, 0.5, 0.975])
        print(f"  {label:<11} {mid:7.3f}  (95% interval {lo:.3f} to {hi:.3f})")
    diag = posterior.diagnostics
    print(f"  max split R-hat {max(diag.rhat.values()):.3f}, "
          f"min ESS {min(diag.ess.values()):.0f}, converged={diag.converged}")
    print()

    confusion = fit_doctype_error_model(synthetic_confusion_table())
    print("document-type model (conjugate, conditioned on the recorded type)")
    for dt in DocType:
        row = confusion.row(dt)
        probs = row / row.sum()  # the posterior mean
        cells = ", ".join(
            f"{target.value} {p:.3f}" for target, p in zip(DocType, probs)
        )
        print(f"  recorded {dt.value:<8} -> {cells}")


if __name__ == "__main__":
    main()
