"""Construction helpers shared across test modules."""

from __future__ import annotations

import numpy as np

from bibuq.datamodel import DocType, Publication, PublicationSet


def shifted_apart(draws) -> np.ndarray:
    """Citation draws whose chain c has its intercepts moved up by 2c.

    The chains then disagree, and split R-hat flags them.
    """
    shifted = np.array(draws, dtype=np.float64)
    shifted[:, :, 0] += 2.0 * np.arange(shifted.shape[0])[:, None]
    return shifted


def make_pubset(unit: str, rows: list[tuple[str, int]], year: int = 2010) -> PublicationSet:
    """Build a publication set from (doctype_label, citations) rows."""
    pubs = tuple(
        Publication(
            id=f"{unit}-{i}",
            unit=unit,
            doctype=DocType.parse(label),
            year=year,
            citations=c,
        )
        for i, (label, c) in enumerate(rows)
    )
    return PublicationSet(name=unit, members=pubs)
