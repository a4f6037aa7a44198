"""Soft-voting combiner over heterogeneous fitted classifiers."""

from __future__ import annotations

import numpy as np

from .classifiers.base import Classifier
from .errors import ClassTableMismatch, EmptyEnsemble


class VotingEnsemble(Classifier):
    """Unweighted mean of member class-probability matrices."""

    def __init__(self, members: list):
        if len(members) < 2:
            raise EmptyEnsemble("need at least 2 members")
        n_classes = members[0].n_classes
        for m in members[1:]:
            if m.n_classes != n_classes:
                raise ClassTableMismatch(
                    f"member class counts differ: {n_classes} vs {m.n_classes}"
                )
        self.members = list(members)
        self.n_classes = n_classes

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return soft_vote_proba(self, X)


def soft_vote_proba(ensemble: VotingEnsemble, X: np.ndarray) -> np.ndarray:
    """Average member probabilities; summation order is member-independent."""
    stacked = np.stack([m.predict_proba(X) for m in ensemble.members])
    # sort the per-member contributions so aggregation is bit-identical under
    # any permutation of the member list; in place, as np.sort sorts its copy
    stacked.sort(axis=0)
    proba = stacked.sum(axis=0)
    proba /= len(ensemble.members)
    return proba
