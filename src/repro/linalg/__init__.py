"""Factorized block linear algebra.

Implements the exact decompositions at the heart of the paper: block
partitioning of the joined feature space (:class:`BlockLayout`), grouped
reductions over foreign-key codes (:class:`GroupIndex`), the factorized
Mahalanobis quadratic form of Eq. 7–12/19–21, and the factorized
weighted sums and outer products of Eq. 13–18/22–24.
"""

from repro.linalg.blocks import BlockLayout
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import GroupIndex, codes_for_keys
from repro.linalg.outer import dense_weighted_outer, dense_weighted_sum
from repro.linalg.quadform import (
    binary_quadratic_form_terms,
    dense_quadratic_form,
    factorized_quadratic_form,
)
from repro.linalg.stats import (
    JoinedMoments,
    factorized_mean,
    factorized_moments,
    merge_moments,
    standardize,
)

__all__ = [
    "BlockLayout",
    "FactorizedDesign",
    "GroupIndex",
    "JoinedMoments",
    "binary_quadratic_form_terms",
    "codes_for_keys",
    "dense_quadratic_form",
    "dense_weighted_outer",
    "dense_weighted_sum",
    "factorized_mean",
    "factorized_moments",
    "factorized_quadratic_form",
    "merge_moments",
    "standardize",
]
