"""Semi-supervised active linear regression toolkit.

A library plus CLI for solving linear regression when part of the dataset is
pre-labeled and the remaining rows can be labeled on demand at unit cost.
The central piece is an adaptive barrier-potential row sampler whose expected
number of label queries scales with the unlabeled block's share of the
instance's spectral mass rather than with the ambient dimension, together
with reductions that cast ridge and kernel ridge regression in the same mold,
classical leverage-score and uniform sampling baselines, synthetic instance
generators, and an empirical verification suite for the sampler's structural
guarantees.
"""

from .asura import AsuraConfig, AsuraTrace, SampleSet, asura_sample
from .baselines import LeverageConfig, UniformConfig, leverage_sample, uniform_sample
from .core import (
    Dataset,
    SvdFactors,
    effective_dimension,
    leverage_scores,
    psd_eigh,
    reduced_rank,
    statistical_dimension,
    thin_svd,
)
from .instances import (
    LowerBoundSpec,
    gen_kernel_instance,
    gen_lower_bound_instance,
    gen_random_instance,
)
from .regression import (
    LabelOracle,
    RegressionSolution,
    draw_samples,
    kernel_ridge_to_ssal,
    ridge_to_ssal,
    solve_sample,
    weighted_lsq,
)
from .verify import (
    LemmaReport,
    WellBalancedReport,
    check_hard_lemmas,
    check_statistical_lemmas,
    check_well_balanced,
)
from . import dataio

__version__ = "0.1.0"
