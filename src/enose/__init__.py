"""Gas-sensor fusion classification toolkit."""

from .dataset import (
    Dataset,
    FoldPlan,
    RunTable,
    merge_runs,
    parse_run_csv,
    stratified_kfold,
    stratified_split,
)
from .preprocess import Scaler, feature_target_correlation, fit_scaler
from .reduce import LdaModel, PcaModel, lda_fit, pca_fit

__version__ = "0.1.0"
