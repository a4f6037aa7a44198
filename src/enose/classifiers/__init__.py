from .base import predict_from_proba
from .tree import DecisionTree, TreeParams, dt_fit, gini_impurity
from .forest import ForestParams, RandomForest, rf_fit
from .svm import BinarySvm, SvmParams, MulticlassSvm, svm_fit_binary, svm_fit_multiclass

__all__ = [
    "predict_from_proba",
    "DecisionTree",
    "TreeParams",
    "dt_fit",
    "gini_impurity",
    "ForestParams",
    "RandomForest",
    "rf_fit",
    "BinarySvm",
    "SvmParams",
    "MulticlassSvm",
    "svm_fit_binary",
    "svm_fit_multiclass",
]
