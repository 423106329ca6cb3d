"""From-scratch ML substrate (systems S1-S6 in DESIGN.md).

Implements the subset of a classical ML toolkit that the paper's
evaluation framework obtains from scikit-learn: estimator API, bagging
ensembles with accessible base classifiers, Random Forest / Logistic
Regression / SVM base learners, standard scaling, PCA, t-SNE, metrics,
train/test splitting, and Platt calibration.
"""

from .backend import (
    BackendCompileError,
    CompiledVotePath,
    FlatForest,
    QuantizedForest,
    compile_flat_forest,
    compile_quantized_forest,
)
from .base import BaseEstimator, ClassifierMixin, TransformerMixin, clone
from .calibration import CalibratedClassifier, PlattScaler
from .cluster import KMeans
from .decomposition import PCA
from .ensemble import BaggingClassifier, RandomForestClassifier
from .feature_selection import SelectKBest, f_classif, mutual_info_classif
from .exceptions import (
    ConvergenceError,
    ConvergenceWarning,
    DataDimensionError,
    NotFittedError,
)
from .linear import LogisticRegression
from .manifold import TSNE
from .preprocessing import StandardScaler
from .svm import SVC, LinearSVC
from .training import BinMapper, BinnedDataset, grow_tree_binned
from .tree import DecisionTreeClassifier

__all__ = [
    "BackendCompileError",
    "BaseEstimator",
    "BaggingClassifier",
    "BinMapper",
    "BinnedDataset",
    "grow_tree_binned",
    "CompiledVotePath",
    "FlatForest",
    "QuantizedForest",
    "compile_flat_forest",
    "compile_quantized_forest",
    "CalibratedClassifier",
    "ClassifierMixin",
    "ConvergenceError",
    "ConvergenceWarning",
    "DataDimensionError",
    "DecisionTreeClassifier",
    "KMeans",
    "LinearSVC",
    "LogisticRegression",
    "NotFittedError",
    "PCA",
    "PlattScaler",
    "RandomForestClassifier",
    "SVC",
    "SelectKBest",
    "StandardScaler",
    "TSNE",
    "TransformerMixin",
    "clone",
    "f_classif",
    "mutual_info_classif",
]
