"""Early Parkinson's disease prediction on clinical-style feature vectors.

The package covers the whole experiment: acquire a 13-feature cohort (ingest
a CSV or synthesize one), min-max normalize, stratified split, train four
classifiers written from first principles (multilayer perceptron, discrete
Bayesian network, random forest, boosted logistic regression), and render a
metrics report with ROC curves. Everything downstream of one root seed is
deterministic; see :mod:`earlypd.rng`.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .bayesnet import BayesNetConfig, BayesNetModel, bn_score_batch, bn_train
from .boostlr import (
    BoostConfig,
    BoostedModel,
    LogisticModel,
    adaboost_train,
    boosted_score_batch,
    logistic_score_batch,
    logistic_train,
)
from .data import (
    CSV_COLUMNS,
    FEATURE_NAMES,
    HEALTHY,
    PD,
    Dataset,
    compute_ratios,
    export_csv,
    ingest_csv,
    validate_file,
)
from .errors import ConfigError, DataError, EarlyPdError
from .forest import DecisionTree, ForestConfig, ForestModel, forest_score_batch, forest_train
from .metrics import (
    ConfusionMatrix,
    EvaluationReport,
    RocCurve,
    confusion,
    evaluate_scores,
    roc,
    summary_metrics,
)
from .mlp import MlpConfig, MlpModel, mlp_gradient_check, mlp_score_batch, mlp_train
from .pipeline import (
    DISPLAY_NAMES,
    MODEL_ORDER,
    ExperimentResult,
    PipelineConfig,
    run_and_write,
    run_experiment,
    write_artifacts,
)
from .preprocess import (
    DiscretizationMap,
    NormalizationStats,
    discretize_fit,
    normalize_apply,
    normalize_fit_transform,
    stratified_split,
)
from .rng import SplitMix64, derive_stream
from .synth import FeatureParams, GenerateConfig, GeneratorParams, generate, load_params

# Every name imported above, in import order: not the submodules that the
# imports bind, nor a private name other than __version__.
__all__ = ["__version__"] + [name for name, value in globals().items()
                             if name[0] != "_" and not isinstance(value, _ModuleType)]
