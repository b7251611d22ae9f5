"""Early Parkinson's disease prediction on clinical-style feature vectors.

The package covers the whole experiment: acquire a 13-feature cohort (ingest
a CSV or synthesize one), min-max normalize, stratified split, train four
classifiers written from first principles (multilayer perceptron, discrete
Bayesian network, random forest, boosted logistic regression), and render a
metrics report with ROC curves. Everything downstream of one root seed is
deterministic; see :mod:`earlypd.rng`. The modules are the Python API
(earlypd.pipeline, earlypd.data, ...); the package exports only __version__.
"""

from ._version import __version__
