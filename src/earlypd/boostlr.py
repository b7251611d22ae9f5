"""Ridge-penalized logistic regression fitted by Newton steps, boosted with
AdaBoost.M1.

The base fit minimizes the weighted negative log-likelihood plus
(ridge / 2) * ||coef||^2 (intercept unpenalized) using full second-order
updates with step halving, stopping when the gradient's max norm falls to
1e-8 or after 200 iterations. Boosting reweights the training records after
each round so the misclassified half carries weight 1/2, and combines rounds
by alpha-weighted hard votes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import HEALTHY, N_FEATURES, PD, Dataset
from .errors import ConfigError, DataError
from .jsontext import json_array, json_typed, settings

GRAD_TOL = 1e-8
MAX_ITER = 200
MAX_HALVINGS = 50


@dataclass(frozen=True)
class BoostConfig:
    max_rounds: int = 10
    ridge: float = 1e-8

    def __post_init__(self):
        # "not x >= bound" also rejects NaN
        if not self.max_rounds >= 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not self.ridge >= 0:
            raise ConfigError(f"ridge must be >= 0, got {self.ridge}")


@dataclass(frozen=True, eq=False)
class LogisticModel:
    coef: np.ndarray
    intercept: float
    converged: bool | None
    objective_path: tuple | None  # objective after the start point and each accepted step


def _scores(coef, intercept, X):
    return X @ coef + intercept


def _sigmoid(z):
    """Overflow-safe logistic function for arrays."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_objective(coef, intercept, X, y, weights, ridge) -> float:
    """Weighted negative log-likelihood plus the ridge term."""
    z = _scores(coef, intercept, X)
    # -log p for y=1 is log(1+e^-z); -log(1-p) for y=0 is log(1+e^z)
    nll = np.sum(weights * np.logaddexp(0.0, np.where(y == 1, -z, z)))
    return float(nll + 0.5 * ridge * float(coef @ coef))


def logistic_gradient(coef, intercept, X, y, weights, ridge) -> np.ndarray:
    """Gradient over (coef..., intercept); the intercept entry is unpenalized."""
    p = _sigmoid(_scores(coef, intercept, X))
    resid = weights * (p - y)
    g_coef = X.T @ resid + ridge * coef
    g_int = float(resid.sum())
    return np.append(g_coef, g_int)


def _fit_weighted(X, y, weights, ridge):
    """Newton iterations with step halving; returns a LogisticModel."""
    n, m = X.shape
    beta = np.zeros(m + 1)  # coef then intercept
    X1 = np.hstack([X, np.ones((n, 1))])
    penalty = np.append(np.full(m, ridge), 0.0)
    objective = logistic_objective(beta[:m], beta[m], X, y, weights, ridge)
    path = [objective]
    converged = False
    for _ in range(MAX_ITER):
        grad = logistic_gradient(beta[:m], beta[m], X, y, weights, ridge)
        if np.abs(grad).max() <= GRAD_TOL:
            converged = True
            break
        p = _sigmoid(X1 @ beta)
        w_hess = weights * p * (1.0 - p)
        hess = (X1 * w_hess[:, None]).T @ X1 + np.diag(penalty)
        try:
            direction = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        step = 1.0
        improved = False
        for _ in range(MAX_HALVINGS):
            cand = beta + step * direction
            cand_obj = logistic_objective(cand[:m], cand[m], X, y, weights, ridge)
            if cand_obj <= objective:
                beta = cand
                objective = cand_obj
                path.append(objective)
                improved = True
                break
            step *= 0.5
        if not improved:
            # no step along the Newton direction helps; treat as stalled
            break
    return LogisticModel(beta[:m].copy(), float(beta[m]), converged, tuple(path))


def logistic_train(train: Dataset, weights=None,
                   ridge: float = BoostConfig.ridge) -> LogisticModel:
    """Fit on a dataset with optional per-record weights (default uniform).

    Raises DataError unless both classes carry positive total weight, and on
    NaN or infinite inputs. A fit that stops before its gradient test passes
    (at the iteration limit, or on a step that no halving improves) is not
    raised: the model's converged is False.
    """
    X = train.features
    y = (train.labels == PD).astype(np.float64)
    if weights is None:
        weights = np.full(len(train), 1.0 / len(train)) if len(train) else np.empty(0)
    weights = np.asarray(weights, dtype=np.float64)
    if not np.isfinite(X).all():
        raise DataError("feature matrix contains non-finite values")
    if len(train) == 0 or weights[y == 1].sum() <= 0 or weights[y == 0].sum() <= 0:
        raise DataError("both classes need positive total weight")
    return _fit_weighted(X, y, weights, ridge)


def logistic_score_batch(model: LogisticModel, features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    return _sigmoid(X @ model.coef + model.intercept)


def boost_alpha(error: float, n_records: int) -> float:
    """Round weight ln((1 - e) / e); a perfect round is capped with
    e_min = 1 / (2n) so its alpha stays finite."""
    e_min = 1.0 / (2.0 * n_records)
    e = max(error, e_min)
    return math.log((1.0 - e) / e)


def reweight(weights, misclassified, error):
    """Scale misclassified weights by (1-e)/e and renormalize to sum 1.

    After this update the misclassified records carry exactly half the mass.
    """
    factor = (1.0 - error) / error
    out = np.where(misclassified, weights * factor, weights)
    return out / out.sum()


@dataclass(frozen=True)
class BoostRound:
    model: LogisticModel
    alpha: float
    error: float | None
    weight_sum_after: float | None
    misclassified_mass_after: float | None


@dataclass(frozen=True, eq=False)
class BoostedModel:
    rounds: tuple  # at least one
    config: BoostConfig

    def to_json_dict(self) -> dict:
        return {
            "kind": "boostlr",
            **asdict(self.config),
            "rounds": [
                {
                    "coef": [float(c) for c in r.model.coef],
                    "intercept": r.model.intercept,
                    "alpha": r.alpha,
                }
                for r in self.rounds
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BoostedModel":
        """Rounds from a saved model, each with None for its training record.
        Raises ConfigError or ValueError unless there is a round, the coefs are
        flat lists of N_FEATURES finite numbers, each intercept is finite and
        each alpha above 0, as training writes, and the alphas' sum is finite."""
        config = settings(BoostConfig, obj)
        if not obj["rounds"]:
            raise ValueError("boosted model has no rounds")
        rounds = []
        for i, r in enumerate(obj["rounds"]):
            coef = json_array(r["coef"], f"round {i} coef", (N_FEATURES,))
            intercept = json_typed(float, r["intercept"], f"rounds[{i}].intercept")
            alpha = json_typed(float, r["alpha"], f"rounds[{i}].alpha")
            if not alpha > 0:
                raise ValueError(f"round {i} alpha must be above 0, got {alpha!r}")
            lm = LogisticModel(coef, intercept, None, None)
            rounds.append(BoostRound(lm, alpha, None, None, None))
        if not math.isfinite(sum(r.alpha for r in rounds)):
            raise ValueError("the rounds' alphas must have a finite sum")
        return cls(tuple(rounds), config)


def adaboost_train(train: Dataset, max_rounds: int = BoostConfig.max_rounds,
                   ridge: float = BoostConfig.ridge) -> BoostedModel:
    """AdaBoost.M1 over weighted logistic fits.

    Round error e is the weighted 0/1 error of hard predictions at threshold
    0.5. A round with e >= 0.5 is discarded and boosting stops; a perfect
    round (e = 0) is kept with a capped alpha and stops the loop; otherwise
    misclassified weights scale by (1-e)/e and are renormalized. Raises
    DataError unless both classes are present, and when not even the first
    round beats chance.
    """
    config = BoostConfig(max_rounds, ridge)
    counts = train.class_counts()
    if counts[0] == 0 or counts[1] == 0:
        raise DataError("boosted LR training needs both classes")
    n = len(train)
    y = train.labels
    weights = np.full(n, 1.0 / n)
    rounds = []
    for _ in range(max_rounds):
        model = logistic_train(train, weights, ridge)
        scores = logistic_score_batch(model, train.features)
        predictions = np.where(scores > 0.5, PD, HEALTHY)
        misclassified = predictions != y
        error = float(weights[misclassified].sum())
        if error >= 0.5:
            break
        if error > 0.0:
            weights = reweight(weights, misclassified, error)
        rounds.append(BoostRound(model, boost_alpha(error, n), error, float(weights.sum()),
                                 float(weights[misclassified].sum())))
        if error == 0.0:
            break
    if not rounds:
        raise DataError("no boosting round beats chance on the training data")
    return BoostedModel(tuple(rounds), config)


def boosted_score_batch(model: BoostedModel, features) -> np.ndarray:
    """Alpha-weighted share of rounds voting PD, for each record."""
    X = np.asarray(features, dtype=np.float64)
    total = sum(r.alpha for r in model.rounds)
    pd_mass = np.zeros(X.shape[0])
    for r in model.rounds:
        pd_mass += r.alpha * (logistic_score_batch(r.model, X) > 0.5)
    return pd_mass / total
