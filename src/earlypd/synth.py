"""Deterministic synthetic cohort generation.

Raw features are drawn per class from truncated normals whose parameters come
from a versioned JSON config (the packaged default holds invented, plausible
values; nothing is estimated from real subjects). The three CSF ratios are
derived from the sampled concentrations, never sampled directly, so every
generated record satisfies the schema's ratio-consistency invariant.

``separation`` interpolates both class means and class sds toward their
shared midpoint: 1.0 keeps the configured gap, 0.0 makes the two class
distributions identical, so a zero-separation cohort carries no label signal
at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from .data import (
    FEATURE_NAMES,
    HEALTHY,
    INTEGER_FEATURES,
    NONNEGATIVE_FEATURES,
    PD,
    POSITIVE_FEATURES,
    RATIO_FEATURES,
    Dataset,
    compute_ratios,
    nine_digit,
)
from .errors import ConfigError, DataError
from .jsontext import check_version, from_json, read_json
from .preprocess import _round_half_up
from .rng import derive_stream

# raw (sampled) features; ratios are derived afterwards
RAW_FEATURES = tuple(n for n in FEATURE_NAMES if n not in RATIO_FEATURES)


@dataclass(frozen=True)
class FeatureParams:
    mean_healthy: float
    sd_healthy: float
    mean_pd: float
    sd_pd: float
    min: float
    max: float
    integer_flag: bool
    comment: str | None = None

    def __post_init__(self):
        if not (self.sd_healthy >= 0 and self.sd_pd >= 0 and self.min <= self.max):
            raise ConfigError(f"sds must be >= 0 and min <= max, got sds {self.sd_healthy} "
                              f"and {self.sd_pd}, min {self.min} and max {self.max}")

    def at_separation(self, label: int, separation: float):
        """(mean, sd) for one class with the class gap scaled by separation."""
        mid_mean = (self.mean_healthy + self.mean_pd) / 2.0
        mid_sd = (self.sd_healthy + self.sd_pd) / 2.0
        mean = self.mean_pd if label == PD else self.mean_healthy
        sd = self.sd_pd if label == PD else self.sd_healthy
        return (mid_mean + separation * (mean - mid_mean),
                mid_sd + separation * (sd - mid_sd))


@dataclass(frozen=True)
class CorrelationPair:
    """Mixes the pre-truncation z-scores of feature b with feature a's."""

    a: str
    b: str
    rho: float

    def __post_init__(self):
        if self.a not in RAW_FEATURES or self.b not in RAW_FEATURES:
            raise ConfigError(f"correlation pair ({self.a}, {self.b}) names unknown features")
        if RAW_FEATURES.index(self.a) >= RAW_FEATURES.index(self.b):
            raise ConfigError("correlation pair must list the earlier feature first")
        if not -1.0 <= self.rho <= 1.0:
            raise ConfigError(f"correlation {self.rho!r} is not a number in [-1, 1]")


@dataclass(frozen=True)
class GeneratorParams:
    version: int
    features: dict[str, FeatureParams]
    correlation_pairs: tuple[CorrelationPair, ...] = ()  # optional, none by default
    comment: str | None = None

    def __post_init__(self):
        check_version(self.version, 1, "update the parameters file")
        if set(self.features) != set(RAW_FEATURES):
            raise ConfigError(f"features {sorted(set(self.features) ^ set(RAW_FEATURES))} "
                              f"are missing or unknown")
        for name, p in self.features.items():  # within the schema's ranges
            lo, hi = INTEGER_FEATURES.get(name, (-math.inf, math.inf))
            if (p.min < lo or p.max > hi or name in NONNEGATIVE_FEATURES and p.min < 0
                    or name in POSITIVE_FEATURES and p.min <= 0):
                raise ConfigError(f"features.{name} bounds [{p.min}, {p.max}] reach "
                                  f"outside the values the schema allows")
            if name in INTEGER_FEATURES and not p.integer_flag:
                raise ConfigError(f"features.{name} is a score, so its integer_flag must be true")


def load_params(path=None) -> GeneratorParams:
    """Generator parameters from a JSON file, or the packaged defaults."""
    if path is None:
        path = resources.files("earlypd") / "default_cohort.json"
    return read_json(path, "a generator parameters file", partial(from_json, GeneratorParams))


@dataclass(frozen=True)
class GenerateConfig:
    n_healthy: int = 184
    n_pd: int = 402
    separation: float = 1.0
    params_path: str | None = None  # None means the packaged generator parameters

    def __post_init__(self):
        if self.n_healthy < 0 or self.n_pd < 0:
            raise ConfigError("cohort sizes cannot be negative")
        if not self.separation >= 0:  # also rejects NaN
            raise ConfigError(f"separation must be >= 0, got {self.separation}")


def generate(config: GenerateConfig, seed: int) -> Dataset:
    """Sample a labeled cohort. The same config and seed give the same dataset.

    Healthy records come first, then PD; ids run SYN00001 upward. One stream
    derived from (seed, "generate") drives all draws, record by record and
    feature by feature in schema order. Float features are snapped to their
    9-significant-digit CSV rendering so export / ingest round-trips exactly.
    """
    if config.n_healthy + config.n_pd == 0:
        raise DataError("asked to generate zero records")
    params = load_params(config.params_path)
    for name, p in params.features.items():
        if not np.isfinite([p.at_separation(c, config.separation) for c in (HEALTHY, PD)]).all():
            raise ConfigError(f"generate.separation {config.separation} takes the class "
                              f"means or sds of {name} beyond the doubles")
    mixers = {p.b: (p.a, p.rho) for p in params.correlation_pairs}
    stream = derive_stream(seed, "generate")
    labels = [HEALTHY] * config.n_healthy + [PD] * config.n_pd
    rows = []
    for label in labels:
        values = {}
        zscores = {}
        for name in RAW_FEATURES:
            p = params.features[name]
            mean, sd = p.at_separation(label, config.separation)
            if name in mixers:
                # correlated path: mix z-scores, clamp instead of rejecting
                partner, rho = mixers[name]
                z = rho * zscores[partner] + (1 - rho ** 2) ** 0.5 * stream.normal()
                x = min(max(mean + sd * z, p.min), p.max)
            else:
                x = stream.truncated_normal(mean, sd, p.min, p.max)
                zscores[name] = (x - mean) / sd if sd else 0.0
            if p.integer_flag:
                x = float(min(max(_round_half_up(x), int(p.min)), int(p.max)))
            else:
                x = nine_digit(x)
            values[name] = x
        ratios = compute_ratios(values["csf_abeta42"], values["csf_ttau"],
                                values["csf_ptau181"])
        values.update(zip(RATIO_FEATURES, map(nine_digit, ratios)))
        rows.append([values[name] for name in FEATURE_NAMES])
    ids = tuple(f"SYN{i:05d}" for i in range(1, len(rows) + 1))
    return Dataset(ids, np.array(rows), labels)
