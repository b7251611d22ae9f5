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

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .data import (
    FEATURE_NAMES,
    HEALTHY,
    PD,
    RATIO_FEATURES,
    Dataset,
    compute_ratios,
    nine_digit,
)
from .errors import ConfigError, DataError
from .jsontext import finite_number, from_json, read_json
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

    def at_separation(self, label: int, separation: float):
        """(mean, sd) for one class with the class gap scaled by separation."""
        mid_mean = (self.mean_healthy + self.mean_pd) / 2.0
        mid_sd = (self.sd_healthy + self.sd_pd) / 2.0
        mean = self.mean_pd if label == PD else self.mean_healthy
        sd = self.sd_pd if label == PD else self.sd_healthy
        return (mid_mean + separation * (mean - mid_mean),
                mid_sd + separation * (sd - mid_sd))


@dataclass(frozen=True)
class GeneratorParams:
    version: int
    features: dict
    # optional extension, off by default: [(feature_a, feature_b, rho), ...]
    # mixes the pre-truncation z-scores of feature_b with feature_a's; a file
    # holds each pair as {"a": feature_a, "b": feature_b, "rho": rho}
    correlation_pairs: tuple = ()

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GeneratorParams":
        """Malformed parameters raise ConfigError, KeyError, TypeError or ValueError."""
        if not isinstance(obj, dict):
            raise ConfigError("generator parameters must be a JSON object")
        feats = {}
        for name in RAW_FEATURES:
            if name not in obj.get("features", {}):
                raise ConfigError(f"generator config is missing feature {name!r}")
            raw = obj["features"][name]
            if isinstance(raw, dict):
                raw = {key: value for key, value in raw.items() if key != "comment"}
            feats[name] = from_json(FeatureParams, raw, f"features.{name}.")
        pairs = []
        for p in obj.get("correlation_pairs", []):
            if not isinstance(p, dict):
                raise ConfigError(f"correlation pair {p!r} must be a JSON object")
            a, b, rho = p["a"], p["b"], p["rho"]
            if a not in RAW_FEATURES or b not in RAW_FEATURES:
                raise ConfigError(f"correlation pair ({a}, {b}) names unknown features")
            if RAW_FEATURES.index(a) >= RAW_FEATURES.index(b):
                raise ConfigError("correlation pair must list the earlier feature first")
            if not (finite_number(rho) and -1.0 <= rho <= 1.0):
                raise ConfigError(f"correlation {rho!r} is not a number in [-1, 1]")
            pairs.append((a, b, float(rho)))
        return cls(int(obj.get("version", 1)), feats, tuple(pairs))

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "features": {
                name: {
                    "mean_healthy": fp.mean_healthy, "sd_healthy": fp.sd_healthy,
                    "mean_pd": fp.mean_pd, "sd_pd": fp.sd_pd,
                    "min": fp.min, "max": fp.max, "integer_flag": fp.integer_flag,
                }
                for name, fp in self.features.items()
            },
            "correlation_pairs": [{"a": a, "b": b, "rho": rho}
                                  for a, b, rho in self.correlation_pairs],
        }


def load_params(path=None) -> GeneratorParams:
    """Generator parameters from a JSON file, or the packaged defaults."""
    if path is None:
        path = resources.files("earlypd") / "default_cohort.json"
    return read_json(path, "a generator parameters file", GeneratorParams.from_json_dict)


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
    mixers = {b: (a, rho) for a, b, rho in params.correlation_pairs}
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
