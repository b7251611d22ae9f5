"""Deterministic synthetic cohort generation.

Raw features are drawn per class from truncated normals whose parameters come
from a versioned JSON config (the packaged default holds invented, plausible
values; nothing is estimated from real subjects). The three CSF ratios are
derived from the sampled concentrations, never sampled directly, so every
generated record satisfies the schema's ratio-consistency invariant.

``separation`` interpolates both class means and class sds toward their
shared midpoint: 1.0 keeps the configured gap, 0.0 makes the two class
distributions identical, so a zero-separation cohort carries no label signal
at all. Above 1 the sds are extrapolated too, and a separation that takes a
class sd below 0 is refused.

Draws: the "generate" stream's normals form one fixed sequence, taken
NORMALS_PER_CALL at a time from ``SplitMix64.normals``. Values take them in
record order, then schema order. A truncated value takes normals until one
lands in [min, max]; after MAX_REJECTS rejections the next one is clamped.
Rejections decide only which value gets which normal, so the chunk size
changes no value. Each block of BLOCK_ROWS records is then rounded (the
integer scores) and snapped to nine significant digits (float features, then
the ratios computed from them) one column set at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .data import (
    BLOCK_ROWS,
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
from .rng import derive_stream

# raw (sampled) features; ratios are derived afterwards
RAW_FEATURES = tuple(n for n in FEATURE_NAMES if n not in RATIO_FEATURES)
_RAW_COLUMNS = [FEATURE_NAMES.index(n) for n in RAW_FEATURES]
_FLOAT_COLUMNS = [j for j, n in enumerate(RAW_FEATURES) if n not in INTEGER_FEATURES]
_RATIO_COLUMNS = [FEATURE_NAMES.index(n) for n in RATIO_FEATURES]
_CSF_COLUMNS = [RAW_FEATURES.index(n) for n in ("csf_abeta42", "csf_ttau", "csf_ptau181")]
# normals taken from the "generate" stream per call; any size gives the same cohort
NORMALS_PER_CALL = 2048
# a truncated value rejected this many times clamps its next draw
MAX_REJECTS = 100


@dataclass(frozen=True)
class FeatureParams:
    mean_healthy: float
    sd_healthy: float
    mean_pd: float
    sd_pd: float
    min: float
    max: float
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
class GeneratorParams:
    version: int  # checked first, as from_json refuses an older file's keys
    features: dict[str, FeatureParams]
    comment: str | None = None

    def __post_init__(self):
        if set(self.features) != set(RAW_FEATURES):
            raise ConfigError(f"features {sorted(set(self.features) ^ set(RAW_FEATURES))} "
                              f"are missing or unknown")
        for name, p in self.features.items():  # within the schema's ranges
            lo, hi = INTEGER_FEATURES.get(name, (-math.inf, math.inf))
            if (p.min < lo or p.max > hi or name in NONNEGATIVE_FEATURES and p.min < 0
                    or name in POSITIVE_FEATURES and p.min <= 0):
                raise ConfigError(f"features.{name} bounds [{p.min}, {p.max}] reach "
                                  f"outside the values the schema allows")


PARAMS_VERSION = 2  # a parameters file of any other version is refused on load


def load_params(path=None) -> GeneratorParams:
    """Generator parameters from a JSON file, or the packaged defaults."""
    if path is None:
        path = resources.files("earlypd") / "default_cohort.json"
    return read_json(path, "a generator parameters file", _params_from_json)


def _params_from_json(obj) -> GeneratorParams:
    if isinstance(obj, dict):
        check_version(obj.get("version"), PARAMS_VERSION, "update the parameters file")
    return from_json(GeneratorParams, obj)


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


def _class_plans(params: GeneratorParams, separation: float) -> list:
    """Per class, per raw feature in RAW_FEATURES order: (mean, sd, min, max)."""
    plans = [[], []]
    for name in RAW_FEATURES:
        p = params.features[name]
        moments = [p.at_separation(c, separation) for c in (HEALTHY, PD)]
        if not np.isfinite(moments).all():
            raise ConfigError(f"generate.separation {separation} takes the class "
                              f"means or sds of {name} beyond the doubles")
        for plan, label, (mean, sd) in zip(plans, ("healthy", "PD"), moments):
            if sd < 0:
                raise ConfigError(f"generate.separation {separation} makes the {label} "
                                  f"sd of {name} negative ({sd})")
            plan.append((mean, sd, p.min, p.max))
    return plans


def _raw_records(plans, labels, draw):
    """Each record's raw features in RAW_FEATURES order, drawn value by value
    from draw(), before rounding and snapping."""
    for label in labels:
        row = []
        for mean, sd, lo, hi in plans[label]:
            for _ in range(MAX_REJECTS):
                x = mean + sd * draw()
                if lo <= x <= hi:
                    break
            else:
                x = min(max(mean + sd * draw(), lo), hi)
            row.append(x)
        yield row


def _finish(raw: np.ndarray, params: GeneratorParams) -> np.ndarray:
    """The (m, 13) records of an (m, 10) block of raw features: the integer
    scores rounded half up into their bounds, float features and then the
    ratios computed from them snapped to nine digits."""
    for name in INTEGER_FEATURES:
        j, p = RAW_FEATURES.index(name), params.features[name]
        raw[:, j] = np.clip(np.floor(raw[:, j] + 0.5), float(int(p.min)), float(int(p.max)))
    raw[:, _FLOAT_COLUMNS] = nine_digit(raw[:, _FLOAT_COLUMNS])
    records = np.empty((raw.shape[0], len(FEATURE_NAMES)))
    records[:, _RAW_COLUMNS] = raw
    with np.errstate(over="ignore"):
        records[:, _RATIO_COLUMNS] = nine_digit(np.column_stack(
            compute_ratios(*raw[:, _CSF_COLUMNS].T)))
    return records


def generate(config: GenerateConfig, seed: int) -> Dataset:
    """Sample a labeled cohort. The same config and seed give the same dataset.

    Healthy records come first, then PD; ids run SYN00001 upward. One stream
    derived from (seed, "generate") drives all draws, record by record and
    feature by feature in schema order. Float features are snapped to their
    9-significant-digit CSV rendering so export / ingest round-trips exactly.
    A value beyond the doubles (a ratio over a subnormal) is a ConfigError.
    """
    if config.n_healthy + config.n_pd == 0:
        raise DataError("asked to generate zero records")
    params = load_params(config.params_path)
    plans = _class_plans(params, config.separation)
    stream = derive_stream(seed, "generate")
    draw = itertools.chain.from_iterable(
        map(stream.normals, itertools.repeat(NORMALS_PER_CALL))).__next__
    try:
        labels = [HEALTHY] * config.n_healthy + [PD] * config.n_pd
    except (MemoryError, OverflowError) as err:
        raise ConfigError(f"n_healthy {config.n_healthy} and n_pd {config.n_pd} are too "
                          f"large to allocate the cohort: {err}") from None
    records = _raw_records(plans, labels, draw)
    blocks = []
    while block := list(itertools.islice(records, BLOCK_ROWS)):
        blocks.append(_finish(np.array(block), params))
    features = np.concatenate(blocks)
    if not (finite := np.isfinite(features).all(axis=0)).all():
        raise ConfigError(f"the generator parameters take {FEATURE_NAMES[finite.argmin()]} "
                          f"beyond the doubles: a generated value is not finite")
    ids = tuple(f"SYN{i:05d}" for i in range(1, len(labels) + 1))
    return Dataset(ids, features, labels)
