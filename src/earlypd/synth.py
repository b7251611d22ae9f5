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
A value of a correlation pair's second feature takes exactly one normal and
is clamped. Rejections decide only which value gets which normal, so the
chunk size changes no value. Each block of BLOCK_ROWS records is then
rounded (integer features) and snapped to nine significant digits (float
features, then the ratios computed from them) one column set at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
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
        mixed = {pair.b: pair for pair in self.correlation_pairs}
        for pair in self.correlation_pairs:
            if (other := mixed[pair.b]) is not pair:
                raise ConfigError(f"correlation pairs ({pair.a}, {pair.b}) and ({other.a}, "
                                  f"{other.b}) share their second feature {pair.b}")
            if pair.a in mixed:
                raise ConfigError(f"correlation pair ({pair.a}, {pair.b}) mixes with "
                                  f"{pair.a}, the second feature of another pair")


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


def _class_plans(params: GeneratorParams, separation: float) -> list:
    """Per class, per raw feature: (mean, sd, min, max, mix). mix is None for
    a truncated value, else (partner column, partner mean, partner sd, rho,
    sqrt(1 - rho**2)) for the second feature of a correlation pair."""
    moments = {}
    for name, p in params.features.items():
        moments[name] = [p.at_separation(c, separation) for c in (HEALTHY, PD)]
        if not np.isfinite(moments[name]).all():
            raise ConfigError(f"generate.separation {separation} takes the class "
                              f"means or sds of {name} beyond the doubles")
        for label, (_mean, sd) in zip(("healthy", "PD"), moments[name]):
            if sd < 0:
                raise ConfigError(f"generate.separation {separation} makes the {label} "
                                  f"sd of {name} negative ({sd})")
    mixers = {pair.b: pair for pair in params.correlation_pairs}
    plans = []
    for label in (HEALTHY, PD):
        plan = []
        for name in RAW_FEATURES:
            mean, sd = moments[name][label]
            p = params.features[name]
            mix = None
            if name in mixers:
                a, rho = mixers[name].a, mixers[name].rho
                mix = (RAW_FEATURES.index(a), *moments[a][label], rho, (1 - rho ** 2) ** 0.5)
            plan.append((mean, sd, p.min, p.max, mix))
        plans.append(plan)
    return plans


def _raw_records(plans, labels, draw):
    """Each record's raw features in RAW_FEATURES order, drawn value by value
    from draw(), before rounding and snapping."""
    for label in labels:
        row = []
        for mean, sd, lo, hi, mix in plans[label]:
            if mix is None:
                for _ in range(MAX_REJECTS):
                    x = mean + sd * draw()
                    if lo <= x <= hi:
                        break
                else:
                    x = min(max(mean + sd * draw(), lo), hi)
            else:
                # mix with the partner's pre-rounding z-score, clamp instead of rejecting
                partner, partner_mean, partner_sd, rho, rest = mix
                z = (row[partner] - partner_mean) / partner_sd if partner_sd else 0.0
                x = min(max(mean + sd * (rho * z + rest * draw()), lo), hi)
            row.append(x)
        yield row


def _finish(raw: np.ndarray, params: GeneratorParams) -> np.ndarray:
    """The (m, 13) records of an (m, 10) block of raw features: integer
    features rounded half up into their bounds, float features and then the
    ratios computed from them snapped to nine digits."""
    floats = []
    for j, name in enumerate(RAW_FEATURES):
        p = params.features[name]
        if p.integer_flag:
            raw[:, j] = np.clip(np.floor(raw[:, j] + 0.5), float(int(p.min)), float(int(p.max)))
        else:
            floats.append(j)
    raw[:, floats] = nine_digit(raw[:, floats])
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
    ids = tuple(f"SYN{i:05d}" for i in range(1, len(labels) + 1))
    return Dataset(ids, np.concatenate(blocks), labels)
