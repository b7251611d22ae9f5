"""Min-max normalization, stratified splitting and the normalization sidecar.

The split is reproducible across platforms: per-class index lists are
shuffled with a SplitMix64 stream derived from (seed, "split"), healthy class
first, and per-class train counts use round-half-up of fraction * class size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FEATURE_NAMES, Dataset
from .errors import ConfigError, DataError
from .jsontext import check_version, json_text, json_typed, read_json
from .rng import derive_stream


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature (min, max) pairs in FEATURE_NAMES order."""

    pairs: tuple

    def to_json_dict(self) -> dict:
        return {name: {"min": lo, "max": hi}
                for name, (lo, hi) in zip(FEATURE_NAMES, self.pairs)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "NormalizationStats":
        """Raises ConfigError or ValueError unless obj holds a (min, max) pair
        of finite numbers with min <= max for exactly the FEATURE_NAMES."""
        if set(obj) != set(FEATURE_NAMES):
            raise ValueError(f"the normalization names {sorted(obj)}, "
                             f"the CSV's {list(FEATURE_NAMES)}")
        pairs = tuple(tuple(json_typed(float, obj[n][end], f"normalization.{n}.{end}")
                            for end in ("min", "max")) for n in FEATURE_NAMES)
        for name, (lo, hi) in zip(FEATURE_NAMES, pairs):
            if not lo <= hi:
                raise ValueError(f"the min of {name}, {lo!r}, is above its max, {hi!r}")
        return cls(pairs)


def normalize_fit_transform(ds: Dataset):
    """Scale every feature to [0, 1] by its own min and max.

    Constant columns map to 0. Returns (scaled dataset, NormalizationStats).
    """
    if len(ds) == 0:
        raise DataError("cannot fit normalization on zero records")
    lo = map(float, ds.features.min(axis=0))
    hi = map(float, ds.features.max(axis=0))
    stats = NormalizationStats(tuple(zip(lo, hi)))
    return normalize_apply(ds, stats), stats


def normalize_apply(ds: Dataset, stats: NormalizationStats) -> Dataset:
    """Scale with previously fitted stats, clamping results into [0, 1]."""
    if len(stats.pairs) != ds.features.shape[1]:
        raise DataError(f"stats of {len(stats.pairs)} features for {ds.features.shape[1]} columns")
    lo = np.array([p[0] for p in stats.pairs])
    hi = np.array([p[1] for p in stats.pairs])
    span = hi - lo
    safe = np.where(span == 0, 1.0, span)
    scaled = np.where(span == 0, 0.0, (ds.features - lo) / safe)
    scaled = np.clip(scaled, 0.0, 1.0)
    return Dataset(ds.subject_ids, scaled, ds.labels)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def check_train_fraction(train_fraction: float) -> None:
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")


def stratified_split(ds: Dataset, train_fraction: float, seed: int):
    """Deterministic stratified (train, test) partition.

    Each class keeps round_half_up(fraction * class_size) records for
    training. Both outputs preserve the original record order.
    """
    check_train_fraction(train_fraction)
    labels = ds.labels
    stream = derive_stream(seed, "split")
    train_idx, test_idx = [], []
    for cls in (0, 1):
        members = [int(i) for i in np.nonzero(labels == cls)[0]]
        if len(members) < 2:
            raise DataError(f"class {cls} has {len(members)} records, need at least 2")
        stream.shuffle(members)
        k = _round_half_up(train_fraction * len(members))
        train_idx.extend(members[:k])
        test_idx.extend(members[k:])
    return ds.subset(sorted(train_idx)), ds.subset(sorted(test_idx))


SIDECAR_VERSION = 1  # a sidecar of any other version is refused on load


def save_sidecar(path, stats: NormalizationStats) -> None:
    """Write normalization stats as JSON: the schema list records feature
    order, and the per-feature mappings are keyed by name."""
    payload = {
        "version": SIDECAR_VERSION,
        "schema": list(FEATURE_NAMES),
        "normalization": stats.to_json_dict(),
    }
    Path(path).write_text(json_text(payload), encoding="utf-8")


def load_sidecar(path) -> NormalizationStats:
    """The NormalizationStats of a sidecar file, whose schema must list the
    13 CSV features in order; a discretization key is ignored."""
    return read_json(path, "a preprocess sidecar", _sidecar_from_json)


def _sidecar_from_json(payload) -> NormalizationStats:
    schema = payload["schema"]  # before payload.get: a JSON array has no get
    check_version(payload.get("version"), SIDECAR_VERSION, "rerun train to rewrite it")
    if schema != list(FEATURE_NAMES):
        raise ValueError(f"the schema {schema} is not the CSV's features in order")
    return NormalizationStats.from_json_dict(payload["normalization"])
