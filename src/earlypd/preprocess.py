"""Min-max normalization, stratified splitting and discretization.

The split is reproducible across platforms: per-class index lists are
shuffled with a SplitMix64 stream derived from (seed, "split"), healthy class
first, and per-class train counts use round-half-up of fraction * class size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import (
    BinsTooFew,
    ClassTooSmall,
    ConfigError,
    EmptyDataset,
    MissingFeatureStats,
)
from .jsontext import finite_number, json_text
from .rng import derive_stream


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature (min, max) pairs in schema order."""

    schema: tuple
    pairs: tuple

    def to_json_dict(self) -> dict:
        return {name: {"min": lo, "max": hi}
                for name, (lo, hi) in zip(self.schema, self.pairs)}

    @classmethod
    def from_json_dict(cls, obj: dict, schema) -> "NormalizationStats":
        """Raises ValueError unless obj holds a (min, max) pair of finite
        numbers with min <= max for exactly the schema's names."""
        names = tuple(schema)
        if set(obj) != set(names):
            raise ValueError(f"the normalization names {sorted(obj)}, "
                             f"the schema {list(names)}")
        pairs = tuple((obj[n]["min"], obj[n]["max"]) for n in names)
        for name, (lo, hi) in zip(names, pairs):
            if not (finite_number(lo) and finite_number(hi) and lo <= hi):
                raise ValueError(f"the min and max of {name} must be finite numbers "
                                 f"with min <= max, got {lo!r} and {hi!r}")
        return cls(names, pairs)


def normalize_fit_transform(ds: Dataset):
    """Scale every feature to [0, 1] by its own min and max.

    Constant columns map to 0. Returns (scaled dataset, NormalizationStats).
    """
    if len(ds) == 0:
        raise EmptyDataset("cannot fit normalization on zero records")
    lo = map(float, ds.features.min(axis=0))
    hi = map(float, ds.features.max(axis=0))
    stats = NormalizationStats(ds.schema, tuple(zip(lo, hi)))
    return normalize_apply(ds, stats), stats


def normalize_apply(ds: Dataset, stats: NormalizationStats) -> Dataset:
    """Scale with previously fitted stats, clamping results into [0, 1]."""
    if stats.schema != ds.schema or len(stats.pairs) != len(ds.schema):
        raise MissingFeatureStats("normalization stats do not match the dataset schema")
    lo = np.array([p[0] for p in stats.pairs])
    hi = np.array([p[1] for p in stats.pairs])
    span = hi - lo
    safe = np.where(span == 0, 1.0, span)
    scaled = np.where(span == 0, 0.0, (ds.features - lo) / safe)
    scaled = np.clip(scaled, 0.0, 1.0)
    return Dataset(ds.subject_ids, scaled, ds.labels, ds.schema,
                   normalization=stats.pairs)


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
            raise ClassTooSmall(
                f"class {cls} has {len(members)} records, need at least 2")
        stream.shuffle(members)
        k = _round_half_up(train_fraction * len(members))
        train_idx.extend(members[:k])
        test_idx.extend(members[k:])
    return ds.subset(sorted(train_idx)), ds.subset(sorted(test_idx))


DISCRETIZE_STRATEGIES = ("equal_frequency", "equal_width")


@dataclass(frozen=True)
class DiscretizationMap:
    """Per-feature ascending cut points. Empty tuple means a single bin.

    A value lands in bin ``searchsorted(cuts, value, side="right")``, i.e.
    values below the first cut go to bin 0 and a value equal to a cut goes to
    the upper bin. Values beyond the training range therefore clamp to the
    first or last bin on their own.
    """

    schema: tuple
    cuts: tuple

    def arities(self) -> tuple:
        return tuple(len(c) + 1 for c in self.cuts)

    def bin_matrix(self, features: np.ndarray) -> np.ndarray:
        out = np.empty(features.shape, dtype=np.int64)
        for j, cuts in enumerate(self.cuts):
            out[:, j] = np.searchsorted(np.asarray(cuts), features[:, j], side="right")
        return out

    def to_json_dict(self) -> dict:
        return {name: {"cuts": list(c)} for name, c in zip(self.schema, self.cuts)}

    @classmethod
    def from_json_dict(cls, obj: dict, schema) -> "DiscretizationMap":
        """Raises ValueError unless obj holds the cuts of exactly the schema's
        names, each list finite numbers in strictly ascending order."""
        names = tuple(schema)
        if len(obj) != len(names):
            raise ValueError(f"the discretization has {len(obj)} features, "
                             f"the schema {len(names)}")
        cuts = tuple(tuple(obj[n]["cuts"]) for n in names)
        for name, c in zip(names, cuts):
            if not (all(map(finite_number, c))
                    and all(a < b for a, b in zip(c, c[1:]))):
                raise ValueError(f"the cuts of {name} must be finite numbers in "
                                 f"strictly ascending order, got {list(c)}")
        return cls(names, cuts)


def discretize_fit(ds: Dataset, bins: int = 10,
                   strategy: str = "equal_frequency") -> DiscretizationMap:
    """Fit per-feature cut points on the given records.

    equal_frequency places cuts at empirical quantiles (linear interpolation),
    equal_width spaces them evenly over [min, max]. Duplicate cuts and cuts
    outside the open value range are dropped, so the effective bin count can
    shrink; a constant column keeps no cuts at all.
    """
    if bins < 2:
        raise BinsTooFew(f"need at least 2 bins, got {bins}")
    if strategy not in DISCRETIZE_STRATEGIES:
        raise ConfigError(f"unknown discretization strategy {strategy!r}")
    if len(ds) == 0:
        raise EmptyDataset("cannot fit discretization on zero records")
    all_cuts = []
    for j in range(ds.features.shape[1]):
        col = ds.features[:, j]
        lo, hi = float(col.min()), float(col.max())
        if strategy == "equal_frequency":
            qs = np.arange(1, bins) / bins
            raw = np.quantile(col, qs)
        else:
            raw = lo + np.arange(1, bins) * (hi - lo) / bins
        kept = []
        for c in map(float, raw):
            if lo < c < hi and (not kept or c > kept[-1]):
                kept.append(c)
        all_cuts.append(tuple(kept))
    return DiscretizationMap(ds.schema, tuple(all_cuts))


def save_sidecar(path, stats: NormalizationStats,
                 dmap: DiscretizationMap | None = None) -> None:
    """Write normalization stats (and discretization cuts if any) as JSON.

    The schema list records feature order; the per-feature mappings are
    keyed by name.
    """
    payload = {
        "version": 1,
        "schema": list(stats.schema),
        "normalization": stats.to_json_dict(),
    }
    if dmap is not None:
        payload["discretization"] = dmap.to_json_dict()
    Path(path).write_text(json_text(payload), encoding="utf-8")


def load_sidecar(path):
    """(NormalizationStats, DiscretizationMap or None) from a sidecar file."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        schema = payload["schema"]
        stats = NormalizationStats.from_json_dict(payload["normalization"], schema)
        dmap = None
        if "discretization" in payload:
            dmap = DiscretizationMap.from_json_dict(payload["discretization"], schema)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise ConfigError(f"{path} is not a preprocess sidecar "
                          f"({type(err).__name__}: {err})") from None
    return stats, dmap
