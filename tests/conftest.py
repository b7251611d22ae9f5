"""Shared fixtures: a tiny hand-checked CSV, reusable synthetic cohorts and
the default experiment run, and a guard that fails any test leaving a child
process behind."""

import os
from pathlib import Path

import numpy as np
import pytest

from earlypd.data import FEATURE_NAMES, Dataset
from earlypd.pipeline import PipelineConfig, run_experiment
from earlypd.preprocess import normalize_fit_transform, stratified_split
from earlypd.synth import GenerateConfig, generate

DATA_DIR = Path(__file__).parent / "data"

# Stored versions that a sidecar or a params file of version 1 must not carry:
# missing, other ints, and a bool or float that equals 1.
OTHER_VERSIONS = [None, 0, 2, True, 1.0]

# Stored versions that a model file of version 2 must not carry: missing, the
# version before it and other ints, a bool, and floats that equal a version.
OTHER_MODEL_VERSIONS = [None, 0, 1, 3, True, 1.0, 2.0]


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test must reap the processes it starts, the forest's workers
    included: after it, this process has no child, running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:
        pytest.fail("a child process is still running")
    pytest.fail(f"child process {pid} was left unreaped (wait status {status})")


@pytest.fixture(scope="session")
def fixture_csv() -> Path:
    return DATA_DIR / "fixture_three.csv"


@pytest.fixture(scope="session")
def default_run():
    """The default experiment: 184 healthy / 402 pd, seed 42, separation 1.

    Session-scoped so the default models are trained once for every file
    that checks them."""
    return run_experiment(PipelineConfig())


@pytest.fixture(scope="session")
def small_cohort() -> Dataset:
    """90 records, enough signal for every model to beat chance."""
    return generate(GenerateConfig(n_healthy=30, n_pd=60), 5)


@pytest.fixture(scope="session")
def small_split(small_cohort):
    """(train, test) of the normalized small cohort."""
    scaled, _stats = normalize_fit_transform(small_cohort)
    return stratified_split(scaled, 0.7, 5)


def make_dataset(features, labels) -> Dataset:
    """Dataset from plain arrays, with generated ids."""
    features = np.asarray(features, dtype=np.float64)
    ids = tuple(f"R{i:03d}" for i in range(features.shape[0]))
    return Dataset(ids, features, np.asarray(labels, dtype=np.int64))


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Same ids, features and labels."""
    return (
        a.subject_ids == b.subject_ids
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
    )


@pytest.fixture()
def xor_dataset() -> Dataset:
    X = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    y = [0, 1, 1, 0]
    return make_dataset(X, y)


@pytest.fixture(scope="session")
def full_schema_random():
    """Deterministic random (n, 13) matrix in [0, 1] plus balanced labels."""
    rng = np.random.default_rng(77)
    X = rng.random((40, len(FEATURE_NAMES)))
    y = np.array([0, 1] * 20)
    return make_dataset(X, y)
