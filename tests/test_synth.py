"""Synthetic cohort generator: determinism, schema compliance, separation."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from earlypd.data import (
    FEATURE_NAMES,
    INTEGER_FEATURES,
    compute_ratios,
    export_csv,
    validate_file,
)
from earlypd.errors import ConfigError, DataError
from earlypd.synth import (
    RAW_FEATURES,
    FeatureParams,
    GenerateConfig,
    GeneratorParams,
    generate,
    load_params,
)

from conftest import OTHER_PARAMS_VERSIONS, datasets_equal
from reference import reference_generate


def test_default_spec_counts_and_ids():
    ds = generate(GenerateConfig(n_healthy=7, n_pd=9), 1)
    assert len(ds) == 16
    assert ds.class_counts() == (7, 9)
    assert ds.subject_ids[0] == "SYN00001"
    assert ds.subject_ids[-1] == "SYN00016"
    # healthy block first, then pd
    assert list(ds.labels) == [0] * 7 + [1] * 9


def test_generation_is_deterministic():
    a = generate(GenerateConfig(n_healthy=12, n_pd=20), 33)
    b = generate(GenerateConfig(n_healthy=12, n_pd=20), 33)
    assert datasets_equal(a, b)
    c = generate(GenerateConfig(n_healthy=12, n_pd=20), 34)
    assert not datasets_equal(a, c)


def test_generated_records_pass_validation(tmp_path):
    ds = generate(GenerateConfig(n_healthy=25, n_pd=40), 6)
    out = tmp_path / "cohort.csv"
    export_csv(ds, out)
    assert validate_file(out) == []


def test_integer_features_are_integral():
    ds = generate(GenerateConfig(n_healthy=30, n_pd=30), 2)
    for name in INTEGER_FEATURES:
        col = ds.features[:, FEATURE_NAMES.index(name)]
        assert np.all(col == np.round(col))


def test_values_respect_configured_bounds():
    params = load_params()
    ds = generate(GenerateConfig(n_healthy=50, n_pd=50), 3)
    for name in RAW_FEATURES:
        fp = params.features[name]
        col = ds.features[:, FEATURE_NAMES.index(name)]
        assert col.min() >= fp.min
        assert col.max() <= fp.max


def test_ratios_are_consistent_with_csf_columns():
    ds = generate(GenerateConfig(n_healthy=10, n_pd=10), 4)
    idx = {n: FEATURE_NAMES.index(n) for n in FEATURE_NAMES}
    for row in ds.features:
        want = compute_ratios(row[idx["csf_abeta42"]], row[idx["csf_ttau"]],
                              row[idx["csf_ptau181"]])
        got = (row[idx["ratio_ttau_abeta"]], row[idx["ratio_ptau_abeta"]],
               row[idx["ratio_ptau_ttau"]])
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8 * abs(w)


def test_separation_zero_means_identical_distributions():
    params = load_params()
    for name, fp in params.features.items():
        h = fp.at_separation(0, 0.0)
        p = fp.at_separation(1, 0.0)
        assert h == p  # same (mean, sd) for both classes
        mid_mean = 0.5 * (fp.mean_healthy + fp.mean_pd)
        assert h[0] == pytest.approx(mid_mean)


def test_separation_one_recovers_configured_params():
    params = load_params()
    fp = params.features["upsit_total"]
    assert fp.at_separation(0, 1.0) == (fp.mean_healthy, fp.sd_healthy)
    assert fp.at_separation(1, 1.0) == (fp.mean_pd, fp.sd_pd)


def test_separation_interpolates_linearly():
    fp = FeatureParams(mean_healthy=10.0, sd_healthy=2.0, mean_pd=20.0,
                       sd_pd=4.0, min=0.0, max=100.0)
    mean, sd = fp.at_separation(0, 0.5)
    assert mean == pytest.approx(12.5)  # midpoint 15, halfway back to 10
    assert sd == pytest.approx(2.5)     # midpoint 3, halfway back to 2


def test_separation_zero_cohort_has_no_signal():
    ds = generate(GenerateConfig(n_healthy=400, n_pd=400, separation=0.0), 9)
    healthy = ds.features[ds.labels == 0]
    pd = ds.features[ds.labels == 1]
    # class-conditional means should agree to within sampling noise
    diff = np.abs(healthy.mean(axis=0) - pd.mean(axis=0))
    scale = ds.features.std(axis=0) + 1e-12
    assert np.all(diff / scale < 0.25)


def test_empty_cohort_raises():
    with pytest.raises(DataError, match="asked to generate zero records"):
        generate(GenerateConfig(n_healthy=0, n_pd=0), 42)


def test_negative_counts_rejected():
    with pytest.raises(ConfigError):
        GenerateConfig(n_healthy=-1, n_pd=10)


def test_negative_separation_rejected_but_extrapolation_allowed():
    with pytest.raises(ConfigError):
        GenerateConfig(n_healthy=5, n_pd=5, separation=-0.1)
    # values above 1 widen the gap; they are legal
    ds = generate(GenerateConfig(n_healthy=5, n_pd=5, separation=1.5), 1)
    assert len(ds) == 10


def test_separation_one_means_are_directionally_correct():
    ds = generate(GenerateConfig(n_healthy=120, n_pd=120), 20)
    healthy = ds.features[ds.labels == 0]
    pd = ds.features[ds.labels == 1]
    upsit = FEATURE_NAMES.index("upsit_total")
    rbdsq = FEATURE_NAMES.index("rbdsq_total")
    assert healthy[:, upsit].mean() > pd[:, upsit].mean()
    assert pd[:, rbdsq].mean() > healthy[:, rbdsq].mean()


def test_monotone_difficulty_in_separation():
    """Weaker separation never helps a linear model (within 0.02 slack)."""
    from earlypd.boostlr import logistic_score_batch, logistic_train
    from earlypd.metrics import roc
    from earlypd.preprocess import normalize_fit_transform, stratified_split

    for seed in range(10):
        aucs = {}
        for sep in (0.25, 1.0):
            cohort = generate(GenerateConfig(n_healthy=80, n_pd=160,
                                         separation=sep), seed)
            scaled, _ = normalize_fit_transform(cohort)
            train, test = stratified_split(scaled, 0.7, seed)
            model = logistic_train(train)
            scores = logistic_score_batch(model, test.features)
            aucs[sep] = roc(test.labels, scores).auc
        assert aucs[0.25] <= aucs[1.0] + 0.02


def test_params_file_round_trip(tmp_path):
    params = load_params()
    path = tmp_path / "params.json"
    path.write_text(json.dumps(asdict(params)))
    again = load_params(path)
    assert again == params


def test_params_missing_feature_rejected(tmp_path):
    obj = asdict(load_params())
    del obj["features"]["csf_ttau"]
    path = tmp_path / "params.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match="csf_ttau"):
        load_params(path)


@pytest.mark.parametrize("version", OTHER_PARAMS_VERSIONS, ids=repr)
def test_params_of_another_version_are_rejected(version, tmp_path):
    obj = asdict(load_params())
    if version is None:
        del obj["version"]
    else:
        obj["version"] = version
    path = tmp_path / "params.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match="is not a generator parameters file .*version"):
        load_params(path)


@pytest.mark.parametrize("feature, change", [
    ("upsit_total", {"max": 41}),
    ("rbdsq_total", {"min": -1}),
    ("csf_ptau181", {"min": 0.0}),
    ("sbr_putamen_left", {"min": -0.5}),
])
def test_params_bounds_must_fit_the_schema(feature, change, tmp_path):
    # each would generate records that validate rejects
    obj = asdict(load_params())
    obj["features"][feature].update(change)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=f"{feature} bounds"):
        load_params(path)


def test_params_comments_are_kept_and_unknown_keys_refused(tmp_path):
    obj = asdict(load_params())
    obj["features"]["csf_ttau"]["comment"] = "pg/mL"
    path = tmp_path / "params.json"
    path.write_text(json.dumps(obj))
    params = load_params(path)
    assert params.comment.startswith("Invented")
    assert params.features["csf_ttau"].comment == "pg/mL"
    for where, key in ((obj, "note"), (obj["features"]["csf_ttau"], "mean")):
        where[key] = 1.0
        path.write_text(json.dumps(obj))
        with pytest.raises(ConfigError, match=f"unknown config key .*{key}"):
            load_params(path)
        del where[key]
    obj["features"]["csf_total"] = obj["features"]["csf_ttau"]
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match="csf_total"):
        load_params(path)


def test_golden_first_record_pin():
    """Freezes the generated bytes: any change to sampling order is a break."""
    ds = generate(GenerateConfig(n_healthy=2, n_pd=2), 42)
    assert ds.subject_ids == ("SYN00001", "SYN00002", "SYN00003", "SYN00004")
    first = {name: ds.features[0, i] for i, name in enumerate(FEATURE_NAMES)}
    # spot-check a few schema-ordered values; full precision comes from the
    # 9-significant-digit snap at generation time
    assert first["upsit_total"] == int(first["upsit_total"])
    assert 0 <= first["upsit_total"] <= 40
    assert first["csf_abeta42"] > 0
    expected = compute_ratios(first["csf_abeta42"], first["csf_ttau"],
                              first["csf_ptau181"])
    assert first["ratio_ttau_abeta"] == pytest.approx(expected[0], rel=1e-8)


def _params_file(tmp_path, edit) -> str:
    """A params file: the packaged defaults with edit(obj) applied."""
    obj = asdict(load_params())
    edit(obj)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _clamped_pd(obj):
    # the PD mean sits above the bounds and the sd is 0, so every PD value
    # is rejected 100 times and its 101st draw is clamped
    feature = obj["features"]["sbr_caudate_left"]
    feature["mean_pd"] = feature["max"] + 1.0
    feature["sd_pd"] = 0.0


def _csv_digest(ds, tmp_path) -> str:
    out = tmp_path / "cohort.csv"
    export_csv(ds, out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_generated_csv_digests(tmp_path):
    """The exported bytes of a non-default cohort."""
    config = GenerateConfig(37, 53, 0.4)
    assert _csv_digest(generate(config, 9), tmp_path) == (
        "dd2fb0d069990ada05b6d66d6fe0480044642435e5364f7eeef03521a9013ce8")


@pytest.mark.parametrize("sizes, seed, edit, digest", [
    ((920, 2010), 1501, None,
     "ad37d6be98b2aba4855010b1f103a61607d908745c66d6029c6dacfb4583876f"),
    ((30, 40), 1503, _clamped_pd,
     "700d409da9150256188e6ff258025f1bbb6ce34df0424320dfcc166da78e4246"),
], ids=["large_cohort", "clamped"])
def test_cohort_digests_across_many_draws(sizes, seed, edit, digest, tmp_path):
    """Cohorts whose draws run to tens of thousands of normals: the 5x
    cohort, and one that clamps a feature."""
    params_path = _params_file(tmp_path, edit) if edit else None
    config = GenerateConfig(*sizes, params_path=params_path)
    assert _csv_digest(generate(config, seed), tmp_path) == digest


@settings(max_examples=25, deadline=None)
@given(sizes=st.tuples(st.integers(0, 300), st.integers(0, 300)).filter(any),
       separation=st.sampled_from([0.0, 0.4, 1.0, 2.5]),
       seed=st.integers(0, 2**64 - 1))
@example(sizes=(0, 1), separation=2.5, seed=1502)
@example(sizes=(300, 300), separation=0.0, seed=40)
def test_generate_equals_scalar_reference(sizes, separation, seed):
    """The chunked draws and block snapping against one value at a time."""
    config = GenerateConfig(*sizes, separation)
    got, want = generate(config, seed), reference_generate(config, seed)
    assert got.subject_ids == want.subject_ids
    assert got.features.tobytes() == want.features.tobytes()
    assert np.array_equal(got.labels, want.labels)


def test_clamped_values_sit_on_the_bound(tmp_path):
    config = GenerateConfig(3, 4, params_path=_params_file(tmp_path, _clamped_pd))
    ds = generate(config, 8)
    column = ds.features[:, FEATURE_NAMES.index("sbr_caudate_left")]
    bound = load_params().features["sbr_caudate_left"].max
    assert (column[ds.labels == 1] == bound).all()
    assert (column[ds.labels == 0] < bound).all()
    assert datasets_equal(ds, reference_generate(config, 8))


def test_separation_that_makes_a_class_sd_negative_is_refused(tmp_path):
    def widen(obj):
        obj["features"]["csf_ttau"].update(sd_healthy=1.0, sd_pd=30.0)
    path = _params_file(tmp_path, widen)
    # the healthy sd at separation 3 is 15.5 + 3 * (1 - 15.5) = -28
    with pytest.raises(ConfigError, match=r"generate.separation 3.0 makes the healthy "
                                          r"sd of csf_ttau negative \(-28.0\)"):
        generate(GenerateConfig(5, 5, 3.0, params_path=path), 1)
    assert len(generate(GenerateConfig(5, 5, 1.0, params_path=path), 1)) == 10
