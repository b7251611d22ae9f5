"""Perceptron training, hand-checked forward math, the gradient oracle, and
the row-blocked scorer against the one-shot one."""

import math
import warnings

import numpy as np
import pytest

from earlypd.data import BLOCK_ROWS, N_FEATURES, PD
from earlypd.errors import DataError
from earlypd.mlp import (
    MlpConfig,
    MlpModel,
    _Network,
    mlp_gradient_check,
    mlp_score_batch,
    mlp_train,
)
from earlypd.preprocess import normalize_fit_transform
from earlypd.synth import GenerateConfig, generate

from conftest import make_dataset
from reference import reference_mlp_score_batch, reference_mlp_train, reference_step


def _sig(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def _hand_model() -> MlpModel:
    # one hidden unit, two inputs, fixed easy-to-trace weights
    w1 = np.array([[0.5, -0.25, 0.1]])          # w_x1, w_x2, bias
    w2 = np.array([[0.3, -0.2], [-0.6, 0.7]])   # rows: healthy, pd
    return MlpModel(w1, w2, MlpConfig(hidden_units=1), seed=0, epoch_mse=())


def test_forward_pass_hand_computation():
    model = _hand_model()
    x = [0.8, 0.4]
    a = _sig(0.5 * 0.8 - 0.25 * 0.4 + 0.1)
    out_h = _sig(0.3 * a - 0.2)
    out_p = _sig(-0.6 * a + 0.7)
    want = out_p / (out_h + out_p)
    assert mlp_score_batch(model, [x])[0] == pytest.approx(want, abs=1e-15)


def test_score_batch_matches_scalar_score():
    model = _hand_model()
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.3, 0.9], [0.5, 0.5]])
    batch = mlp_score_batch(model, X)
    singles = [mlp_score_batch(model, [row])[0] for row in X]
    assert np.allclose(batch, singles, atol=1e-15)


def test_score_is_a_probability_share():
    model = _hand_model()
    for x in ([0.0, 0.0], [1.0, 0.2], [0.6, 0.8]):
        assert 0.0 < mlp_score_batch(model, [x])[0] < 1.0


def test_step_gradient_matches_hand_derivation():
    model = _hand_model()
    net = _Network(1, 2)
    net.w1[...] = model.w_hidden
    net.w2[...] = model.w_output
    nerr = np.empty(2)
    # a step on another record first, so a buffer the next step fails to
    # overwrite would show
    x = np.array([0.1, 0.9, 1.0])
    net.step(-x, x[None, :], np.array([0.0, 1.0]), nerr)
    x = np.array([0.8, 0.4, 1.0])
    net.step(-x, x[None, :], np.array([1.0, 0.0]), nerr)
    loss = 0.5 * float(nerr @ nerr)

    a = _sig(0.5 * 0.8 - 0.25 * 0.4 + 0.1)
    out_h = _sig(0.3 * a - 0.2)
    out_p = _sig(-0.6 * a + 0.7)
    err_h, err_p = out_h - 1.0, out_p - 0.0
    d2_h = err_h * out_h * (1.0 - out_h)
    d2_p = err_p * out_p * (1.0 - out_p)
    d1 = (0.3 * d2_h - 0.6 * d2_p) * a * (1.0 - a)
    assert loss == pytest.approx(0.5 * (err_h ** 2 + err_p ** 2), abs=1e-12)
    np.testing.assert_allclose(nerr, [-err_h, -err_p], rtol=0, atol=1e-12)
    # the step leaves the negated gradient behind
    np.testing.assert_allclose(-net.g1, [[d1 * 0.8, d1 * 0.4, d1]], rtol=0, atol=1e-12)
    np.testing.assert_allclose(-net.g2, [[d2_h * a, d2_h], [d2_p * a, d2_p]],
                               rtol=0, atol=1e-12)


def test_gradient_check_on_hand_model():
    model = _hand_model()
    err = mlp_gradient_check(model, [0.8, 0.4], [1.0, 0.0], step=1e-5)
    assert err <= 1e-4


def test_gradient_check_many_random_cases():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        h = int(rng.integers(1, 6))
        m = int(rng.integers(1, 8))
        w1 = rng.uniform(-0.5, 0.5, (h, m + 1))
        w2 = rng.uniform(-0.5, 0.5, (2, h + 1))
        model = MlpModel(w1, w2, MlpConfig(hidden_units=h), seed=0, epoch_mse=())
        x = rng.random(m)
        target = [1.0, 0.0] if rng.random() < 0.5 else [0.0, 1.0]
        worst = max(worst, mlp_gradient_check(model, x, target, step=1e-5))
    assert worst <= 1e-4


def test_xor_is_learned(xor_dataset):
    model = mlp_train(xor_dataset, MlpConfig(hidden_units=4, epochs=2000), seed=7)
    scores = mlp_score_batch(model, xor_dataset.features)
    preds = (scores > 0.5).astype(int)
    assert list(preds) == list(xor_dataset.labels)


def test_training_reduces_epoch_mse(xor_dataset):
    model = mlp_train(xor_dataset, MlpConfig(hidden_units=4, epochs=400), seed=7)
    assert len(model.epoch_mse) == 400
    assert model.epoch_mse[-1] < model.epoch_mse[0]


def test_training_is_seed_deterministic(xor_dataset):
    cfg = MlpConfig(hidden_units=3, epochs=50)
    a = mlp_train(xor_dataset, cfg, seed=11)
    b = mlp_train(xor_dataset, cfg, seed=11)
    assert np.array_equal(a.w_hidden, b.w_hidden)
    assert np.array_equal(a.w_output, b.w_output)
    assert a.epoch_mse == b.epoch_mse
    c = mlp_train(xor_dataset, cfg, seed=12)
    assert not np.array_equal(c.w_hidden, a.w_hidden)


def test_training_rejects_unnormalized_features():
    ds = make_dataset([[0.5, 3.0], [0.2, 0.1]], [0, 1])
    with pytest.raises(DataError, match=r"MLP input must be normalized into \[0, 1\]"):
        mlp_train(ds, MlpConfig(epochs=1))


def test_training_rejects_single_class():
    ds = make_dataset([[0.1, 0.2], [0.3, 0.4]], [1, 1])
    with pytest.raises(DataError, match="MLP training needs both classes"):
        mlp_train(ds, MlpConfig(epochs=1))


def test_trains_on_separable_small_cohort(small_split):
    train, test = small_split
    model = mlp_train(train, MlpConfig(epochs=150), seed=5)
    scores = mlp_score_batch(model, test.features)
    acc = np.mean((scores > 0.5).astype(int) == test.labels)
    assert acc >= 0.85


def test_score_clamps_out_of_range_inputs():
    model = _hand_model()
    # scoring never rejects; values are clamped into [0, 1] first
    inside = mlp_score_batch(model, [[1.0, 0.0]])[0]
    outside = mlp_score_batch(model, [[5.0, -3.0]])[0]
    assert outside == pytest.approx(inside, abs=1e-15)


def test_score_saturates_an_extreme_weight_without_a_warning():
    # exp(1e308) overflows to inf and the hidden unit's activation to 0;
    # warnings are errors here, so a stray RuntimeWarning fails the test
    model = _hand_model()
    w1 = model.w_hidden.copy()
    w1[0, 0] = -1e308
    extreme = MlpModel(w1, model.w_output, model.config, seed=0, epoch_mse=())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = mlp_score_batch(extreme, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    assert np.isfinite(scores).all() and ((scores >= 0.0) & (scores <= 1.0)).all()
    out_h, out_p = _sig(-0.2), _sig(0.7)  # the output units with a1 = 0
    assert scores[0] == pytest.approx(out_p / (out_h + out_p), abs=1e-15)


def test_score_overflows_the_hidden_products_without_a_warning(small_split):
    # every hidden weight -1e308: w1 @ x overflows to -inf in the matmul
    # itself, before exp, and every hidden activation is 0
    train, test = small_split
    obj = mlp_train(train, MlpConfig(hidden_units=3, epochs=2), seed=42).to_json_dict()
    obj["w_hidden"] = [-1e308] * len(obj["w_hidden"])
    extreme = MlpModel.from_json_dict(obj)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = mlp_score_batch(extreme, test.features)
    out_h, out_p = (_sig(b) for b in extreme.w_output[:, -1])
    assert scores == pytest.approx([out_p / (out_h + out_p)] * len(test), abs=1e-15)


def _scoring_case(hidden: int, n: int):
    """A net of hidden units whose first unit's first two weights are -1e308,
    so its product overflows on records with large first features, and n
    records in [-0.2, 1.2) with NaN and -0.0 cells; drawn from (hidden, n)."""
    rng = np.random.default_rng([hidden, n])
    w1 = rng.uniform(-2.0, 2.0, (hidden, N_FEATURES + 1))
    w1[0, :2] = -1e308
    w2 = rng.uniform(-2.0, 2.0, (2, hidden + 1))
    features = rng.uniform(-0.2, 1.2, (n, N_FEATURES))
    features[rng.random(features.shape) < 0.01] = np.nan
    features[rng.random(features.shape) < 0.05] = -0.0
    return MlpModel(w1, w2, MlpConfig(hidden_units=hidden), seed=0, epoch_mse=()), features


def _blocks(n: int) -> list:
    """(start, stop) of the scorer's row blocks: BLOCK_ROWS rows from row 0,
    a one-row remainder in the block before it."""
    stops = [*range(BLOCK_ROWS, n - 1, BLOCK_ROWS), n]
    return list(zip([0, *stops[:-1]], stops))


@pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2049, 20_001])
@pytest.mark.parametrize("hidden", [1, 2, 3, 7, 8, 16, 30])
def test_blocks_give_the_one_shot_bits(hidden, n):
    model, features = _scoring_case(hidden, n)
    assert mlp_score_batch(model, features).tobytes() == reference_mlp_score_batch(
        model, features).tobytes()


@pytest.mark.parametrize("n", [2049, 20_001])
@pytest.mark.parametrize("hidden", [31, 40])
def test_wide_nets_score_each_block_as_a_batch_of_its_own(hidden, n):
    # from 31 hidden units the output layer's kernel depends on the number of
    # rows, so a block's bits are those of the block scored alone
    model, features = _scoring_case(hidden, n)
    scores = mlp_score_batch(model, features)
    for start, stop in _blocks(n):
        assert scores[start:stop].tobytes() == reference_mlp_score_batch(
            model, features[start:stop]).tobytes(), (start, stop)


@pytest.fixture()
def small_train(small_split):
    return small_split[0]


@pytest.fixture()
def cohort_60_80():
    return normalize_fit_transform(generate(GenerateConfig(60, 80), 3))[0]


@pytest.fixture()
def zero_heavy():
    """Normalized-looking records with exact zeros: one feature always 0, one
    nonzero in a single record and about 30% zero cells elsewhere."""
    rng = np.random.default_rng(24)
    feats = rng.random((40, 6))
    feats[rng.random(feats.shape) < 0.3] = 0.0
    feats[:, 0] = 0.0
    feats[:, 1] = 0.0
    feats[17, 1] = 0.6
    return make_dataset(feats, [i % 2 for i in range(40)])


@pytest.mark.parametrize("data, config, seed", [
    ("small_train", MlpConfig(hidden_units=1, epochs=60), 5),
    ("xor_dataset", MlpConfig(hidden_units=4, epochs=200), 7),
    ("cohort_60_80", MlpConfig(hidden_units=8, epochs=30), 3),
    ("cohort_60_80", MlpConfig(hidden_units=16, learning_rate=1.7, momentum=0.9,
                               epochs=30), 3),
    ("zero_heavy", MlpConfig(hidden_units=1, momentum=0.9, epochs=40), 9),
    # momentum 0 turns each negative velocity into -0 before g is added
    ("cohort_60_80", MlpConfig(hidden_units=3, momentum=0.0, epochs=30), 3),
], ids=["one_hidden_unit", "xor", "cohort_60_80", "wide_fast_heavy_momentum",
        "zero_cells", "no_momentum"])
def test_training_is_bit_identical_to_reference(data, config, seed, request):
    train = request.getfixturevalue(data)
    model = mlp_train(train, config, seed)
    w1, w2, epoch_mse = reference_mlp_train(train, config, seed)
    assert np.array_equal(model.w_hidden, w1)
    assert np.array_equal(model.w_output, w2)
    # array_equal takes -0.0 == 0.0; the bytes tell the two zeros apart
    assert model.w_hidden.tobytes() == w1.tobytes()
    assert model.w_output.tobytes() == w2.tobytes()
    assert model.epoch_mse == epoch_mse


@pytest.mark.parametrize("hidden", [1, 2, 3, 7, 8, 16])
def test_step_products_match_matmul_and_multiply(hidden):
    # at hidden 2, 3 and 7 an uncopied (h % 4 == 3) or transposed
    # (h % 4 in (2, 3)) w2[:, :h] block puts other rows in the gemv tail loop
    m = 13
    net = _Network(hidden, m)
    rng = np.random.default_rng(hidden)
    nerr = np.empty(2)
    for trial in range(2000):
        net.w[...] = rng.uniform(-2.0, 2.0, net.w.size)
        x = rng.random(m + 1)
        x[rng.random(m + 1) < 0.3] = 0.0
        x[m] = 1.0
        target = np.eye(2)[trial % 2]
        net.step(-x, x[None, :], target, nerr)
        want_nerr, want_g1, want_g2 = reference_step(net.w1, net.w2, x, target)
        # only a zero's sign may differ, and only in the gradient
        assert nerr.tobytes() == want_nerr.tobytes() and np.array_equal(
            net.g1, want_g1) and np.array_equal(net.g2, want_g2), (
            f"np.dot and np.matmul/np.multiply disagree on this BLAS at hidden "
            f"{hidden}, trial {trial}: the step's products no longer keep the bits")


def _zero_signs_dropped(a):
    return np.where(a == 0.0, 0.0, a).tobytes()


@pytest.mark.parametrize("scale1, scale2, edge", [
    (1e3, 1e3, np.isinf), (1e308, 1e308, np.isinf), (1.0, np.inf, np.isnan),
], ids=["exp overflows", "products overflow", "NaN"])
def test_step_keeps_the_bits_at_the_edges_of_the_float_arithmetic(scale1, scale2, edge):
    # weights of 1e3 overflow exp(-z2), so -out is -0.0; weights of 1e308
    # overflow the products themselves; output weights of +-inf give -z2 = NaN
    m, hidden = 13, 8
    net = _Network(hidden, m)
    rng = np.random.default_rng(33)
    nerr, nerr_of_array = np.empty(2), np.empty(2)
    edges = 0
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(500):
            net.w1[...] = scale1 * rng.uniform(-1.0, 1.0, net.w1.shape)
            net.w2[...] = scale2 * rng.uniform(-1.0, 1.0, net.w2.shape)
            x = rng.random(m + 1)
            x[m] = 1.0
            target = np.eye(2)[trial % 2]
            net.step(-x, x[None, :], target, nerr_of_array)
            g_of_array = net.g.tobytes()
            net.step(-x, x[None, :], target.tolist(), nerr)
            # a numpy-array target and a pair of Python floats give the same bytes
            assert nerr.tobytes() == nerr_of_array.tobytes()
            assert net.g.tobytes() == g_of_array
            want_nerr, want_g1, want_g2 = reference_step(net.w1, net.w2, x, target)
            assert nerr.tobytes() == want_nerr.tobytes(), trial
            assert _zero_signs_dropped(net.g1) == _zero_signs_dropped(want_g1), trial
            assert _zero_signs_dropped(net.g2) == _zero_signs_dropped(want_g2), trial
            na1b = np.append(-1.0 / (1.0 + np.exp(np.matmul(net.w1, -x))), -1.0)
            edges += edge(np.exp(np.matmul(net.w2, na1b))).any()
    assert edges >= 50, f"only {edges} of 500 trials reach the edge"
