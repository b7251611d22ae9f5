"""Independent references for the package's batch scorers, split rule, tree
grower, tree descent, ROC curve and its corner thinning, network trainer and
training step, shuffle, record rules, cohort generator, CSV reader and
writer, the node-list forest writer and the older model file layouts.

Most functions work on one record (or one split, one feature of a node's
split search, one training step, one draw or one generated value) at a
time, with plain Python control flow. The level-wise tree walk, the looped
ROC and the CSV reader that splits every row with csv.reader and converts
each row alone reach the same result as the package's code by another
route. The vectorized code in the package is checked against them. The
node-list writer gives the bytes of a forest file before the columnar
layout, and the version 2 and version 1 layouts those of the model files
that stored more than their loaders derive or read, so models loaded from a
new file can be checked against the digests of the old ones; the
entropy-formula grower grows the trees from before split scores came from
the c * log2(c) table, so the digests taken then can be checked again.
The evaluations writer gives the bytes of evaluations.json, the evaluation
record runs wrote before scores.csv, and the one-shot MLP scorer the scores
from before the network scored in row blocks. None of this runs in the
pipeline.
"""

import csv
import itertools
import json
import math
from unittest import mock

import numpy as np

from earlypd import data
from earlypd.boostlr import _sigmoid
from earlypd.data import (
    BLOCK_ROWS,
    FEATURE_NAMES,
    HEALTHY,
    INTEGER_FEATURES,
    NONNEGATIVE_FEATURES,
    PD,
    POSITIVE_FEATURES,
    RATIO_FEATURES,
    RATIO_REL_TOL,
    _check_header,
    _parse_block,
    Dataset,
    compute_ratios,
    format_value,
)
from earlypd.errors import DataError, UnreadableCsv
from earlypd.forest import DecisionTree, _draw_features
from earlypd.jsontext import json_text
from earlypd.metrics import RocCurve
from earlypd.preprocess import _round_half_up
from earlypd.rng import derive_stream
from earlypd.synth import RAW_FEATURES, load_params


def logistic_score(model, features) -> float:
    x = np.asarray(features, dtype=np.float64)
    return float(_sigmoid(np.array([float(x @ model.coef) + model.intercept]))[0])


def boosted_score(model, features) -> float:
    """Alpha-weighted share of rounds voting PD."""
    if not model.rounds:
        raise DataError("boosted model has no rounds")
    x = np.asarray(features, dtype=np.float64)
    total = sum(r.alpha for r in model.rounds)
    pd_mass = sum(r.alpha for r in model.rounds
                  if logistic_score(r.model, x) > 0.5)
    return pd_mass / total


def tree_predict(tree, x) -> int:
    """Walk one record from the root to its leaf; the leaf's majority wins,
    and a tie goes to healthy."""
    i = 0
    while tree.feature[i] >= 0:
        i = i + 1 if x[tree.feature[i]] < tree.threshold[i] else tree.right[i]
    h, p = tree.counts[i]
    return PD if p > h else HEALTHY


def tree_predict_batch(tree, X) -> np.ndarray:
    """The class of each record of X, from the tree's add_pd_votes."""
    X = np.asarray(X, dtype=np.float64)
    votes = np.zeros(X.shape[0])
    tree.add_pd_votes(list(np.ascontiguousarray(X.T)), votes)
    return np.where(votes > 0, PD, HEALTHY)


def levelwise_predict_batch(tree, X) -> np.ndarray:
    """Every record moves down one level per pass, all records together."""
    X = np.asarray(X, dtype=np.float64)
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feats = tree.feature[node]
        active = feats >= 0
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        f = feats[rows]
        go_left = X[rows, f] < tree.threshold[node[rows]]
        node[rows] = np.where(go_left, node[rows] + 1, tree.right[node[rows]])
    leaf = tree.counts[node]
    return np.where(leaf[:, 1] > leaf[:, 0], PD, HEALTHY)


def tree_to_json_list(tree) -> list:
    """A tree in the node-list layout that model files had before the
    columnar one: one JSON object per node, in preorder."""
    nodes = []
    for i in range(len(tree.feature)):
        if tree.feature[i] < 0:
            nodes.append({"leaf": [int(tree.counts[i, 0]), int(tree.counts[i, 1])]})
        else:
            nodes.append({
                "split": [int(tree.feature[i]), float(tree.threshold[i])],
                "left": i + 1,
                "right": int(tree.right[i]),
                "counts": [int(tree.counts[i, 0]), int(tree.counts[i, 1])],
            })
    return nodes


def node_list_forest_text(model) -> str:
    """A forest's model file as the node-list writer wrote it: no version,
    one node list per tree, json.dump with indent 2 and sorted keys."""
    return json.dumps({
        "kind": "forest",
        "trees": [tree_to_json_list(t) for t in model.trees],
        "feature_subset": model.config.feature_subset,
        "bootstrap": model.config.bootstrap,
        "seed": model.seed,
        "n_features": model.n_features,
    }, indent=2, sort_keys=True) + "\n"


def v2_model_dict(model) -> dict:
    """A model's file as the version 2 writer laid it out: the version 3 dict
    with "version": 2, each forest tree's left children (i + 1, or -1 at a
    leaf) and right children (-1 at a leaf) stored beside the feature column
    they follow from, and the Bayes net's "strategy": "equal_frequency", the
    one binning there is."""
    obj = {**model.to_json_dict(), "version": 2}
    if obj["kind"] == "bayesnet":
        obj["strategy"] = "equal_frequency"
    elif obj["kind"] == "forest":
        for saved, tree in zip(obj["trees"], model.trees):
            leaf = tree.feature < 0
            saved["left"] = np.where(leaf, -1, np.arange(1, leaf.size + 1)).tolist()
            saved["right"] = tree.right.tolist()
    return obj


def v1_model_dict(model) -> dict:
    """A model's file as the version 1 writer laid it out: the version 2 dict
    with "version": 1, and an MLP's weight shapes or a Bayes net's arities
    stored beside the settings and cuts they follow from."""
    obj = {**v2_model_dict(model), "version": 1}
    if obj["kind"] == "mlp":
        obj.update(shape_hidden=list(model.w_hidden.shape),
                   shape_output=list(model.w_output.shape))
    elif obj["kind"] == "bayesnet":
        obj["arities"] = list(model.net.arities)
    return obj


def evaluations_json_text(evaluations) -> str:
    """evaluations.json as runs wrote it before scores.csv replaced it: the
    models in run order, and each report's JSON dict by model and split."""
    return json_text({
        "model_order": list(evaluations),
        "models": {name: {split: report.to_json_dict() for split, report in by_split.items()}
                   for name, by_split in evaluations.items()},
    })


def loop_roc(labels, scores):
    """metrics.roc with a running count: each block of equal scores is walked
    record by record, and the AUC is a running sum of trapezoids. Takes the
    checked inputs of roc (finite scores, both classes present)."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.count_nonzero(labels == PD))
    n_neg = labels.size - n_pos
    order = np.argsort(-scores, kind="stable")
    thresholds = [float("inf")]
    fpr = [0.0]
    tpr = [0.0]
    auc = 0.0
    tp = fp = 0
    i = 0
    while i < labels.size:
        j = i
        score = scores[order[i]]
        while j < labels.size and scores[order[j]] == score:
            if labels[order[j]] == PD:
                tp += 1
            else:
                fp += 1
            j += 1
        x, y = fp / n_neg, tp / n_pos
        auc += (x - fpr[-1]) * (y + tpr[-1]) / 2.0
        thresholds.append(float(score))
        fpr.append(x)
        tpr.append(y)
        i = j
    return RocCurve(tuple(thresholds), tuple(fpr), tuple(tpr), auc)


def reference_thin(curve, labels):
    """loop_roc's curve on labels with each inner point dropped whose steps
    from the point before and to the point after are parallel, walked point
    by point with the cross product of the counts in Python ints. Each rate
    is a count over its class size, so the counts are the rates times the
    sizes, rounded."""
    n_pos = sum(int(label) == PD for label in labels)
    n_neg = len(labels) - n_pos
    counts = [(round(x * n_neg), round(y * n_pos)) for x, y in zip(curve.fpr, curve.tpr)]
    keep = [0]
    for i in range(1, len(counts) - 1):
        (x0, y0), (x1, y1), (x2, y2) = counts[i - 1], counts[i], counts[i + 1]
        if (x1 - x0) * (y2 - y1) != (y1 - y0) * (x2 - x1):
            keep.append(i)
    keep.append(len(counts) - 1)
    return RocCurve(*(tuple(points[i] for i in keep)
                      for points in (curve.thresholds, curve.fpr, curve.tpr)), curve.auc)


def entropy(pd_count, n):
    """Binary entropy in bits of count arrays, vectorized, with masks for both
    n = 0 and p = 0. 0 log 0 is 0."""
    pd_count = np.asarray(pd_count, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n > 0, pd_count / np.where(n > 0, n, 1.0), 0.0)
        q = 1.0 - p
        term_p = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
        term_q = np.where(q > 0, -q * np.log2(np.where(q > 0, q, 1.0)), 0.0)
    return term_p + term_q


def info_gain(parent, left, right) -> float:
    """Entropy reduction for splitting parent counts into left and right.

    Counts are (healthy, pd) pairs; children must add up to the parent.
    """
    ph, pp = parent
    lh, lp = left
    rh, rp = right
    if lh + rh != ph or lp + rp != pp:
        raise ValueError("child counts do not sum to the parent counts")
    n = ph + pp
    nl = lh + lp
    nr = rh + rp
    if n == 0:
        return 0.0
    gain = entropy(pp, n)
    if nl:
        gain = gain - (nl / n) * entropy(lp, nl)
    if nr:
        gain = gain - (nr / n) * entropy(rp, nr)
    return float(gain)


def _best_split_for_feature(values, is_pd, parent_pd, parent_entropy):
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = is_pd[order]
    change = np.nonzero(sv[1:] != sv[:-1])[0]
    if change.size == 0:
        return None
    n = len(sv)
    cum_pd = np.cumsum(sy)
    left_n = change + 1
    left_pd = cum_pd[change]
    right_n = n - left_n
    right_pd = parent_pd - left_pd
    gains = (parent_entropy
             - (left_n / n) * entropy(left_pd, left_n)
             - (right_n / n) * entropy(right_pd, right_n))
    j = int(np.argmax(gains))
    lo, hi = sv[change[j]], sv[change[j] + 1]
    thr = 0.5 * (lo + hi)
    if not lo < thr <= hi:  # adjacent doubles: the midpoint rounds to lo
        thr = hi
    return float(gains[j]), float(thr)


def entropy_tree_grow(X, y, k: int, stream) -> DecisionTree:
    """tree_grow as it was before split scores came from the c * log2(c)
    table: one split search per drawn feature, scored with the entropy
    formula above, where only a strictly larger gain replaces the best so
    far and a node stays a leaf unless the best float gain is above 0.
    Patched in for tree_grow, it grows the forests of the digests taken
    before that change, bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    m = X.shape[1]
    feature, threshold, counts = [], [], []

    stack = [np.arange(len(y))]
    while stack:
        idx = stack.pop()
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        is_pd = (y[idx] == PD).astype(np.int64)
        n = len(idx)
        pd_count = int(is_pd.sum())
        counts.append((n - pd_count, pd_count))
        if n < 2 or pd_count == 0 or pd_count == n:
            continue
        parent_entropy = float(entropy(pd_count, n))
        best = None
        for f in _draw_features(stream, m, k):
            cand = _best_split_for_feature(X[idx, f], is_pd, pd_count, parent_entropy)
            if cand is None:
                continue
            gain, thr = cand
            if best is None or gain > best[0]:
                best = (gain, f, thr)
        if best is None or best[0] <= 0.0:
            continue
        _, f, thr = best
        go_left = X[idx, f] < thr
        feature[node] = f
        threshold[node] = thr
        stack.append(idx[~go_left])
        stack.append(idx[go_left])
    return DecisionTree(np.array(feature, dtype=np.int64), np.array(threshold),
                        np.array(counts, dtype=np.int64))


def xlog2x(size: int) -> list:
    """c * log2(c) for c = 0, ..., size, one math.log2 call per count; 0 at 0."""
    return [c * math.log2(c) if c > 0 else 0.0 for c in range(size + 1)]


def _best_table_split(values, labels, parent_pd, T):
    """(score, threshold, left size, left PD count) of one feature's best
    split, one record at a time in sorted order, or None without a split.
    The score is T[pl] + T[nl - pl] + T[pr] + T[nr - pr] - T[nl] - T[nr] in
    Python floats, added left to right; the lowest threshold wins a tie."""
    pairs = sorted(zip(values, labels), key=lambda pair: pair[0])
    n = len(pairs)
    best = None
    pl = 0
    for nl in range(1, n):
        pl += pairs[nl - 1][1] == PD
        lo, hi = pairs[nl - 1][0], pairs[nl][0]
        if lo == hi:
            continue
        nr, pr = n - nl, parent_pd - pl
        score = T[pl] + T[nl - pl] + T[pr] + T[nr - pr] - T[nl] - T[nr]
        if best is None or score > best[0]:
            thr = 0.5 * (lo + hi)
            if not lo < thr <= hi:  # adjacent doubles: the midpoint rounds to lo
                thr = hi
            best = (score, thr, nl, pl)
    return best


def reference_tree_grow(X, y, k: int, stream) -> tuple:
    """tree_grow with one split search per drawn feature in plain Python,
    scored from this file's own c * log2(c) table: the best score of each
    feature in draw order, where only a strictly larger score replaces the
    best so far. A node stays a leaf when the best split has zero gain,
    which holds when its left side's PD share is the node's (pl * n == p *
    nl), tested in integers. Records go left where value < threshold.
    Returns (tree, left, right): left and right hold each node's children
    as the grower records them when it makes the nodes, -1 at a leaf."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    m = X.shape[1]
    T = xlog2x(len(y))
    feature, threshold, left, right, counts = [], [], [], [], []

    stack = [(list(range(len(y))), -1, False)]
    while stack:
        idx, parent, is_right = stack.pop()
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        if parent >= 0:
            (right if is_right else left)[parent] = node
        labels = [int(y[i]) for i in idx]
        n = len(idx)
        pd_count = labels.count(PD)
        counts.append((n - pd_count, pd_count))
        if n < 2 or pd_count == 0 or pd_count == n:
            continue
        best = None
        for f in _draw_features(stream, m, k):
            cand = _best_table_split([float(X[i, f]) for i in idx], labels, pd_count, T)
            if cand is not None and (best is None or cand[0] > best[0]):
                best = (*cand, f)
        if best is None:
            continue
        _, thr, nl, pl, f = best
        if pl * n == pd_count * nl:
            continue
        feature[node] = f
        threshold[node] = thr
        stack.append(([i for i in idx if not X[i, f] < thr], node, True))
        stack.append(([i for i in idx if X[i, f] < thr], node, False))
    tree = DecisionTree(np.array(feature, dtype=np.int64), np.array(threshold),
                        np.array(counts, dtype=np.int64))
    return tree, left, right


def reference_shuffle(stream, items: list) -> None:
    """Fisher-Yates in place, one below() draw per index from the last down."""
    for i in range(len(items) - 1, 0, -1):
        j = stream.below(i + 1)
        items[i], items[j] = items[j], items[i]


def reference_mlp_train(train, config, seed):
    """Online backprop written with np.append, np.outer and v -= lr * g, on
    the same streams as mlp_train: (w_hidden, w_output, epoch_mse)."""
    feats = train.features
    n, m = feats.shape
    h = config.hidden_units
    stream = derive_stream(seed, "mlp")
    w1 = np.array([[stream.uniform() - 0.5 for _ in range(m + 1)] for _ in range(h)])
    w2 = np.array([[stream.uniform() - 0.5 for _ in range(h + 1)] for _ in range(2)])
    xb = np.hstack([feats, np.ones((n, 1))])
    targets = np.zeros((n, 2))
    targets[np.arange(n), (train.labels == PD).astype(int)] = 1.0
    v1, v2 = np.zeros_like(w1), np.zeros_like(w2)
    lr, mom = config.learning_rate, config.momentum
    epoch_mse = []
    order = list(range(n))
    for _ in range(config.epochs):
        reference_shuffle(stream, order)
        sq_sum = 0.0
        for i in order:
            a1 = 1.0 / (1.0 + np.exp(-(w1 @ xb[i])))
            a1b = np.append(a1, 1.0)
            out = 1.0 / (1.0 + np.exp(-(w2 @ a1b)))
            err = out - targets[i]
            sq_sum += 2.0 * (0.5 * float(err @ err))
            d2 = err * out * (1.0 - out)
            g2 = np.outer(d2, a1b)
            d1 = (w2[:, :h].T @ d2) * a1 * (1.0 - a1)
            g1 = np.outer(d1, xb[i])
            v1 *= mom
            v1 -= lr * g1
            w1 += v1
            v2 *= mom
            v2 -= lr * g2
            w2 += v2
        epoch_mse.append(sq_sum / n)
    return w1, w2, tuple(epoch_mse)


def reference_step(w1, w2, x, target):
    """One training step with np.matmul and broadcast np.multiply, in the
    step's own signs and order of operations: (nerr, g1, g2), the negated
    output error and the negated gradients. x ends with its bias 1.0."""
    h = w1.shape[0]
    na1 = -1.0 / (1.0 + np.exp(np.matmul(w1, -x)))
    na1b = np.append(na1, -1.0)
    nout = -1.0 / (1.0 + np.exp(np.matmul(w2, na1b)))
    nerr = nout + target
    d2 = (nerr * nout) * (1.0 + nout)
    d1 = (np.matmul(w2[:, :h].T, d2) * na1) * (1.0 + na1)
    return nerr, np.multiply(d1[:, None], x), np.multiply(d2[:, None], na1b)


def reference_mlp_score_batch(model, features):
    """The MLP scorer from before row blocks: both layers as one product over
    the whole batch."""
    a = np.asarray(features, dtype=np.float64)
    with np.errstate(over="ignore"):
        for w in (model.w_hidden, model.w_output):
            x = np.empty((len(a), a.shape[1] + 1))
            np.clip(a, 0.0, 1.0, out=x[:, :-1])
            x[:, -1] = 1.0
            a = x @ w.T
            np.negative(a, out=a)
            np.exp(a, out=a)
            np.add(1.0, a, out=a)
            np.divide(1.0, a, out=a)
    return a[:, 1] / a.sum(axis=1)


def joint_oracle(net, assignment) -> float:
    """P(assignment) of a DiscreteNet, each CPT row found by an independent
    row-index computation."""
    prob = 1.0
    for node, cpt in enumerate(net.cpts):
        pa = net.parents[node]
        if pa:
            idx = np.ravel_multi_index(
                tuple(assignment[q] for q in pa),
                tuple(net.arities[q] for q in pa))
        else:
            idx = 0
        prob *= float(cpt[int(idx), assignment[node]])
    return prob


def record_violations(vector, label) -> list:
    """All (column, message) invariant violations for one feature vector.

    Checks run in schema order so the first entry is the leftmost problem.
    """
    out = []
    vals = {name: float(vector[i]) for i, name in enumerate(FEATURE_NAMES)}
    for name, (lo, hi) in INTEGER_FEATURES.items():
        v = vals[name]
        if not np.isfinite(v) or v != int(v):
            out.append((name, f"{name} must be an integer score, got {v}"))
        elif not lo <= v <= hi:
            out.append((name, f"{name} must lie in [{lo}, {hi}], got {v}"))
    for name in POSITIVE_FEATURES:
        if not vals[name] > 0:
            out.append((name, f"{name} must be > 0 pg/mL, got {vals[name]}"))
    for name in NONNEGATIVE_FEATURES:
        if not vals[name] >= 0:
            out.append((name, f"{name} must be >= 0, got {vals[name]}"))
    # ratio consistency only when the denominators are usable
    if vals["csf_abeta42"] > 0 and vals["csf_ttau"] > 0:
        expected = compute_ratios(vals["csf_abeta42"], vals["csf_ttau"], vals["csf_ptau181"])
        for name, want in zip(RATIO_FEATURES, expected):
            got = vals[name]
            if want == 0:
                ok = got == 0
            else:
                ok = abs(got - want) <= RATIO_REL_TOL * abs(want)
            if not ok:
                out.append((name, f"{name}={got} disagrees with recomputed {want}"))
    if label not in (HEALTHY, PD):
        out.append(("label", f"label must be 0 or 1, got {format_value(label)}"))
    order = {name: i for i, name in enumerate(FEATURE_NAMES + ("label",))}
    out.sort(key=lambda item: order[item[0]])
    return out


def csv_read_blocks(path):
    """data._read_blocks with csv.reader splitting every row, whatever the
    block holds."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            _check_header(next(reader, None))
            rows = ((n, cells) for n, cells in enumerate(reader, start=1) if cells)
            seen_ids = {}
            while block := list(itertools.islice(rows, BLOCK_ROWS)):
                yield _parse_block(block, seen_ids)
    except (UnicodeDecodeError, csv.Error) as err:
        raise UnreadableCsv(f"{path} is not a readable CSV file: {err}") from None


def with_csv_reader(read, path):
    """read(path), for data.ingest_csv or data.validate_file, with its blocks
    read by csv_read_blocks and every row converted by data._parse_row: the
    bulk conversion refuses every block."""
    with (mock.patch.object(data, "_read_blocks", csv_read_blocks),
          mock.patch.object(data, "_body_values", lambda bodies: None)):
        return read(path)


def reference_normal(stream) -> float:
    """Standard normal via Box-Muller from two next_u64 calls."""
    # u1 shifted into (0, 1] so log() is always finite
    u1 = ((stream.next_u64() >> 11) + 1) / 9007199254740992.0
    u2 = (stream.next_u64() >> 11) / 9007199254740992.0
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def reference_truncated_normal(stream, mean, sd, lo, hi, max_rejects=100) -> float:
    """A normal draw in [lo, hi] by rejection; after max_rejects rejections
    the next draw is clamped to the bounds."""
    for _ in range(max_rejects):
        x = mean + sd * reference_normal(stream)
        if lo <= x <= hi:
            return x
    x = mean + sd * reference_normal(stream)
    return min(max(x, lo), hi)


def reference_generate(config, seed) -> Dataset:
    """synth.generate one record and one value at a time, each value drawn,
    rounded or snapped on its own, without its config checks."""
    params = load_params(config.params_path)
    stream = derive_stream(seed, "generate")
    labels = [HEALTHY] * config.n_healthy + [PD] * config.n_pd
    rows = []
    for label in labels:
        values = {}
        for name in RAW_FEATURES:
            p = params.features[name]
            mean, sd = p.at_separation(label, config.separation)
            x = reference_truncated_normal(stream, mean, sd, p.min, p.max)
            if name in INTEGER_FEATURES:
                x = float(min(max(_round_half_up(x), int(p.min)), int(p.max)))
            else:
                x = float(format_value(x))
            values[name] = x
        ratios = compute_ratios(values["csf_abeta42"], values["csf_ttau"],
                                values["csf_ptau181"])
        values.update((name, float(format_value(r))) for name, r in zip(RATIO_FEATURES, ratios))
        rows.append([values[name] for name in FEATURE_NAMES])
    ids = tuple(f"SYN{i:05d}" for i in range(1, len(rows) + 1))
    return Dataset(ids, np.array(rows), labels)


def reference_export_csv(ds, path) -> None:
    """data.export_csv with csv.writer writing one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(data.CSV_COLUMNS)
        for sid, row, label in zip(ds.subject_ids, ds.features, ds.labels):
            writer.writerow([sid, *(format_value(v) for v in row), int(label)])
