"""Golden digests of the default run's artifacts.

The default experiment (seed 42, 184 healthy / 402 pd, all four models) must
write the same bytes as before for every artifact except metadata.json, which
carries the wall-clock timestamp and elapsed time. A change that alters one
of these files on purpose records the old and new digests, and the reason,
in CHANGES.md. The values were taken with Python 3.11.7 and numpy on x86-64
Linux.

The default models, saved and loaded again, must also score a new cohort to
the same bytes: EVALUATE_GOLDEN pins the four `earlypd evaluate --out` files
for a generated 3,000-record cohort (seed 43, the paper's class ratio), so a
change to CSV ingest, model loading or batch scoring that moves any score or
metric shows here.

FOREST_GOLDEN pins the saved forest beyond the default settings: a cohort five
times the default size, and the default cohort with one feature per node,
every feature per node, and no bootstrap. A change to the split search or the
bootstrap draw that moves any node shows here.

The model files first moved when they gained a version and the forest's
trees became columns. UNVERSIONED_GOLDEN and the last FOREST_GOLDEN digest
keep the digests from before that: the models loaded from the new files give
those bytes again through the old layout, so every tree and weight is the
one pinned first.

They moved again at version 2, when the MLP's weight shapes and the Bayes
net's arities left them, since the loader derives the shapes from hidden_units
and the arities from the cuts. V1_MODEL_GOLDEN and the middle FOREST_GOLDEN
digest keep the version 1 files: each model loaded from its current file and
written in the version 1 layout (the version 2 dict with those keys added back
and "version": 1) gives those bytes again, so only the layout moved, and
EVALUATE_GOLDEN shows that no score did.

They moved once more at version 3, when each forest tree left out its left
and right columns, since a tree is saved in preorder: a split node's left
child is the next node, and its right child the node after its left subtree,
so the loader derives both from the feature column. The other three model
files moved only because their "version" did. V2_MODEL_GOLDEN, the first
FOREST_GOLDEN digest of each triple and ENTROPY_GOLDEN's models/forest.json
keep the version 2 files: each model loaded from its version 3 file and
written in the version 2 layout (the version 3 dict with "version": 2 and
each tree's children added back) gives those bytes again.

preprocess.json moved once, when it stopped keeping a copy of the Bayes net's
cuts, which its model file holds. SIDECAR_WITH_CUTS_GOLDEN keeps the digest
from before that: the new sidecar with the model file's discretization added
back gives those bytes again, so only the cuts left it.

The ROC curves moved once, when they came to keep only their corners: the
origin, the last point and each point where the curve turns. A point on the
straight segment between two corners changes neither the drawn curve nor the
AUC, and at 20,000 records such points made most of an evaluate output's
bytes. FULL_ROC_GOLDEN keeps
the digests from before that: with every curve replaced by loop_roc's
unthinned curve on the same labels and scores, the same outputs give those
bytes again, so only the dropped points left them.

The forest's files moved once more when its split scores came from one
c * log2(c) table built with math.log2, in place of an entropy formula whose
np.log2 changes bits with numpy's SIMD level: near-tied candidates rank
differently under the new rounding, and a split of zero gain is no longer
made. ENTROPY_GOLDEN and the last triple of each FOREST_GOLDEN case keep the
digests from before that: with tree_grow replaced by entropy_tree_grow, the
old grower, the same runs give those bytes again, so only the forest moved.
test_forest_file_is_the_same_on_other_hosts shows that the forest file no
longer depends on numpy's SIMD level or the BLAS kernel, and
test_mlp_scores_are_the_same_with_one_blas_thread that the MLP's scores do
not depend on how many threads OpenBLAS runs.

A run's evaluation record moved from evaluations.json, which held only numbers
derived from the scores (confusion counts, measures and ROC corners), to
scores.csv, which holds each record's label and score per model, so report
and roc recompute the rest. scores.csv joined GOLDEN and evaluations.json
left it, but every digest taken of evaluations.json is still asserted:
tests/reference.py keeps its writer, and the run's evaluations written by
it give EVALUATIONS_GOLDEN, FULL_ROC_GOLDEN's and ENTROPY_GOLDEN's
evaluations.json digests again, as v2_model_dict does for the model files.

models/bayesnet.json and run_config.json moved when the Bayes net's settings
lost "strategy", since its features are binned at equal-frequency cuts only.
WITH_STRATEGY_GOLDEN keeps their digests from before that: the new files with
"strategy": "equal_frequency" put back give those bytes again. v2_model_dict
puts the key back too, so the older layouts' digests hold.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import earlypd.forest
from earlypd import metrics
from earlypd.cli import main
from earlypd.data import N_FEATURES, export_csv
from earlypd.jsontext import json_text
from earlypd.mlp import MlpConfig, MlpModel, mlp_score_batch
from earlypd.pipeline import (
    PipelineConfig,
    acquire_dataset,
    config_from_dict,
    evaluate_models,
    load_model_file,
    prepare_splits,
    run_experiment,
    save_model_file,
    train_models,
    write_artifacts,
)
from earlypd.preprocess import normalize_apply
from earlypd.synth import GenerateConfig, generate

from reference import (
    entropy_tree_grow,
    evaluations_json_text,
    loop_roc,
    node_list_forest_text,
    v1_model_dict,
    v2_model_dict,
)

GOLDEN = {
    "cohort.csv": "b3065d07230e50b4e930f92b2c4346ba3527760588f55a65844d83350ab286d3",
    "models/bayesnet.json": "a994470a2f6213e635244db662aaac6255347c202e1b78616d2048dc9a182d83",
    "models/boostlr.json": "a99d5cf342b254e5a8bf715082ef87efbffa346de437c02f69c07a866ddf7dc0",
    "models/forest.json": "c916ffa97e4de42a4960a1c009d44ac19d59f989256d3f8611cc8c320fc98f44",
    "models/mlp.json": "75c369c29a9a24413315243bd96121641411be45059f2df4dbd9987146017321",
    "preprocess.json": "a19a5e508d3559f6499ad99babc8a9ea8af79e48b228082c0a522bdd1e0e6dc1",
    "report.csv": "a05bb5c9cac7bd126e6401308c80fb1d3d8e368f4a0319ab86f3b7a83ad5ee61",
    "report.txt": "78ccc139a672cbd9c75729d9c991702ea530bb0a3d9aaa41915656c16950c091",
    "roc_bayesnet_test.csv": "5b7f21378d0a9cc4d23d5583a7a7b7b1fcf23a60841823e41f107311d89795f9",
    "roc_bayesnet_test.svg": "b768caa89f69dd1a2d867c60b9ffc0ccaf16b6eadd618ad3fe74beab62b5b0a0",
    "roc_boostlr_test.csv": "7d015694d427909882f406b7883cb52ae1a91513f5ef7d8cf0642fea39b46a08",
    "roc_boostlr_test.svg": "0edf5ea1f52e2bd5af1f08f1d5b3bc76b02774c1c5d48a938f884ada1bc7e1df",
    "roc_forest_test.csv": "b861fbe35966f6c5f566899d8f31634b460dcfb0d35530d843f564ab40a9c3b7",
    "roc_forest_test.svg": "2562a6c01bca78f5ba06cbe42ff56ecde8da09ea5318c9c2bd752e78a6822d0c",
    "roc_mlp_test.csv": "54c85cbbcca998ce9e640b4417dc88fa0e86505c365b4eb064eda31710236729",
    "roc_mlp_test.svg": "c1f9922dd86182749a6ffc20bd9be7a1325b5dc7afdc1a6f0a17e47eaec9f3bd",
    "run_config.json": "6dd9076f46993dd973512d52b1d207b050aee1b082bf6216fc51307f0fe76b2f",
    "scores.csv": "d9269d42233299ff48b217fe1a393665946f5b16b85f4d2b59cb0b450f657a15",
}


def _run_digests(run, folder) -> dict:
    """Digest of each file run writes into folder, metadata.json aside."""
    write_artifacts(run, folder)
    digests = {
        path.relative_to(folder).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in folder.rglob("*") if path.is_file()
    }
    del digests["metadata.json"]
    return digests


def test_default_run_artifact_digests(default_run, tmp_path):
    assert _run_digests(default_run, tmp_path) == GOLDEN


def test_default_run_json_files_are_their_json_text(default_run, tmp_path):
    # the files streamed by write_json and those joined by json_text alike
    write_artifacts(default_run, tmp_path)
    written = sorted(tmp_path.rglob("*.json"))
    assert len(written) == 7  # four models, the sidecar, run_config and metadata
    for path in written:
        assert path.read_bytes() == json_text(json.loads(path.read_bytes())).encode(), path


# evaluations.json, the default run's evaluation record before scores.csv. The
# run's evaluations, written by the reference writer, give these bytes again.
EVALUATIONS_GOLDEN = "ca629cf8c9f45d4b8636f635e13e5bff0338e76c0839cb41ce5627411ac0f8ec"


def test_default_evaluations_give_the_evaluations_file_bytes(default_run):
    assert _sha256(evaluations_json_text(default_run.evaluations)) == EVALUATIONS_GOLDEN


# The model files of version 2, before the forest's trees left out their
# children. Each model loaded from its version 3 file, written in the version 2
# layout, gives these bytes again.
V2_MODEL_GOLDEN = {
    "models/bayesnet.json": "726c60b66a5429a20a1029e32960df83338536d39af55fef09dc3f846fbe35b6",
    "models/boostlr.json": "253c010202349808e55aa453a1ffd150a8b0688dfd6c25f98198f026b461438b",
    "models/forest.json": "11d9da1d4c33f85f95ca6c983f7a135e474bc0f6fb514cc037a5a6b27f1d956a",
    "models/mlp.json": "a14313ad1770988dc74a979f9b38171826aed588dea438947af8c48b6a51002e",
}


def _layout_digests(models, folder, layout) -> dict:
    """Digest of each model saved, loaded and written in an older layout:
    layout is v2_model_dict or v1_model_dict."""
    digests = {}
    for name, model in models.items():
        path = folder / f"{name}.json"
        save_model_file(model, path)
        loaded = load_model_file(path)[1]
        digests[f"models/{name}.json"] = _sha256(json_text(layout(loaded)))
    return digests


def test_version_3_models_give_the_version_2_bytes(default_run, tmp_path):
    assert _layout_digests(default_run.models, tmp_path, v2_model_dict) == V2_MODEL_GOLDEN


# The model files of version 1, before they left out what the loader derives.
# Each model loaded from its version 3 file, written in the version 1 layout,
# gives these bytes again.
V1_MODEL_GOLDEN = {
    "models/bayesnet.json": "78b7f5d0583cf7248a4584378fdf0cfb867205adf0f5916ae3d792b844b8f3e2",
    "models/boostlr.json": "3228801dbf82caf84bd043c60c4a0046dbab37989b453f9cb63d52af794c1834",
    "models/forest.json": "4d6f4ea4d6ac13b737f3fb4cdd7a59e03576023155274e8124d25c3037ce76b1",
    "models/mlp.json": "37b577ebf4f0b56ae90b856f8b478eed4d35769bc1911aa0dfcafc16422b9323",
}


def test_version_2_models_give_the_version_1_bytes(default_run, tmp_path):
    assert _layout_digests(default_run.models, tmp_path, v1_model_dict) == V1_MODEL_GOLDEN


# The model files' digests before they carried a version and saved each tree
# as columns. Their content has not moved: in the version 1 layout without the
# version, and with the forest's trees written back as node lists, they give
# these bytes again.
UNVERSIONED_GOLDEN = {
    "models/bayesnet.json": "dedb6a2b58cc22182cec9b986faf3a2db486f65faf90c5777e6eaa3c7fb46423",
    "models/boostlr.json": "f384f89fe5fa5b30a2eaeac81475886d7f9f8746354fc590067f5f2960adaa5a",
    "models/forest.json": "c282815234ff2ad69a8a13b6562c8869378a5120a8757c5ebc2c80c7da682dbb",
    "models/mlp.json": "835436a3c8f6a7b4d24e114a4e28c4fc591b0cbdaca6a9ddf762a911972576a5",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _unversioned_digests(folder) -> dict:
    """Digest of each model file in folder, written in the layout from before
    model files had a version."""
    digests = {}
    for name in UNVERSIONED_GOLDEN:
        model = load_model_file(folder / name)[1]
        if name == "models/forest.json":
            # every tree loaded from the columns, written by the node-list writer
            digests[name] = _sha256(node_list_forest_text(model))
        else:
            obj = v1_model_dict(model)
            assert obj.pop("version") == 1
            digests[name] = _sha256(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return digests


def test_default_models_keep_their_unversioned_content(default_run, tmp_path):
    write_artifacts(default_run, tmp_path)
    assert _unversioned_digests(tmp_path) == UNVERSIONED_GOLDEN


# preprocess.json when it also held the Bayes net's cuts
SIDECAR_WITH_CUTS_GOLDEN = "041ccd6a78fa6c5b3090a5025e4b4f62c40b95051a52b1f13fff52ae6fe81bee"


def test_default_sidecar_lost_only_the_cuts(default_run, tmp_path):
    write_artifacts(default_run, tmp_path)
    sidecar = json.loads((tmp_path / "preprocess.json").read_text(encoding="utf-8"))
    model = json.loads((tmp_path / "models" / "bayesnet.json").read_text(encoding="utf-8"))
    assert "discretization" not in sidecar
    sidecar["discretization"] = model["discretization"]
    assert _sha256(json_text(sidecar)) == SIDECAR_WITH_CUTS_GOLDEN


# models/bayesnet.json and run_config.json when the Bayes net's settings held
# "strategy", whose default was "equal_frequency"
WITH_STRATEGY_GOLDEN = {
    "models/bayesnet.json": "3cf3367cf82885320095dcdd31cd27f8ca92a5333352d30eec033c53da33b5e4",
    "run_config.json": "4b6cfcf596c09d196219cc6b0e8efa787381a2a54f61db88aded3665274bcb3e",
}


def test_default_bayesnet_settings_lost_only_the_strategy(default_run, tmp_path):
    write_artifacts(default_run, tmp_path)
    model = json.loads((tmp_path / "models" / "bayesnet.json").read_text(encoding="utf-8"))
    config = json.loads((tmp_path / "run_config.json").read_text(encoding="utf-8"))
    assert "strategy" not in model and "strategy" not in config["bayesnet"]
    model["strategy"] = config["bayesnet"]["strategy"] = "equal_frequency"
    assert {"models/bayesnet.json": _sha256(json_text(model)),
            "run_config.json": _sha256(json_text(config))} == WITH_STRATEGY_GOLDEN


EVALUATE_GOLDEN = {
    "bayesnet": "dd6b6c4210bed7644a2b57cff22fdabf575b395296ee202dce779f9b0d6429c2",
    "boostlr": "0fc6eac9eccd58aeeec4ce1fba870ade342ba5a12bd1238c0072a5498f27e5f1",
    "forest": "e6cd40e3d24744bbee6a0cab73be484c5e24f103db41ac396459a7be72a96290",
    "mlp": "4a3ed8348451939e5df84ae86921770559bbc3132d363552ae31cae49e30e8e5",
}


def _evaluate_digests(run, tmp_path) -> dict:
    """Digest of `earlypd evaluate --out` per model of run, on the 3,000-record cohort."""
    write_artifacts(run, tmp_path)
    cohort = tmp_path / "score.csv"
    export_csv(generate(GenerateConfig(n_healthy=942, n_pd=2058), 43), cohort)
    digests = {}
    for model in EVALUATE_GOLDEN:
        out = tmp_path / f"evaluate_{model}.json"
        assert main(["evaluate", "--model", str(tmp_path / "models" / f"{model}.json"),
                     "--input", str(cohort), "--preprocess", str(tmp_path / "preprocess.json"),
                     "--out", str(out)]) == 0
        digests[model] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_saved_models_score_digests(default_run, tmp_path, capsys):
    assert _evaluate_digests(default_run, tmp_path) == EVALUATE_GOLDEN
    capsys.readouterr()


# The digests from before ROC curves kept only their corners: the run's
# files, and (keyed by model) the evaluate outputs.
FULL_ROC_GOLDEN = {
    "evaluations.json": "a5021ebaeb8052e1c4df22a598cb70e364eb14308f5908fb9d6b9cf313e37b61",
    "roc_bayesnet_test.csv": "ec85d78dc2004dd9602dc9938ebac79d779bf67f5f30e53c15598bb711165fab",
    "roc_bayesnet_test.svg": "8659eab69b36e21bd9912b5350e5119cf88de3d4f649b16f0e12d99ba2795f74",
    "roc_boostlr_test.csv": "80856e200587c9facaee2941e2acdca2eee21c7a797421ef3723683cc7b04154",
    "roc_boostlr_test.svg": "5a31a7e0cb37d821b6ba622ae9dd9bd0f972cc9c8074f3b9ca2a8cd220fe89ca",
    "roc_forest_test.csv": "9cce6f0e741579abd963658bd39ac74c1333ee84626c30d28f74392004883c7c",
    "roc_forest_test.svg": "d623b1f4e70ead86269de2d5c2abf3b15f6fb4cc5a1850934fb8872d1a2efd4b",
    "roc_mlp_test.csv": "6a27425f1ca2aaea9c27d64caccb00047a684301d1b8a4156c4be8c82bcbd8e6",
    "roc_mlp_test.svg": "67ff7e547eecae248998c77a1d92888da54d404e4e7f5c80fbd9d083beef3827",
    "bayesnet": "d5b241aa4e4c40435044140a5abae1657b0b3944d8d25cca7967bc20817c1e98",
    "boostlr": "3fd677773917564cca7e0df6550182b76b66411378a79a8ec7c154d3fd10b74d",
    "forest": "718f38fafaf61ad9f939034c6a5400cf6d0c555c74f0a885aae53f4835b82e6b",
    "mlp": "e6bd53ec36b4d99f92b7ec80c60c21ae997f598461085111860a4a4fdfc6f2b3",
}


def _full_roc_digests(run, tmp_path) -> dict:
    """FULL_ROC_GOLDEN's digests of run, taken with metrics.roc patched to
    loop_roc: its scores evaluated again, every curve is the unthinned one."""
    labels = {"training": run.train.labels, "testing": run.test.labels}
    full = replace(run, evaluations=evaluate_models(labels, run.scores))
    write_artifacts(full, tmp_path / "run")
    digests = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
               for name in FULL_ROC_GOLDEN if name.startswith("roc_")}
    digests["evaluations.json"] = _sha256(evaluations_json_text(full.evaluations))
    digests.update(_evaluate_digests(full, tmp_path / "evaluate"))
    return digests


def test_curves_moved_only_by_keeping_corners(default_run, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(metrics, "roc", loop_roc)
    digests = _full_roc_digests(default_run, tmp_path)
    capsys.readouterr()
    assert digests == FULL_ROC_GOLDEN


# The forest's digests from before split scores came from the c * log2(c)
# table, under the name of the dict that held each one. The default run with
# its forest grown by entropy_tree_grow gives them again, and every other
# digest of those dicts. evaluations.json was in GOLDEN then; scores.csv,
# which came later, is pinned here for that run too.
ENTROPY_GOLDEN = {
    "GOLDEN": {
        "evaluations.json": "85be2fe035020dd0a54c925b5c3111cc445c5ff23a7393227c26bf36ca2ed29f",
        "scores.csv": "9ef415417894421609a718a6598b24bf466f2755cb7ded1b5c9f03b0442281d4",
        "models/forest.json": "0e267a9dbe359d87f9236397c40d1c6558552972364ca8fd937da36830aa61d5",
        "report.csv": "846fa1211e8fc60767ff62625c89956325f4cb15fc4085dd5978145fed28f7df",
        "roc_forest_test.csv": "39ba6e50fcbcd616d7ff1b3207909617005c0537932fbcb3a5ec2be30b4f589d",
        "roc_forest_test.svg": "59ee05e1eed67f5b8decead6542810c71ff0adfd9f539fa48cf9af039699d037",
    },
    "EVALUATE_GOLDEN": {
        "forest": "e53dc086ee6c06caa9e2cd68acba37cba61a8ce0ede038bf02c48c803fdef738",
    },
    "V1_MODEL_GOLDEN": {
        "models/forest.json": "4dbcd1c0d9cfd99d1367587d084ced2c6d6588a4028d6c1621d891151d2a016d",
    },
    "UNVERSIONED_GOLDEN": {
        "models/forest.json": "d4ac3ed966e025e3f1cbfebc0ccf26d876ae207cacb5f73ffbccf2f1155d9b2b",
    },
    "FULL_ROC_GOLDEN": {
        "evaluations.json": "746afa0ae8f107fe12bea916c523dbe39fa0db91fe3ae877680c74b54f4ca4f1",
        "roc_forest_test.csv": "c36b6c479e398bf52465b426ac589ee7b3c016df6aad8988229b5fc6659f2838",
        "roc_forest_test.svg": "f5e840227ff374f4b5b21b9dc761026957289a2991d5caae0fe8ef27e9e74acd",
        "forest": "164abe1a97ad217deb1857d9e644f1e6eca6305a38683676cdab4877cbb5f5cb",
    },
}


def test_forest_moved_only_by_its_split_score(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(earlypd.forest, "tree_grow", entropy_tree_grow)
    run = run_experiment(PipelineConfig())
    digests = {
        # with the forest file in the version 2 layout these were taken in
        "GOLDEN": {**_run_digests(run, tmp_path / "run"),
                   **_layout_digests({"forest": run.models["forest"]}, tmp_path, v2_model_dict),
                   "evaluations.json": _sha256(evaluations_json_text(run.evaluations))},
        "EVALUATE_GOLDEN": _evaluate_digests(run, tmp_path / "evaluate"),
        "V1_MODEL_GOLDEN": _layout_digests(run.models, tmp_path, v1_model_dict),
        "UNVERSIONED_GOLDEN": _unversioned_digests(tmp_path / "run"),
    }
    monkeypatch.setattr(metrics, "roc", loop_roc)
    digests["FULL_ROC_GOLDEN"] = _full_roc_digests(run, tmp_path / "full")
    capsys.readouterr()
    now = {"GOLDEN": GOLDEN, "EVALUATE_GOLDEN": EVALUATE_GOLDEN,
           "V1_MODEL_GOLDEN": V1_MODEL_GOLDEN, "UNVERSIONED_GOLDEN": UNVERSIONED_GOLDEN,
           "FULL_ROC_GOLDEN": FULL_ROC_GOLDEN}
    assert digests == {name: {**now[name], **before} for name, before in ENTROPY_GOLDEN.items()}


# case: (config overrides, digests, digests with the forest grown by
# entropy_tree_grow, as before split scores came from the c * log2(c) table).
# Each triple holds the digest of the loaded forest written in the version 2
# layout, as V2_MODEL_GOLDEN, and in the version 1 layout, as V1_MODEL_GOLDEN,
# and of its trees written by the node-list writer, as UNVERSIONED_GOLDEN.
FOREST_GOLDEN = {
    "cohort 920/2010, 10 trees": (
        {"generate": {"n_healthy": 920, "n_pd": 2010}, "forest": {"trees": 10}},
        ("e44c7f03b93655399628cc2cff3a86255684b335c2662d83b82974f7e37e564a",
         "325ca8b0a3352b4648be7eff1ac037ad72efb926b26f45539c61f59d344275fc",
         "7ec521b72dccbb59e0e428b67d772e12240fe221b6ef061baac3e93c7cf9e2d4"),
        ("a77d1fa365422b165d834b84ff198ca6c761487f5551c8dc00f4096b2e1953f2",
         "dd9ebc6e05ec9751f95006b8992e554cb7da7a251b3bdfae2f39da708cd798d3",
         "64618e2013bebf10795c4ade0376219d0eda7e083dc88efa9aabe96a1b13e3ea")),
    "feature_subset 1": (
        {"forest": {"feature_subset": 1}},
        ("8a019ffc7346ed8ccfac2cb98e68302460f68563ffcd3d042cdc8fe7ced2f7a2",
         "fea2998f4e03c774038427752368ec8da836948f0478963f8bb63266470411cd",
         "372e25dc269a5e2daaa72d8b6a4e6139d35ac63611c0415be8ffc31f4fdfe2cc"),
        ("d59e705286f254f855249fafcffc1a4559d6ea436185869e804bd8acb408a5ea",
         "33db6b9c5f142aaf368753aaa4f1e5ef19820519e99303945c8db7ac43d43b16",
         "f6a03a531d32b13116df2804e5256cd7b861cfbb50ad00b973215047560520dc")),
    "feature_subset 13": (
        {"forest": {"feature_subset": 13}},
        ("5c85e6c1a3f0ed9e587c91ab04b9a25a6c27d0e6d83da598581a5868f3de7039",
         "629afef5295a37cc0037d338d69f53d370b92411126199e22cf45e532d7ffd5e",
         "80a19112370debff4e0b11d89c41b3d0cd13ebc47c6faaa3e3fe0748af52e87a"),
        ("efd2f391be24d86b1007ddb7fe1f06bc19b57493b65d4e66aa43ffcbd840c04f",
         "e3d15941c526b14da979763a21cbb67720e8d25610660186de5b46bd116beab4",
         "a8ffcb4b5066bc4bf92da8393bc997d41b22b132f12e27601727356fbd6cd717")),
    "no bootstrap": (
        {"forest": {"bootstrap": False}},
        ("a86efb047ec48f72cd04587a7887f27a1eedd1acdb680da896a3f7bb4dc0eeca",
         "6f91ef82a62adb3112996edac4a41801d53de0c7a0bad218a33caef3677e190c",
         "067c2e3d1df2ebbe19b55d69ed56146edd694b5051de125c529576639f340fcd"),
        ("9921fe0595457c0676ed464bc04c5a99e37bc9c2a584d16b830623d46e6bf398",
         "996994fb2e2cb9ac59b2b030dee9d38fd90397b28d2d5983cd71c08a64f15447",
         "081ef6442c9c5b5772d8b408ea8e3bc01c2d0d5cf5f38939459ea830c166542c")),
}


def _forest_digests(overrides, tmp_path) -> tuple:
    """(version 2 layout, version 1 layout, node list) digests of the forest
    trained with overrides."""
    config = config_from_dict({"models": ["forest"], **overrides})
    train, _test, _stats = prepare_splits(config, acquire_dataset(config))
    path = tmp_path / "forest.json"
    save_model_file(train_models(config, train)["forest"], path)
    loaded = load_model_file(path)[1]
    return (_sha256(json_text(v2_model_dict(loaded))),
            _sha256(json_text(v1_model_dict(loaded))), _sha256(node_list_forest_text(loaded)))


@pytest.mark.parametrize("case", FOREST_GOLDEN)
def test_forest_model_digests(case, tmp_path):
    overrides, want, _before = FOREST_GOLDEN[case]
    assert _forest_digests(overrides, tmp_path) == want


@pytest.mark.parametrize("case", FOREST_GOLDEN)
def test_forest_model_digests_before_the_table_scores(case, tmp_path, monkeypatch):
    monkeypatch.setattr(earlypd.forest, "tree_grow", entropy_tree_grow)
    overrides, _want, before = FOREST_GOLDEN[case]
    assert _forest_digests(overrides, tmp_path) == before


# Two other kinds of host, emulated on this one by variables that act only on
# the child process: numpy's own loops without AVX-512, and the BLAS kernels
# an AVX2-only CPU gets. numpy may warn at import where the CPU lacks these
# features, so only the file is checked.
OTHER_HOSTS = {
    "numpy without AVX-512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
    "Haswell BLAS kernels": {"OPENBLAS_CORETYPE": "Haswell"},
}


def _child_env(variables: dict) -> dict:
    """This process's environment with the package's source on PYTHONPATH,
    without OPENBLAS_NUM_THREADS, and with variables set."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": os.pathsep.join(path), **variables}


@pytest.mark.parametrize("host", OTHER_HOSTS)
def test_forest_file_is_the_same_on_other_hosts(host, tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "earlypd", "train", "--seed", "42", "--models", "forest",
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=_child_env(OTHER_HOSTS[host]), timeout=300)
    assert done.returncode == 0, done.stderr
    forest = (tmp_path / "run" / "models" / "forest.json").read_bytes()
    assert hashlib.sha256(forest).hexdigest() == GOLDEN["models/forest.json"]


# Scores the MLP files in the directory argv[1] on its features.npy, to stdout
# as the bytes of each model's scores, one model after another.
SCORE_CHILD = """
import sys
import numpy as np
from earlypd.mlp import mlp_score_batch
from earlypd.pipeline import load_model_file
features = np.load(sys.argv[1] + "/features.npy")
for name in ("default", "wide"):
    model = load_model_file(f"{sys.argv[1]}/{name}.json")[1]
    sys.stdout.buffer.write(mlp_score_batch(model, features).tobytes())
"""


def test_mlp_scores_are_the_same_with_one_blas_thread(default_run, tmp_path):
    # the default network's products stay on one thread, and a 40-unit
    # network's first layer is split across OpenBLAS's pool
    rng = np.random.default_rng(40)
    wide = MlpModel(rng.uniform(-2.0, 2.0, (40, N_FEATURES + 1)),
                    rng.uniform(-2.0, 2.0, (2, 41)), MlpConfig(hidden_units=40),
                    seed=0, epoch_mse=())
    models = {"default": default_run.models["mlp"], "wide": wide}
    for name, model in models.items():
        save_model_file(model, tmp_path / f"{name}.json")
    cohort = generate(GenerateConfig(n_healthy=6000, n_pd=14000), 43)
    features = normalize_apply(cohort, default_run.stats).features
    np.save(tmp_path / "features.npy", features)
    outputs = []
    for variables in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        done = subprocess.run([sys.executable, "-c", SCORE_CHILD, str(tmp_path)],
                              capture_output=True, env=_child_env(variables), timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0] == b"".join(mlp_score_batch(model, features).tobytes()
                                  for model in models.values())
