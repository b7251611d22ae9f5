"""The error contract: whatever input file it is given, the CLI ends with exit
0, 1 or 2, prints nothing on stderr when it succeeds and one JSON line when it
fails, and never lets an exception or a warning escape. The input kinds
covered so far: a --params file, a run's scores.csv, and each model file and
the preprocess.json sidecar that evaluate reads."""

import contextlib
import copy
import functools
import io
import json
import operator
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earlypd.cli import main
from earlypd.pipeline import MODEL_ORDER, write_artifacts

PACKAGED_PARAMS = json.loads(
    (resources.files("earlypd") / "default_cohort.json").read_text(encoding="utf-8"))


def _key_paths(obj, prefix=()):
    """The key path of every value in a JSON object, nested objects included."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


KEY_PATHS = list(_key_paths(PACKAGED_PARAMS))
# another number: huge, tiny, subnormal, signed zeros, and any other float or int
NUMBERS = st.one_of(
    st.sampled_from([1.7976931348623157e308, -1e308, 1e-300, 1e-310, 5e-324, -5e-324,
                     0.0, -0.0, 10**20, 10**400]),
    st.floats(), st.integers())
WRONG_TYPES = st.sampled_from(["12", "", None, True, False, [], [1.0], {}, {"min": 1.0}])
JSON_MUTATIONS = ["number", "wrong type", "deleted key", "truncated"]


@st.composite
def spoiled_params(draw) -> str:
    """The packaged parameters file with one value changed, one key deleted,
    or its text cut short."""
    text = json.dumps(PACKAGED_PARAMS)
    kind = draw(st.sampled_from(JSON_MUTATIONS))
    if kind == "truncated":
        return text[:draw(st.integers(0, len(text) - 1))]
    obj = copy.deepcopy(PACKAGED_PARAMS)
    *parents, key = draw(st.sampled_from(KEY_PATHS))
    holder = functools.reduce(operator.getitem, parents, obj)
    if kind == "deleted key":
        del holder[key]
    else:
        holder[key] = draw(NUMBERS if kind == "number" else WRONG_TYPES)
    return json.dumps(obj)


def _cli(argv) -> tuple:
    """(exit code, stdout, stderr) of earlypd argv, run in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=spoiled_params())
def test_generate_with_a_spoiled_params_file(workdir, text):
    params, out = workdir / "params.json", workdir / "cohort.csv"
    params.write_text(text, encoding="utf-8")
    out.unlink(missing_ok=True)
    code, _stdout, stderr = _cli(["generate", "--params", str(params), "--n-healthy", "6",
                                  "--n-pd", "6", "--out", str(out)])
    assert code in (0, 1, 2)
    if code == 0:
        assert stderr == ""
        assert _cli(["validate", str(out)]) == (0, "ok\n", "")
    else:
        lines = stderr.splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"] in ("config", "data", "io")
        assert not out.exists()


# another cell: names, numbers that are not scores or labels, CSV syntax
CELLS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e-400", "2", "-1", "0", "1", "0.5",
                     "1.0", "", "x", "training", "testing", "scored", "mlp", "forest", "svm",
                     "subject_id", "label", '"', '"a,b"', "1,2", "\n", "\x00"]),
    st.text(max_size=3))
SCORES_MUTATIONS = ["set a cell", "delete a cell", "truncate", "repeat a header column",
                    "rename a header column"]


@pytest.fixture(scope="module")
def default_scores(default_run, workdir) -> str:
    """The default run's scores.csv; its ids need no quoting."""
    write_artifacts(default_run, workdir / "default_run")
    return (workdir / "default_run" / "scores.csv").read_text(encoding="utf-8")


def _spoil_scores(data, text: str) -> bytes:
    """text with one cell set or deleted, one header column repeated or
    renamed, or its bytes cut short."""
    kind = data.draw(st.sampled_from(SCORES_MUTATIONS), label="mutation")
    if kind == "truncate":
        raw = text.encode()
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    rows = [line.split(",") for line in text.splitlines()]
    row = 0 if "header" in kind else data.draw(st.integers(0, len(rows) - 1), label="row")
    cells = rows[row]
    column = data.draw(st.integers(0, len(cells) - 1), label="column")
    if kind == "delete a cell":
        del cells[column]
    elif kind == "repeat a header column":
        cells.insert(column, cells[column])
    else:
        cells[column] = data.draw(CELLS, label="cell")
    return ("\n".join(map(",".join, rows)) + "\n").encode()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_report_and_roc_with_a_spoiled_scores_file(workdir, default_scores, data):
    scores = workdir / "scores.csv"
    scores.write_bytes(_spoil_scores(data, default_scores))
    for argv in (["report", "--scores", str(scores)],
                 ["roc", "--scores", str(scores), "--model", "mlp", "--format", "svg"]):
        code, stdout, stderr = _cli(argv)
        assert code in (0, 1, 2)
        if code == 0:
            assert stderr == "" and stdout
        else:
            lines = stderr.splitlines()
            assert len(lines) == 1, lines
            assert json.loads(lines[0])["error"] in ("config", "data", "io")


# a small train run, so that each evaluate of it takes a few milliseconds
TRAIN_CONFIG = {"generate": {"n_healthy": 60, "n_pd": 120}, "mlp": {"epochs": 20},
                "forest": {"trees": 5}}


@pytest.fixture(scope="module")
def small_run(workdir) -> Path:
    config, out = workdir / "train_config.json", workdir / "small_run"
    config.write_text(json.dumps(TRAIN_CONFIG), encoding="utf-8")
    assert _cli(["train", "--config", str(config), "--out", str(out)])[0] == 0
    return out


def _spoil_json(data, obj) -> str:
    """The JSON text of obj with one value set to another number or a wrong
    type, one key or list item deleted, or the text cut short. The value is
    found by going down from the top, into objects and lists, until a draw
    stops there."""
    text = json.dumps(obj)
    kind = data.draw(st.sampled_from(JSON_MUTATIONS), label="mutation")
    if kind == "truncated":
        return text[:data.draw(st.integers(0, len(text) - 1), label="length")]
    obj = copy.deepcopy(obj)
    holder, key = obj, data.draw(st.sampled_from(sorted(obj)), label="key")
    while (isinstance(holder[key], (dict, list)) and holder[key]
           and data.draw(st.booleans(), label="deeper")):
        holder = holder[key]
        key = data.draw(st.sampled_from(sorted(holder)) if isinstance(holder, dict)
                        else st.integers(0, len(holder) - 1), label="key")
    if kind == "deleted key":
        del holder[key]
    else:
        holder[key] = data.draw(NUMBERS if kind == "number" else WRONG_TYPES, label="value")
    return json.dumps(obj)


@pytest.mark.parametrize("spoiled", [f"models/{m}.json" for m in MODEL_ORDER]
                         + ["preprocess.json"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_evaluate_with_a_spoiled_model_or_sidecar(workdir, small_run, spoiled, data):
    spoilt = workdir / "spoiled.json"
    original = json.loads((small_run / spoiled).read_text(encoding="utf-8"))
    spoilt.write_text(_spoil_json(data, original), encoding="utf-8")
    if spoiled == "preprocess.json":
        name = data.draw(st.sampled_from(MODEL_ORDER), label="model")
        model, sidecar = small_run / "models" / f"{name}.json", spoilt
    else:
        model, sidecar = spoilt, small_run / "preprocess.json"
    code, stdout, stderr = _cli(["evaluate", "--model", str(model),
                                 "--input", str(small_run / "cohort.csv"),
                                 "--preprocess", str(sidecar)])
    assert code in (0, 1, 2)
    if code == 0:
        assert stderr == "" and json.loads(stdout)["records"] == 180
    else:
        lines = stderr.splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["error"] in ("config", "data", "io")
