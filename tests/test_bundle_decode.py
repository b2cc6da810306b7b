"""Bundle decoding is strict: every field takes only its JSON type, and nothing recurses raw.

The model and pipeline decoders check each field as they build it. These
tests break one field of a trained bundle at a time, by hand, as a
hypothesis property and by walking every field of a small bundle, and check
that loading it raises ``ValidationError`` naming the part and the field,
through the Python API and ``fewboost predict`` alike; and that a bundle
nested deeper than the recursion limit ends in ``ParseError`` or
``ValidationError``, never ``RecursionError``, and a tree that deep saves
no file.
"""

import contextlib
import dataclasses
import functools
import io
import json
import operator
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewboost.booster import Model, load_model, save_model, train
from fewboost.cli import main
from fewboost.dataset import bin_features, write_csv, write_json
from fewboost.errors import ParseError, ValidationError
from fewboost.fsl import default_preset, fsl_preset
from fewboost.params import Params
from fewboost.stacking import (StackingPipeline, fit_stacking, load_pipeline, make_default_zoo,
                               save_pipeline)
from fewboost.synth import make_synthetic_stock
from fewboost.tree import Tree, TreeNode

DEPTH = 1200  # deeper than Python's default recursion limit of 1000


class _Bundle(SimpleNamespace):
    def __repr__(self) -> str:  # keeps a falsifying example short
        return f"<bundle {self.path.name}>"


def _int_slots(doc: dict, prefix: str = "") -> list[tuple]:
    """Every integer or bool field of a bundle document a fault can break.

    Each slot is ``(container, key, kind, fragment)``: ``container[key]`` is
    the field, ``kind`` is ``int`` or ``bool``, and ``fragment`` is what the
    error message must hold, naming the tree, node, feature or level-0 entry
    and the field.
    """
    slots = []
    if doc["format"] == "fewboost-pipeline":
        for k, entry in enumerate(doc["level0"]):
            for key in ("feature_set", "shot_indices"):
                slots += [(entry[key], p, int, f"level-0 entry {k}: field {key!r} entry {p} "
                                                f"must be an integer")
                          for p in range(len(entry[key]))]
            slots += _int_slots(entry["model"], f"level-0 entry {k}: ")
        return slots
    for j, f in enumerate(doc["features"]):
        slots.append((f, "n_real_bins", int,
                      f"{prefix}feature {j}: field 'n_real_bins' must be an integer"))
    for i, tree in enumerate(doc["trees"]):
        slots.append((tree, "num_leaves_used", int,
                      f"{prefix}tree {i}: field 'num_leaves_used' must be an integer"))
        stack, nid = [tree["root"]], 0
        while stack:  # depth-first, left child first: the decoder's node numbering
            nd = stack.pop()
            at = f"{prefix}tree {i}: node {nid}: field"
            for key in ("count", "feature", "missing_bin", "threshold_bin"):
                if key in nd:
                    slots.append((nd, key, int, f"{at} {key!r} must be an integer"))
            if "default_left" in nd:
                slots.append((nd, "default_left", bool, f"{at} 'default_left' must be a bool"))
            for p in range(len(nd.get("left_cats", ()))):
                slots.append((nd["left_cats"], p, int,
                              f"{at} 'left_cats' entry {p} must be an integer"))
            if "leaf" not in nd:
                stack += [nd["right"], nd["left"]]
            nid += 1
    return slots


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """A default- and an fsl-preset model bundle and a pipeline bundle, and a CSV they score."""
    tmp = tmp_path_factory.mktemp("bundles")
    out = {}
    stock = make_synthetic_stock(n_rows=400, seed=0)
    write_csv(stock, tmp / "stock.csv")
    for name, preset in (("default", default_preset), ("fsl", fsl_preset)):
        params = dataclasses.replace(preset(), objective="mse", n_rounds=5, seed=1)
        model = train(bin_features(stock, params.max_bin, params.min_data_in_bin), params)
        save_model(model, tmp / f"{name}.json")
        out[name] = _Bundle(path=tmp / f"{name}.json", data=tmp / "stock.csv",
                            load=load_model, decode=Model.from_dict)
    params = dataclasses.replace(fsl_preset(), objective="mse", n_rounds=10)
    pipeline = fit_stacking(stock, make_default_zoo(stock, 60, seed=0, params=params),
                            {"sell": 0.25, "hold": 0.5, "buy": 0.25})
    save_pipeline(pipeline, tmp / "pipeline.json")
    out["pipeline"] = _Bundle(path=tmp / "pipeline.json", data=tmp / "stock.csv",
                                      load=load_pipeline, decode=StackingPipeline.from_dict)
    for bundle in out.values():
        bundle.doc = json.loads(bundle.path.read_text(encoding="utf-8"))
        bundle.slots = _int_slots(bundle.doc)
    assert any("'left_cats'" in frag for b in out.values() for *_, frag in b.slots)
    return out


def _predict(bundle, path, out) -> tuple[int, str]:
    """``fewboost predict`` with ``path`` as the bundle: its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["predict", "--model", str(path), "--data", str(bundle.data),
                     "--out", str(out)])
    return code, err.getvalue()


def _first_split(doc):
    return next(t["root"] for t in doc["trees"] if "feature" in t["root"])


def _first_leaf(doc):
    node = _first_split(doc)
    while "leaf" not in node:
        node = node["left"]
    return node


def _set(container, key, value):
    container[key] = value


def _level0(doc, k=0):
    return doc["level0"][k]


@pytest.mark.parametrize("kind, break_it, message", [
    ("fsl", lambda d: _set(_first_split(d), "feature", 0.9),
     r"tree \d+: node 0: field 'feature' must be an integer, got 0\.9$"),
    ("fsl", lambda d: _set(_first_split(d), "count", 2.5),
     r"tree \d+: node 0: field 'count' must be an integer, got 2\.5$"),
    ("default", lambda d: _set(_first_split(d), "missing_bin", True),
     r"tree \d+: node 0: field 'missing_bin' must be an integer, got True$"),
    ("default", lambda d: _set(_first_split(d), "default_left", "false"),
     r"tree \d+: node 0: field 'default_left' must be a bool, got 'false'$"),
    ("fsl", lambda d: _set(_first_leaf(d), "leaf", "0.5"),
     r"tree \d+: node \d+: field 'leaf' must be a finite number, got '0\.5'$"),
    ("default", lambda d: _set(d["trees"][0], "num_leaves_used", 1.5),
     r"tree 0: field 'num_leaves_used' must be an integer, got 1\.5$"),
    ("fsl", lambda d: _set(d["features"][0], "n_real_bins", 2.7),
     r"feature 0: field 'n_real_bins' must be an integer, got 2\.7$"),
    ("pipeline", lambda d: _set(d["level0"][0]["feature_set"], 0, 0.9),
     r"level-0 entry 0: field 'feature_set' entry 0 must be an integer, got 0\.9$"),
    ("pipeline", lambda d: _set(d["level0"][1], "shot_indices", ["3"]),
     r"level-0 entry 1: field 'shot_indices' entry 0 must be an integer, got '3'$"),
    ("default", lambda d: _set(d, "objective", "bogus"),
     r"objective 'bogus' is not the params' objective 'mse'$"),
    ("fsl", lambda d: _set(d, "base_score", "0.5"),
     r"^field 'base_score' must be a finite number, got '0\.5'$"),
    ("default", lambda d: _set(d, "base_score", True),
     r"^field 'base_score' must be a finite number, got True$"),
    ("fsl", lambda d: _set(_edges(d), 0, str(_edges(d)[0])),
     r"^feature \d+: field 'edges' entry 0 must be a finite number, got '\S+'$"),
    ("pipeline", lambda d: _set(d["blender"]["weights"], 0, "0.5"),
     r"^blender: field 'weights' entry 0 must be a finite number, got '0\.5'$"),
    ("pipeline", lambda d: _set(d["blender"]["weights"], 1, True),
     r"^blender: field 'weights' entry 1 must be a finite number, got True$"),
    ("pipeline", lambda d: _set(d["blender"]["weights"], 2, -3),
     r"^blender: field 'weights' entry 2 must be >= 0, got -3$"),
    ("pipeline", lambda d: _set(d["blender"], "intercept", "2"),
     r"^blender: field 'intercept' must be a finite number, got '2'$"),
    ("pipeline", lambda d: _set(d["thresholds"], "t_low", False),
     r"^thresholds: field 't_low' must be a finite number, got False$"),
    ("pipeline", lambda d: _set(_level0(d), "winsor_quantiles", ["a", True, None]),
     r"^level-0 entry 0: field 'winsor_quantiles' entry 0 must be a finite number, got 'a'$"),
    ("pipeline", lambda d: _set(_level0(d), "winsor_quantiles", [0.9, 0.1]),
     r"^level-0 entry 0: field 'winsor_quantiles' is \[0\.9, 0\.1\], but quantiles must "
     r"satisfy 0 <= lo_q < hi_q <= 1$"),
    ("default", lambda d: _set(d["features"][0], "name", 7),
     r"^feature 0: field 'name' must be a string, got 7$"),
    ("pipeline", lambda d: _set(_level0(d, 1), "name", 7),
     r"^level-0 entry 1: field 'name' must be a string, got 7$"),
], ids=["feature-0.9", "count-2.5", "missing_bin-true", "default_left-string", "leaf-string",
        "num_leaves_used-1.5", "n_real_bins-2.7", "feature_set-0.9", "shot_indices-string",
        "objective-bogus", "base_score-string", "base_score-true", "edge-string",
        "weight-string", "weight-true", "weight-negative", "intercept-string", "t_low-false",
        "winsor-not-numbers", "winsor-reversed", "feature-name-7", "level0-name-7"])
def test_a_field_of_the_wrong_type_fails_to_load_naming_itself(tmp_path, bundles, kind, break_it,
                                                               message):
    # a lax decoder loads each of these without an error: int() truncates 0.9
    # to feature 0, bool("false") is True, float("0.5") parses a string and
    # float(True) is 1.0, a top-level objective unchecked against the params'
    # own changes what predict returns, NNLS weights below 0 (which
    # fit_blender never writes) blend, and a name of any type is kept
    _assert_fails_to_load(tmp_path, bundles[kind], break_it, message)


def _feature(doc, kind):
    """The first feature of a model bundle ``doc`` of this kind."""
    return next(f for f in doc["features"] if f["kind"] == kind)


def _edges(doc):
    return _feature(doc, "numeric")["edges"]


def _categories(doc):
    return _feature(doc, "categorical")["categories"]


def _disagree(doc):
    """Reverse the categories of one level-0 model's column that an earlier model also reads."""
    first = doc["level0"][0]
    at = next(i for i, f in enumerate(first["model"]["features"]) if f["kind"] == "categorical")
    column = first["feature_set"][at]
    entry = next(e for e in doc["level0"][1:] if column in e["feature_set"])
    entry["model"]["features"][entry["feature_set"].index(column)]["categories"].reverse()


@pytest.mark.parametrize("kind, break_it, message", [
    ("fsl", lambda d: _set(_feature(d, "numeric"), "kind", "ordinal"),
     r"feature \d+: field 'kind' must be 'numeric' or 'categorical', got 'ordinal'$"),
    ("fsl", lambda d: _edges(d).reverse(),
     r"feature \d+: field 'edges' must be strictly increasing, got \S+ after \S+ at entry 1$"),
    ("default", lambda d: _set(_edges(d), 5, _edges(d)[4]),
     r"feature \d+: field 'edges' must be strictly increasing, got (\S+) after \1 at entry 5$"),
    ("default", lambda d: _edges(d).pop(),
     r"feature \d+: field 'edges' must be a list of n_real_bins - 1 = \d+ numbers, got \d+$"),
    ("fsl", lambda d: _feature(d, "categorical")["categories"].pop(),
     r"feature \d+: field 'categories' must hold n_real_bins = 6 names, got 5$"),
    ("fsl", lambda d: _set(_first_split(d), "missing_bin", _first_split(d)["missing_bin"] - 1),
     r"tree \d+: node 0: field 'missing_bin' must be (\d+), feature \d+'s missing bin, "
     r"got (?!\1)\d+$"),
    ("pipeline", lambda d: _set(d["level0"][0]["model"]["features"][0], "kind", "text"),
     r"level-0 entry 0: feature 0: field 'kind' must be 'numeric' or 'categorical', "
     r"got 'text'$"),
    ("fsl", lambda d: _set(_categories(d), 1, _categories(d)[0]),
     r"feature \d+: field 'categories' must hold distinct strings, got 'G\d' at entry 1$"),
    ("fsl", lambda d: _set(_feature(d, "categorical"), "categories", list(range(6))),
     r"feature \d+: field 'categories' must hold distinct strings, got 0 at entry 0$"),
    ("pipeline", _disagree,
     r"^level-0 models disagree on the name, kind or categories of input column \d+ "
     r"\('Group'\)$"),
], ids=["kind", "edges-reversed", "edges-equal", "edges-short", "categories-short",
        "missing_bin", "pipeline-kind", "categories-repeated", "categories-not-strings",
        "pipeline-columns"])
def test_a_binning_field_that_disagrees_fails_to_load_naming_itself(tmp_path, bundles, kind,
                                                                    break_it, message):
    # each of these loaded without an error and moved the scores: a kind
    # nothing bins by, edges searchsorted cannot use, a vocabulary shorter
    # than the bins, a split whose missing rows never reach its missing bin,
    # a vocabulary that codes a file's cells to the wrong bin or to missing,
    # level-0 models that code one column two ways
    _assert_fails_to_load(tmp_path, bundles[kind], break_it, message)


def _assert_fails_to_load(tmp_path, bundle, break_it, message):
    """The bundle broken by ``break_it`` fails to load with ``message``, and predict writes nothing."""
    doc = json.loads(json.dumps(bundle.doc))
    break_it(doc)
    path, out = tmp_path / "bundle.json", tmp_path / "scores.csv"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        bundle.load(path)
    with pytest.raises(ValidationError, match=message):
        bundle.decode(doc)
    code, err = _predict(bundle, path, out)
    prefix = f"error: {path}: "
    assert code == 1 and err.startswith(prefix) and err.count("\n") == 1
    assert re.search(message, err[len(prefix):-1])
    assert not out.exists()


def test_a_categorical_feature_with_no_categories_and_one_bin_loads(bundles):
    # binning gives a categorical column with no values one bin and no names
    doc = json.loads(json.dumps(bundles["fsl"].doc))
    _feature(doc, "categorical").update(categories=[], n_real_bins=1)
    doc["trees"] = [{"num_leaves_used": 1, "root": {"leaf": 0.25, "count": 3}}]
    assert Model.from_dict(doc).to_dict() == doc


@pytest.mark.parametrize("kind, break_it, message", [
    ("fsl", lambda d: _set(d, "version", True), r"^unsupported model version True$"),
    ("default", lambda d: _set(d, "version", 1.0), r"^unsupported model version 1\.0$"),
    ("pipeline", lambda d: d["blender"]["weights"].pop(),
     r"^blender: takes 4 inputs, but the pipeline has 5 level-0 models$"),
    ("pipeline", lambda d: _set(d, "version", 1), r"^unsupported pipeline version 1$"),
    ("pipeline", lambda d: _set(_level0(d, 4)["feature_set"], 8, -1),
     r"^level-0 entry 4: field 'feature_set' must hold 13 column indices >= 0, one per model "
     r"feature, got \[0, 1, 2, 3, 4, 5, 6, 7, -1, 9, 10, 11, 12\]$"),
    ("pipeline", lambda d: _level0(d, 3)["feature_set"].append(8),
     r"^level-0 entry 3: field 'feature_set' must hold 8 column indices >= 0, one per model "
     r"feature, got \[0, 1, 2, 3, 4, 5, 6, 7, 8\]$"),
], ids=["model-version-true", "model-version-1.0", "blender-width", "pipeline-version-1",
        "feature-set-negative", "feature-set-extra"])
def test_a_bundle_that_decodes_but_cannot_score_fails_to_load(tmp_path, bundles, kind, break_it,
                                                               message):
    # each of these loaded: a version that is not the JSON integer 1, a
    # blender for 4 level-0 models over 5 (scoring failed without the file's
    # path), a version-1 pipeline, whose MLP blender format is retired, a
    # feature_set entry of -1 (model 4 read the last column as its feature 8,
    # and predict scored wrongly) and an extra feature_set entry (predict
    # failed on a matrix shape, naming neither the file nor the entry)
    _assert_fails_to_load(tmp_path, bundles[kind], break_it, message)


@pytest.mark.parametrize("kind, params, prefix", [
    ("default", lambda d: d["params"], "params: "),
    ("pipeline", lambda d: _level0(d, 1)["params"], "level-0 entry 1: "),
    ("pipeline", lambda d: _level0(d, 1)["model"]["params"], "level-0 entry 1: params: "),
], ids=["model", "level0", "level0-model"])
def test_bundle_params_without_a_field_fail_to_load_naming_it(tmp_path, bundles, kind, params,
                                                              prefix):
    # a missing field used to take its default: a model saved with another
    # eta loaded with eta 0.1 and scored differently
    bundle = bundles[kind]
    doc = json.loads(json.dumps(bundle.doc))
    assert set(params(doc)) == {f.name for f in dataclasses.fields(Params)}
    for name in list(params(doc)):
        value = params(doc).pop(name)
        with pytest.raises(ValidationError, match=f"^{prefix}missing field {name!r}$"):
            bundle.decode(doc)
        params(doc)[name] = value
    _assert_fails_to_load(tmp_path, bundle, lambda d: params(d).pop("eta"),
                          f"^{prefix}missing field 'eta'$")


_NOT_AN_INTEGER = st.one_of(
    st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer()),
    st.booleans(),
    st.integers(-3, 300).map(str),
)
_NOT_A_BOOL = st.one_of(st.sampled_from(["false", "true", "0", "1", ""]), st.text(max_size=4))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_bundle_with_one_bad_integer_or_bool_field_fails_to_load_naming_it(bundles,
                                                                               tmp_path_factory,
                                                                               data):
    bundle = bundles[data.draw(st.sampled_from(sorted(bundles)), label="bundle")]
    slot = data.draw(st.integers(0, len(bundle.slots) - 1), label="slot")
    container, key, kind, fragment = bundle.slots[slot]
    bad = data.draw(_NOT_A_BOOL if kind is bool else _NOT_AN_INTEGER, label="value")
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    path, out = tmp / "bundle.json", tmp / "scores.csv"
    good = container[key]
    container[key] = bad
    try:
        path.write_text(json.dumps(bundle.doc), encoding="utf-8")
    finally:
        container[key] = good
    with pytest.raises(ValidationError) as exc:
        bundle.load(path)
    assert fragment in str(exc.value)
    code, err = _predict(bundle, path, out)
    assert code == 1
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and fragment in err
    assert not out.exists()
    # the untouched bundle decodes to the same document
    assert bundle.decode(bundle.doc).to_dict() == bundle.doc


def _deep_tree_text(depth: int) -> str:
    """A ``depth``-deep chain of splits as JSON text, built without recursion."""
    split = ('{"feature": 0, "count": 2, "default_left": false, "missing_bin": 2, '
             '"threshold_bin": 0, "right": {"leaf": 0.0, "count": 1}, "left": ')
    chain = split * depth + '{"leaf": 0.0, "count": 1}' + "}" * depth
    return '{"num_leaves_used": %d, "root": %s}' % (depth + 1, chain)


def test_a_bundle_file_nested_too_deeply_fails_with_one_error_line(tmp_path, bundles):
    bundle = bundles["fsl"]
    doc = dict(bundle.doc, trees=["TREE"])
    path, out = tmp_path / "deep.json", tmp_path / "scores.csv"
    path.write_text(json.dumps(doc).replace('"TREE"', _deep_tree_text(DEPTH)), encoding="utf-8")
    with pytest.raises(ParseError, match="JSON nested too deeply$"):
        load_model(path)
    code, err = _predict(bundle, path, out)
    assert code == 1
    assert err == f"error: {path}: JSON nested too deeply\n"
    assert not out.exists()


def test_a_bundle_document_nested_too_deeply_fails_to_decode(bundles):
    # the parsed document is built by a loop, so only the decoder could recurse
    doc = bundles["fsl"].doc
    node = {"leaf": 0.0, "count": 1}
    for _ in range(DEPTH):
        node = {"feature": 0, "count": 2, "default_left": False,
                "missing_bin": doc["features"][0]["n_real_bins"],
                "threshold_bin": 0, "left": node, "right": {"leaf": 0.0, "count": 1}}
    doc = dict(doc, trees=[{"num_leaves_used": DEPTH + 1, "root": node}])
    with pytest.raises(ValidationError, match="^tree 0: .*RecursionError"):
        Model.from_dict(doc)


def _deep_tree(depth: int, missing_bin: int) -> Tree:
    """A ``depth``-deep chain of splits on feature 0, each with a leaf on its right."""
    nodes = []
    for level in range(depth):
        nodes.append(TreeNode(0.0, 2, 0, 0, None, missing_bin, False, 2 * level + 2,
                              2 * level + 1))
        nodes.append(TreeNode(0.0, 1))
    nodes.append(TreeNode(0.0, 1))
    return Tree(nodes=nodes, num_leaves_used=depth + 1)


@pytest.mark.parametrize("kind, save, prefix", [
    ("fsl", save_model, ""),
    ("pipeline", save_pipeline, "level-0 entry 1: "),
])
def test_a_tree_too_deep_for_json_fails_to_save_and_leaves_no_file(tmp_path, bundles, kind,
                                                                    save, prefix):
    bundle = bundles[kind]
    loaded = bundle.load(bundle.path)
    model = loaded if kind == "fsl" else loaded.fits[1].model
    model.trees[2] = _deep_tree(DEPTH, model.mapper[0].missing_bin)
    path = tmp_path / "deep.json"
    with pytest.raises(ValidationError, match=f"^{prefix}tree 2: too deep to write as JSON"):
        save(loaded, path)
    assert not path.exists()


def test_a_document_too_deep_for_json_is_not_written(tmp_path):
    node: dict = {}
    for _ in range(DEPTH):
        node = {"left": node}
    path = tmp_path / "deep.json"
    with pytest.raises(ValidationError, match="nested too deeply to write as JSON$"):
        write_json(path, node)
    assert not path.exists()


def _paths(node, path=()):
    """The path of every value in a JSON document below its root, depth-first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _substitutes(value) -> list:
    """Values of other JSON types for ``value``: a string for a number, a number for a
    string, a bool for either, an object for a list, a list for an object, and null."""
    if type(value) is bool:
        return ["true", 1, None]
    if type(value) in (int, float):
        return [str(value), True, None]
    if type(value) is str:
        return [7, True, None]
    if value is None:
        return ["x", True, {}]
    return [{} if type(value) is list else [], None]


def _allowed(path, bad) -> bool:
    """Whether the format allows ``bad`` in place of the value at ``path``.

    Null is a threshold's "off" (-inf for ``t_low``, +inf for ``t_high``)
    and ``winsor_quantiles``' "no winsorizing". A split node holds
    ``left_cats`` or ``threshold_bin``; the walk changes values, never keys,
    so it never puts one in place of the other.
    """
    return bad is None and path[-1] in ("t_low", "t_high", "winsor_quantiles")


@pytest.fixture(scope="module")
def small_bundles(tmp_path_factory):
    """A model bundle with numeric and categorical splits, and a pipeline bundle, both small."""
    tmp = tmp_path_factory.mktemp("small")
    stock = make_synthetic_stock(n_rows=200, seed=0)
    write_csv(stock, tmp / "stock.csv")
    params = dataclasses.replace(fsl_preset(), objective="mse", n_rounds=3, num_leaves=4,
                                 max_bin=6, seed=1)
    save_model(train(bin_features(stock, params.max_bin, params.min_data_in_bin), params),
               tmp / "model.json")
    params = dataclasses.replace(params, n_rounds=2, num_leaves=3)
    save_pipeline(fit_stacking(stock, make_default_zoo(stock, 20, seed=0, params=params),
                               {"sell": 0.25, "hold": 0.5, "buy": 0.25}), tmp / "pipeline.json")
    out = {"model": _Bundle(path=tmp / "model.json", data=tmp / "stock.csv", load=load_model,
                            decode=Model.from_dict),
           "pipeline": _Bundle(path=tmp / "pipeline.json", data=tmp / "stock.csv",
                               load=load_pipeline, decode=StackingPipeline.from_dict)}
    for bundle in out.values():
        text = bundle.path.read_text(encoding="utf-8")
        assert '"left_cats"' in text and '"threshold_bin"' in text
        bundle.doc = json.loads(text)
    assert any(e["winsor_quantiles"] for e in out["pipeline"].doc["level0"])
    return out


@pytest.mark.parametrize("kind", ["model", "pipeline"])
def test_every_field_of_a_bundle_rejects_a_value_of_another_type(tmp_path, small_bundles, kind):
    # walks every value of the document, not a sample: a field no decoding
    # rule covers loads with the wrong type, and shows up here by its path
    bundle = small_bundles[kind]
    doc = bundle.doc
    loaded, unnamed, tried, predicted = [], [], 0, set()
    for path in _paths(doc):
        *parent, key = path
        container = functools.reduce(operator.getitem, parent, doc)
        good = container[key]
        field = next(k for k in reversed(path) if isinstance(k, str))
        for bad in _substitutes(good):
            if _allowed(path, bad):
                continue
            tried += 1
            container[key] = bad
            try:
                bundle.decode(doc)
                loaded.append((path, bad))
            except ValidationError as exc:
                # a value names its field; an object is named by its place
                # (tree 3: node 5), and a bad format says what it is not
                if not isinstance(good, dict) and field != "format" and field not in str(exc):
                    unnamed.append((path, bad, str(exc)))
                # fewboost predict, once per field name and substitute type
                if (field, type(bad)) not in predicted:
                    predicted.add((field, type(bad)))
                    file, out = tmp_path / "bundle.json", tmp_path / "scores.csv"
                    file.write_text(json.dumps(doc), encoding="utf-8")
                    code, err = _predict(bundle, file, out)
                    assert code == 1 and err.startswith(f"error: {file}: "), (path, bad)
                    assert err.count("\n") == 1 and not out.exists(), (path, bad)
            finally:
                container[key] = good
    assert not loaded, f"{len(loaded)} of {tried} substitutions loaded: {loaded[:10]}"
    assert not unnamed, f"{len(unnamed)} messages do not name their field: {unnamed[:10]}"
    assert bundle.decode(doc).to_dict() == doc
