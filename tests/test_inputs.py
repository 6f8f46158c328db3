"""Single-value mutations of the four JSON input documents.

Each property replaces one value of a small, valid document, at any depth
and the document itself included, by a value of another JSON type, and
runs every command that reads the document.  The command must end in exit
0, 1 or 2, print at most one JSON line on stderr (exactly one, the error,
when it fails) and never raise out of ``main``: a traceback.  ``run`` makes
no output directory when it rejects its config (exit 1).
"""

import contextlib
import copy
import io
import json
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetkit import EstimationConfig
from facetkit.cli import main
from facetkit.ratings import Fields, checked_json

CSV_ROWS = ["person_id,item_id,rater_id,score"] + [
    f"P{p},{item},{rater},{(p + shift + (item == 'I2')) % 4}" for p in range(6)
    for item in ("I1", "I2") for rater, shift in (("R1", 0), ("R2", 1), ("R3", 2))]

SPEC = {"n_persons": 4, "n_items": 2, "n_raters": 2, "scale": {"min_score": 0, "max_score": 3},
        "seed": 5, "ability": {"mean": 0.0, "sd": 1.0}, "severity": [0.5, -0.5],
        "difficulty": [0.1, -0.1], "thresholds": [-1.0, 0.0, 1.0],
        "pathologies": {"1": {"noise": 0.2, "compression": 0.1}},
        "item_ids": ["I1", "I2"], "rater_ids": ["R1", "R2"]}

STUDIES = [
    {"input": {"csv": "ratings.csv", "scale_min": 0, "scale_max": 3},
     "benchmarks": ["R1"], "alpha_groups": {"g": ["I1", "I2"]},
     "ensembles": [{"name": "E", "members": ["R2", "R3"], "rounding": "half-to-even"}],
     "estimation": {"max_iterations": 50, "residual_tol": 0.01},
     "fit_cuts": [0.7, 1.3], "output_dir": None, "seed": 3},
    {"input": {"simulate": {**SPEC, "severity": {"uniform": [-1, 1]}}}, "seed": 2},
]


def json_type(value):
    # an integer and a fraction count as two types: facetkit takes integers
    # where a fraction would be truncated
    return type(value).__name__


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                    st.floats(-3, 8, allow_nan=False), st.text(max_size=3))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=4)


def paths(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from paths(value, path + (key,))


def mutate(data, doc):
    """``doc`` with the value at one drawn path replaced by a drawn value of
    another JSON type."""
    path = data.draw(st.sampled_from(list(paths(doc))), label="path")
    node = doc
    for key in path:
        node = node[key]
    value = data.draw(VALUES.filter(lambda v: json_type(v) != json_type(node)), label="value")
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def run_main(*argv):
    """The exit code of the command; it must be 0, 1 or 2 with at most one
    JSON line on stderr, the error line if it is not 0."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    json_lines = [line for line in lines if line.startswith("{")]
    assert len(json_lines) <= 1
    if code:
        assert len(lines) == 1 and "error" in json.loads(lines[0])
    return code


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    (root / "ratings.csv").write_text("\n".join(CSV_ROWS) + "\n")
    assert run_main("ingest", root / "ratings.csv", "--out", root / "tensor.json") == 0
    assert run_main("estimate", root / "tensor.json", "--out", root / "estimates.json") == 0
    return root


def written(root, doc):
    path = root / "doc.json"
    path.write_text(json.dumps(doc))
    return path


class TestSingleValueMutations:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_study_config(self, documents, data):
        out = documents / "out"
        shutil.rmtree(out, ignore_errors=True)
        config = written(documents, mutate(data, data.draw(st.sampled_from(STUDIES))))
        if run_main("run", config, "--out", out) == 1:
            assert not out.exists()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_simulation_spec(self, documents, data):
        spec = written(documents, mutate(data, SPEC))
        run_main("simulate", "--spec", spec, "--out", documents / "sim.csv")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_estimates(self, documents, data):
        doc = mutate(data, json.loads((documents / "estimates.json").read_text()))
        estimates, tensor = written(documents, doc), documents / "tensor.json"
        run_main("fit", estimates, tensor, "--out", documents / "fit.csv")
        run_main("report", estimates, tensor, "--out", documents / "report")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tensor(self, documents, data):
        doc = mutate(data, json.loads((documents / "tensor.json").read_text()))
        tensor = written(documents, doc)
        run_main("estimate", tensor, "--out", documents / "est.json")



class TestReader:
    TABLE = Fields({"name": str, "xs": [float, ...]},
                   {"pair": ([int, int], None), "tags": {str: [str, ...]}},
                   labels={"xs": "xs of {name!r}"})

    def read(self, doc):
        return checked_json(doc, self.TABLE, "doc")

    def test_valid_document_is_returned_as_is(self):
        doc = {"name": "a", "xs": [1, 2.5, np.float64(3)], "pair": None, "tags": {"t": ["u"]}}
        assert self.read(doc) is doc

    @pytest.mark.parametrize("doc, message", [
        ([], "doc must be a JSON object with keys 'name', 'xs', got []"),
        ({"name": "a"}, "doc must be a JSON object with keys 'name', 'xs', got {'name': 'a'}"),
        ({"name": "a", "xs": [], "zz": 1, "b": 2}, "unknown doc key(s): b, zz"),
        ({"name": "a", "xs": [1, True]}, "xs of 'a' must be a JSON number, got True"),
        ({"name": "a", "xs": [], "pair": [1]}, "pair must be a JSON list of 2 or null, got [1]"),
        ({"name": "a", "xs": [], "pair": [1, 2.0]}, "pair[1] must be a JSON integer, got 2.0"),
        ({"name": "a", "xs": [], "tags": {"t": "u"}}, "tags['t'] must be a JSON list, got 'u'"),
    ])
    def test_first_mismatch_is_named(self, doc, message):
        with pytest.raises(ValueError) as e:
            self.read(doc)
        assert str(e.value) == message

    def test_fields_of_a_dataclass(self):
        table = Fields.of(EstimationConfig, lambda f: type(f.default), "setting")
        assert table.required == {}
        assert table.optional["max_iterations"] is int
        assert table.optional["convergence_tol"] is float
