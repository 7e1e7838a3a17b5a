from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rsodc._io import (
    InputError,
    jsonable,
    load_schema,
    read_labels_csv,
    read_matrix_csv,
    write_json,
    write_matrix_csv,
    write_rows_csv,
)
from rsodc._svg import PALETTE, scatter_svg


def test_matrix_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 3)) * np.array([1e-7, 1.0, 1e7])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, X, ["a", "b", "c"])
    back = read_matrix_csv(path)
    np.testing.assert_array_equal(back, X)  # 17 significant digits round-trip


def test_matrix_csv_label_column_and_headerless(tmp_path):
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "l.csv"
    write_matrix_csv(path, X, ["a", "b"], labels=np.array([2, 1]))
    text = path.read_text().splitlines()
    assert text[0] == "a,b,label"
    assert text[1].endswith(",2")
    bare = tmp_path / "bare.csv"
    bare.write_text("1,2\n3,4\n")
    np.testing.assert_array_equal(read_matrix_csv(bare, header=False), X)


@pytest.mark.parametrize("labels", [None, np.array([3, 1, 2, 1])])
def test_matrix_csv_bytes_equal_the_csv_module_rows(tmp_path, labels):
    X = np.array([[np.nan, np.inf, -np.inf], [-0.0, 1e-300, -1e-300],
                  [0.1, 2.0 / 3.0, 1e300], [1.0, -2.5, 123456789.0]])
    path = tmp_path / "fast.csv"
    write_matrix_csv(path, X, ["a", "b", "c"], labels=labels)
    header, rows = ["a", "b", "c"], X.tolist()
    if labels is not None:
        header.append("label")
        rows = [row + [int(label)] for row, label in zip(rows, labels)]
    reference = tmp_path / "rows.csv"
    write_rows_csv(reference, header, rows)
    assert path.read_bytes() == reference.read_bytes()
    assert path.read_bytes().count(b"\r\n") == 5


def test_read_matrix_csv_diagnostics(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,x\n")
    with pytest.raises(InputError, match="row 3, column 2"):
        read_matrix_csv(path)
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(InputError, match="row 3"):
        read_matrix_csv(path)
    path.write_text("a,b\n")
    with pytest.raises(InputError, match="no data rows"):
        read_matrix_csv(path)
    with pytest.raises(InputError, match="cannot open"):
        read_matrix_csv(tmp_path / "absent.csv")


def test_read_labels_csv_requires_integers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("label\n1\n2\n2\n")
    np.testing.assert_array_equal(read_labels_csv(path), [1, 2, 2])
    path.write_text("label\n1.5\n2\n")
    with pytest.raises(InputError, match="integers"):
        read_labels_csv(path)


def test_write_rows_csv_formats_floats_fully(tmp_path):
    path = tmp_path / "r.csv"
    write_rows_csv(path, ["name", "value"], [["a", 1 / 3], ["b", 2]])
    lines = path.read_text().splitlines()
    assert lines[0] == "name,value"
    assert lines[1] == f"a,{1 / 3:.17g}"
    assert lines[2] == "b,2"


def test_jsonable_handles_arrays_and_nonfinite():
    payload = {
        "arr": np.arange(3.0),
        "int": np.int64(4),
        "flag": np.bool_(True),
        "bad": [np.inf, -np.inf, np.nan, 1.5],
        "nested": {"x": np.float64(2.5)},
    }
    out = jsonable(payload)
    assert out["arr"] == [0.0, 1.0, 2.0]
    assert out["int"] == 4 and isinstance(out["int"], int)
    assert out["flag"] is True
    assert out["bad"] == ["inf", "-inf", "nan", 1.5]
    assert out["nested"]["x"] == 2.5
    json.dumps(out, allow_nan=False)  # strictly standard JSON


def test_write_json_validates_against_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    payload = {"chosen_k": 3, "k_candidates": [2, 3], "gap": [0.1, 0.2],
               "se": [0.01, 0.01],
               "manifest": {"command": "select-k", "version": "0", "seed": 0,
                            "threads": 1, "config": {}, "inputs": [],
                            "outputs": [], "timings": {}}}
    path = tmp_path / "ok.json"
    write_json(path, payload, "chosen_k.schema.json")
    assert json.loads(path.read_text())["chosen_k"] == 3
    with pytest.raises(jsonschema.ValidationError):
        write_json(tmp_path / "bad.json", {"chosen_k": 3},
                   "chosen_k.schema.json")


def test_all_bundled_schemas_load():
    for name in ("fit", "best_params", "chosen_k", "metrics", "simulate"):
        schema = load_schema(f"{name}.schema.json")
        assert schema["type"] == "object"


def test_scatter_svg_structure(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((12, 2))
    labels = np.array([1] * 6 + [2] * 6)
    path = tmp_path / "plot.svg"
    scatter_svg(pts, labels, path, title="demo")
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    circles = root.findall(".//s:circle", ns)
    assert len(circles) == 12
    fills = {c.get("fill") for c in circles}
    assert len(fills) == 2
    texts = [t.text for t in root.findall(".//s:text", ns)]
    assert "cluster 1" in texts and "cluster 2" in texts
    assert "demo" in texts
    # coordinates stay inside the canvas
    for c in circles:
        assert 0 <= float(c.get("cx")) <= 640
        assert 0 <= float(c.get("cy")) <= 480


def test_scatter_svg_degenerate_inputs(tmp_path):
    path = tmp_path / "one.svg"
    scatter_svg(np.zeros((5, 1)), np.ones(5, dtype=int), path)
    root = ET.fromstring(path.read_text())
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert len(root.findall(".//s:circle", ns)) == 5
    for c in root.findall(".//s:circle", ns):
        assert math.isfinite(float(c.get("cx")))
        assert math.isfinite(float(c.get("cy")))


def _fit_payload(n: int = 6) -> dict:
    rng = np.random.default_rng(0)
    return {"method": "rsodc", "k": 3, "params": {"eta1": 1.0},
            "b_hat": rng.standard_normal((4, 2)), "y_hat": rng.standard_normal((n, 2)),
            "embedding": rng.standard_normal((n, 2)), "labels": np.arange(n) % 3 + 1,
            "objective_trace": np.array([2.0, 1.5]), "converged": True,
            "status": "converged", "outer_iters": 1, "inner_iterations": [3],
            "diagnostics": {"omega": 0.1},
            "manifest": {"command": "fit", "version": "0", "seed": 0, "threads": 1,
                         "config": {}, "inputs": [], "outputs": [], "timings": {}}}


def test_write_json_writes_the_arrays_entry_by_entry(tmp_path):
    payload = _fit_payload()
    path = tmp_path / "fit.json"
    write_json(path, payload, "fit.schema.json")
    written = json.loads(path.read_text())
    for key in ("b_hat", "y_hat", "embedding", "labels"):
        assert written[key] == payload[key].tolist()
    assert path.read_text() == json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n, d", [(1, 3), (5, 1), (1, 1), (4, 2)])
def test_write_json_bytes_equal_the_indented_json_encoder(tmp_path, n, d):
    payload = _fit_payload(n)
    edge = np.array([-0.0, 1e-300, 1e300, 5e-324, -5e-324, 0.1, 1.0 / 3.0, 2.0 ** 60])
    for key in ("y_hat", "embedding"):
        payload[key] = np.resize(edge, (n, d)) * (1.0 if key == "y_hat" else -1.0)
    payload["b_hat"] = np.resize(edge[::-1], (4, d))
    payload["labels"] = np.array([2 ** 62, 2 ** 63 - 1, 1, 7, 3])[:n]
    payload["diagnostics"] = {"zero": -0.0, "huge": 10 ** 30, "tiny": 5e-324,
                              "nested": {"b": [1, {"c": []}], "a": {}}, "text": "a\nbé"}
    path = tmp_path / "fit.json"
    write_json(path, payload, "fit.schema.json")
    expected = json.dumps(jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    assert path.read_bytes() == (expected + "\n").encode("utf-8")
    # an integer-valued float label and a matrix given as nested lists
    payload["labels"] = np.arange(n) + 1.0
    payload["b_hat"] = [[1.5] * d] * 4
    write_json(path, payload, "fit.schema.json")
    expected = json.dumps(jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    assert path.read_bytes() == (expected + "\n").encode("utf-8")


@pytest.mark.parametrize("key, bad", [
    ("y_hat", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 5, np.nan, a)),
    ("embedding", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 0, np.inf, a)),
    ("b_hat", lambda a: a[:, 0]),
    ("b_hat", lambda a: [[1.0], [1.0, 2.0]]),
    ("labels", lambda a: np.concatenate([[0], a[1:]])),
    ("labels", lambda a: a + 0.5),
])
def test_write_json_rejects_bad_fit_arrays(tmp_path, key, bad):
    jsonschema = pytest.importorskip("jsonschema")
    payload = _fit_payload()
    payload[key] = bad(payload[key])
    with pytest.raises(jsonschema.ValidationError):
        write_json(tmp_path / "bad.json", payload, "fit.schema.json")
    del payload[key]
    with pytest.raises(jsonschema.ValidationError):
        write_json(tmp_path / "missing.json", payload, "fit.schema.json")
    assert not (tmp_path / "bad.json").exists()



def _manifest_payloads() -> dict:
    """A smallest accepted payload for each bundled output schema."""
    manifest = _fit_payload()["manifest"]
    return {
        "fit": _fit_payload(),
        "best_params": {"eta1": 1.0, "gamma": 0.01, "rho": 0.1, "mean_kappa": 0.5,
                        "manifest": manifest},
        "chosen_k": {"chosen_k": 3, "k_candidates": [2, 3], "gap": [0.1, 0.2],
                     "se": [0.01, 0.01], "manifest": manifest},
        "metrics": {"ari": 1.0, "manifest": manifest},
        "simulate": {"design": 1, "replicates": 2, "aggregate": [], "failures": 0,
                     "manifest": manifest},
    }


@pytest.mark.parametrize("name", sorted(_manifest_payloads()))
def test_every_output_schema_refuses_a_manifest_without_a_required_field(name, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema_name = f"{name}.schema.json"
    # the manifest is defined once, in its own bundled schema
    assert load_schema(schema_name)["properties"]["manifest"] == {
        "$ref": "manifest.schema.json"}
    assert "manifest" not in load_schema(schema_name).get("$defs", {})
    payload = _manifest_payloads()[name]
    write_json(tmp_path / "ok.json", payload, schema_name)
    required = load_schema("manifest.schema.json")["required"]
    assert "timings" in required
    for field in required:
        manifest = {k: v for k, v in payload["manifest"].items() if k != field}
        with pytest.raises(jsonschema.ValidationError):
            write_json(tmp_path / "bad.json", dict(payload, manifest=manifest),
                       schema_name)
    with pytest.raises(jsonschema.ValidationError):
        write_json(tmp_path / "bad.json",
                   dict(payload, manifest=dict(payload["manifest"], threads=0)),
                   schema_name)
    assert not (tmp_path / "bad.json").exists()


@pytest.mark.parametrize("name", ["best_params", "chosen_k", "simulate"])
@pytest.mark.parametrize("key", ["fits_stalled", "fits_max_outer", "retries",
                                 "b_steps_capped", "inner_capped"])
def test_batch_schemas_take_fit_outcome_counts_as_integers_from_zero(name, key,
                                                                      tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    payload = _manifest_payloads()[name]
    write_json(tmp_path / "ok.json", dict(payload, **{key: 0}), f"{name}.schema.json")
    for bad in (-1, 1.5, "2"):
        with pytest.raises(jsonschema.ValidationError):
            write_json(tmp_path / "bad.json", dict(payload, **{key: bad}),
                       f"{name}.schema.json")

def test_read_matrix_csv_parses_like_the_csv_parser(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((9, 4)) * np.array([1e-300, 1.0, 1e7, 1e300])
    plain = tmp_path / "plain.csv"
    write_matrix_csv(plain, X, ["a", "b", "c", "d"])
    # a quoted cell is legal CSV that np.loadtxt rejects: the csv parser reads it
    quoted = tmp_path / "quoted.csv"
    lines = plain.read_text().splitlines()
    first = lines[1].split(",")
    lines[1] = ",".join([f'"{first[0]}"'] + first[1:])
    quoted.write_text("\n".join(lines) + "\n")
    np.testing.assert_array_equal(read_matrix_csv(plain), X)
    np.testing.assert_array_equal(read_matrix_csv(quoted), X)
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(InputError, match="no data rows"):
        read_matrix_csv(header_only)


def test_scatter_svg_circles_match_the_per_point_formula(tmp_path):
    # each circle as sx and sy place one point, formatted by its own f-string
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((300, 2)) * np.array([1e-3, 1e3])
    labels = rng.integers(1, 13, 300)
    path = tmp_path / "plot.svg"
    scatter_svg(pts, labels, path)
    lines = path.read_text().splitlines()
    x, y = pts[:, 0], pts[:, 1]
    bounds = []
    for v in (x, y):
        lo, hi = float(v.min()), float(v.max())
        bounds.append((lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)))
    (x0, x1), (y0, y1) = bounds
    expect = []
    for xi, yi, li in zip(x, y, labels):
        cx = 64 + (xi - x0) / (x1 - x0) * (640 - 64 - 150)
        cy = 480 - 52 - (yi - y0) / (y1 - y0) * (480 - 40 - 52)
        color = PALETTE[(li - 1) % len(PALETTE)]
        expect.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" '
                      f'fill="{color}" fill-opacity="0.75"/>')
    assert [line for line in lines if line.startswith("<circle")] == expect
