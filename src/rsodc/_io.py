"""CSV and JSON plumbing for the command line: full-precision matrix
round-trips, schema-validated JSON emission, and input diagnostics."""

from __future__ import annotations

import csv
import functools
import importlib.resources
import json
import math
import warnings

import numpy as np

import jsonschema
import referencing


class InputError(Exception):
    """Malformed user input; the CLI maps it to exit code 2."""


def read_matrix_csv(path, header: bool = True) -> np.ndarray:
    """Parse a numeric CSV into an n x p array.

    Reports the offending 1-based row and column on parse failures. The
    header row, when present, is skipped without interpretation. A plain
    numeric file is read by np.loadtxt, in half the time; whatever it
    rejects goes through the csv parser below, which names the cell at
    fault.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns on a file without rows
            X = np.loadtxt(path, delimiter=",", skiprows=int(header), comments=None,
                           ndmin=2, encoding="utf-8")
        if X.size:
            return X
    except (ValueError, OSError, UserWarning):
        pass
    rows = []
    width = None
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        for lineno, cells in enumerate(reader, start=1):
            if not cells or (len(cells) == 1 and cells[0].strip() == ""):
                continue
            if header and lineno == 1:
                continue
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise InputError(
                    f"{path}: row {lineno} has {len(cells)} cells, expected {width}")
            parsed = []
            for colno, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise InputError(
                        f"{path}: non-numeric value {cell!r} at row {lineno}, "
                        f"column {colno}") from None
            rows.append(parsed)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def read_labels_csv(path, header: bool = True) -> np.ndarray:
    """First column of a CSV as an integer label vector."""
    data = read_matrix_csv(path, header=header)
    col = data[:, 0]
    labels = col.astype(int)
    if np.any(labels != col):
        raise InputError(f"{path}: labels must be integers")
    return labels


def write_matrix_csv(path, X, columns, labels=None) -> None:
    """Write rows of X at 17 significant digits, optionally with a label column."""
    rows = np.asarray(X, dtype=float).tolist()
    header = list(columns)
    if labels is not None:
        header.append("label")
        rows = [row + [int(label)] for row, label in zip(rows, labels)]
    write_rows_csv(path, header, rows)


def write_rows_csv(path, header, rows) -> None:
    """Write heterogeneous result rows; floats at full precision."""
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def jsonable(value):
    """Recursively convert arrays and numpy scalars; non-finite floats
    become strings so the emitted JSON stays standard."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biu" or (value.dtype.kind == "f" and np.isfinite(value).all()):
            return value.tolist()  # already plain ints, bools and finite floats
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def load_schema(name: str) -> dict:
    ref = importlib.resources.files("rsodc.schemas").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


# bundled schemas that the output schemas refer to by file name
SHARED_SCHEMAS = ("manifest.schema.json", "fit_outcomes.schema.json")


@functools.cache
def _validator(schema_name: str):
    """A validator for the bundled schema, itself checked once per process.
    A $ref to a shared schema resolves to its bundled file, never to the
    network."""
    schema = load_schema(schema_name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    shared = [] if schema_name in SHARED_SCHEMAS else [
        (name, referencing.Resource.from_contents(_validator(name).schema))
        for name in SHARED_SCHEMAS]
    return cls(schema, registry=referencing.Registry().with_resources(shared))


def _finite_matrix(key: str, value) -> np.ndarray:
    A = _array(key, value)
    if A.ndim != 2 or A.dtype.kind not in "iuf" or not np.isfinite(A).all():
        raise jsonschema.ValidationError(f"{key} is not a 2-d array of finite numbers")
    return A


def _labels(key: str, value) -> np.ndarray:
    L = _array(key, value)
    if (L.ndim != 1 or L.dtype.kind not in "iuf"
            or not np.all(np.isfinite(L) & (L >= 1) & (np.floor(L) == L))):
        raise jsonschema.ValidationError(f"{key} is not a 1-d array of integers >= 1")
    return L


def _array(key: str, value) -> np.ndarray:
    try:
        return np.asarray(value)
    except ValueError as exc:  # ragged nested lists
        raise jsonschema.ValidationError(f"{key}: {exc}") from None


# schema definitions whose payload entries write_json checks with numpy
ARRAY_CHECKS = {"#/$defs/matrix": _finite_matrix, "#/$defs/labels": _labels}


def _dump_array(A: np.ndarray, depth: int) -> str:
    """json.dumps(A.tolist(), indent=2) for a numeric array written depth
    levels into the document. The layout is built once as a %-template, one
    %r per entry: repr is what json writes for a finite float or an int."""
    template = "%r"
    for axis in reversed(range(A.ndim)):
        if A.shape[axis] == 0:
            template = "[]"
            continue
        pad = "\n" + "  " * (depth + axis + 1)
        template = ("[" + pad + ("," + pad).join([template] * A.shape[axis])
                    + "\n" + "  " * (depth + axis) + "]")
    return template % tuple(A.ravel().tolist())


def write_json(path, payload: dict, schema_name: str) -> None:
    """Validate the payload against the bundled schema, then write it.

    A top-level entry whose schema refers to the matrix or labels definition
    is checked as a whole with numpy (a 2-d array of finite numbers; a 1-d
    array of integers >= 1), and jsonschema sees an empty array in its
    place; it validates the rest as before. Checking the arrays entry by
    entry through the schema took 0.3 s for an n = 4000 fit.json.

    The bytes are those of json.dumps(payload, indent=2, sort_keys=True)
    with a final newline. json encodes an indented document in Python, not
    in C, so the checked arrays are written by _dump_array and only the
    rest goes through json.
    """
    validator = _validator(schema_name)
    arrays = {}
    for key, spec in validator.schema.get("properties", {}).items():
        check = ARRAY_CHECKS.get(spec.get("$ref"))
        if check is not None and key in payload:
            arrays[key] = check(key, payload[key])
    payload = jsonable({key: value for key, value in payload.items() if key not in arrays})
    validator.validate(dict(payload, **{key: [] for key in arrays}))
    entries = []
    for key in sorted([*payload, *arrays]):
        if key in arrays:
            text = _dump_array(arrays[key], 1)
        else:
            # a nested document, indented one level; JSON strings hold no raw newline
            text = json.dumps(payload[key], indent=2, sort_keys=True,
                              allow_nan=False).replace("\n", "\n  ")
        entries.append(f"  {json.dumps(key)}: {text}")
    text = "{\n" + ",\n".join(entries) + "\n}" if entries else "{}"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
