"""Every package function the benchmark's span recorder wraps still exists.

perfbench/spans.py wraps rsodc functions by their module attribute
(`rsodc.solver.kmeans`, `rsodc.model_selection.thin_svd`, ...), so a
renamed or deleted name would otherwise show only in a traced benchmark
run. The recorder is imported from perfbench/ without writing bytecode
there.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import rsodc
import rsodc.cli  # noqa: F401  (install reads rsodc.cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("cli", "fusion_graph", "solver", "admm_scoring", "model_selection", "datagen")


def _spans():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


def test_every_span_site_exists_and_uninstall_restores_it():
    spans = _spans()
    before = {name: dict(vars(getattr(rsodc, name))) for name in MODULES}
    rec = spans.Recorder()
    try:
        spans.install(rec, rsodc)  # AttributeError names a missing site
        wrapped = [(name, attr) for name in MODULES for attr, value in before[name].items()
                   if getattr(getattr(rsodc, name), attr) is not value]
    finally:
        rec.uninstall()
    assert ("solver", "kmeans") in wrapped
    assert ("model_selection", "thin_svd") in wrapped
    assert ("cli", "write_matrix_csv") in wrapped
    for name in MODULES:
        module = getattr(rsodc, name)
        assert all(getattr(module, attr) is value for attr, value in before[name].items())
