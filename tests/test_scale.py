"""The scale harness `tools/scale.py`: every curve runs and writes the row
keys of its committed BENCH_*.json, and --parent-src compares digests with
a child on the package in DIR, refusing one whose `bsbimod` lies elsewhere.
The harness is loaded as it stands, without writing bytecode next to it."""

import importlib.util
import json
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def _scale():
    spec = importlib.util.spec_from_file_location(
        "scale", os.path.join(REPO, "tools", "scale.py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


scale = _scale()


@pytest.mark.parametrize("name", sorted(scale.CURVES))
def test_curve_rows_keep_the_committed_keys(name):
    curve = scale.CURVES[name]
    with open(os.path.join(REPO, curve.out)) as fh:
        committed = json.load(fh)["runs"][0]
    got = scale.measure(name, curve.params[:1], 1)
    assert [row[curve.param] for row in got["runs"]] == [curve.params[0]]
    assert set(got["runs"][0]) == set(committed) - {"parent"}
    assert {"what", "statistic", "src_sha256", "machine"} <= set(got)


def test_parent_src_gives_equal_digests():
    got = scale.measure("enumerate", range(10, 11), 2, parent_src=SRC)
    row, = got["runs"]
    assert set(row["parent"]) == {"enumerate_s"}
    assert got["parent"]["src_sha256"] == got["src_sha256"]


def test_parent_src_refuses_a_bsbimod_elsewhere(tmp_path):
    # DIR holds a bsbimod whose modules are loaded from this checkout's src
    shim = tmp_path / "bsbimod"
    shim.mkdir()
    (shim / "__init__.py").write_text(
        f"__path__[:] = [{os.path.join(SRC, 'bsbimod')!r}]\n")
    with pytest.raises(SystemExit, match="not the one in DIR"):
        scale.measure("enumerate", range(10, 11), 1, parent_src=str(tmp_path))
