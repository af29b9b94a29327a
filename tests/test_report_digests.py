"""tools/report_digests.py: a dump compared with itself shows nothing,
a moved field is reported with its relative change, values apart from
witnesses, and every output still has the digest committed in
tests/data/report_digests.json."""

import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_of_a_dump_with_itself_reports_nothing(tmp_path, capsys):
    tool = _load_tool()
    outputs = list(tool.outputs())
    names = {name for name, _ in outputs}
    assert len(names) == len(outputs) == 15 + 3 * 11 + 2 + 4 + 8 + 10 + 2
    dump = {name: thunk() for name, thunk in outputs
            if name.startswith("orlicz_dual/seed=1/")}
    assert len(dump) == 11
    path = tmp_path / "a.json"
    tool.write(path, dump)
    assert tool.compare(path, path) == 0
    assert capsys.readouterr().out == ""

    sweep = next(name for name in dump if "sweep[u^2," in name)
    dump[sweep][3] *= 1.0 + 2.0 ** -50
    moved = tmp_path / "b.json"
    tool.write(moved, dump)
    assert tool.main(["compare", str(path), str(moved)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith(f"{sweep}: 1 field(s) moved")
    assert "at [3]" in out[0]
    assert json.loads(path.read_text()).keys() == dump.keys()


def test_compare_reports_values_apart_from_witnesses(tmp_path, capsys):
    tool = _load_tool()
    level = {"n": 1, "lower_bound": 2.0, "converged": True,
             "witness": [[0.5, -0.25]]}
    before = {"const": {"results": {"per_n": [level]}},
              "gap": {"checks": [{"lhs": 1e-16, "holds": True}]}}
    after = json.loads(json.dumps(before))
    after["const"]["results"]["per_n"][0].update(
        lower_bound=2.0 * (1.0 + 2.0 ** -50), witness=[[-0.5, -0.25]])
    after["gap"]["checks"][0]["holds"] = False
    paths = tmp_path / "a.json", tmp_path / "b.json"
    tool.write(paths[0], before)
    tool.write(paths[1], after)
    assert tool.compare(*paths) == 1
    const, gap = capsys.readouterr().out.splitlines()
    assert const.startswith("const: 2 field(s) moved; values: largest "
                            "relative change 8.88e-16 at "
                            ".results.per_n[0].lower_bound")
    assert ("witnesses: largest relative change 2 at "
            ".results.per_n[0].witness[0][0] (0.5 -> -0.5)") in const
    assert "other fields" not in const
    assert gap.startswith("gap: 1 field(s) moved; values: none moved; "
                          "witnesses: none moved; other fields: largest "
                          "relative change inf at .checks[0].holds")


def test_outputs_match_committed_digests():
    # byte identity of every fixed-seed output; a change that moves a value
    # regenerates the file with `report_digests.py digest` and records the
    # lines of `report_digests.py compare` between the two programs
    committed = json.loads(DIGESTS.read_text())
    here = {"numpy": np.__version__, "machine": platform.machine(),
            "python": platform.python_version()}
    other = {k: (committed[k], v) for k, v in here.items()
             if committed[k] != v}
    if other:
        pytest.skip(f"digests were taken elsewhere (file, here): {other}")
    outputs = _load_tool().digests()["outputs"]
    want = committed["outputs"]
    moved = sorted(name for name in want.keys() | outputs.keys()
                   if want.get(name) != outputs.get(name))
    assert not moved, f"{len(moved)} output(s) differ: {moved}"
