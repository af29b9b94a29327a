"""tools/report_digests.py: a dump compared with itself shows nothing,
and a moved field is reported with its relative change."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_of_a_dump_with_itself_reports_nothing(tmp_path, capsys):
    tool = _load_tool()
    outputs = list(tool.outputs())
    names = {name for name, _ in outputs}
    assert len(names) == len(outputs) == 15 + 3 * 11 + 2 + 4 + 6
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
