import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).parent.parent / "tools" / "cli_snapshot.py"
_spec = importlib.util.spec_from_file_location("cli_snapshot", _TOOL)
cli_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_snapshot)


def _write(root: Path, files: dict[str, str]) -> str:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def test_compare_passes_byte_identical_directories(tmp_path, capsys):
    files = {"run/out.json": '{"v": 1.0}\n', "commands.txt": "run -> exit 0\n"}
    a, b = _write(tmp_path / "a", files), _write(tmp_path / "b", files)
    assert cli_snapshot.main(["--compare", a, b]) == 0
    assert capsys.readouterr().out == "all 2 files are byte-identical\n"


def test_compare_names_every_difference(tmp_path, capsys):
    a = _write(tmp_path / "a", {
        "commands.txt": "run -> exit 0\n",
        "only_a.txt": "",
        "run/out.csv": "# seed=1\n# p=0.5\nnode,x,y\n0,1.0,a\n1,2.0,b\n",
        "run/out.json": json.dumps({"v": [1.0, 2.0], "same": 3, "gone": 1, "s": "x"}),
        "run/same.json": "[1]\n",
    })
    b = _write(tmp_path / "b", {
        "commands.txt": "run -> exit 4\n",
        "run/out.csv": "# seed=1\n# p=0.4\nnode,x,y\n0,1.0,a\n1,1.5,c\n",
        "run/out.json": json.dumps({"v": [1.0, 2.5, 4.0], "same": 3.0, "s": "y",
                                    "new": True}),
        "run/same.json": "[1]\n",
    })
    assert cli_snapshot.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "commands.txt:",
        "  bytes differ",
        "only_a.txt: only in A",
        "run/out.csv:",
        "  # p=: 0.5 -> 0.4, rel 0.2",
        "  column x: 1 of 2 differ, largest rel 0.25",
        "  column y: 1 of 2 differ, 1 not numbers",
        "run/out.json:",
        "  $.v[1]: 2.0 -> 2.5, rel 0.2",
        "  $.v[2]: only in B",
        "  $.gone: only in A",
        "  $.s: 'x' -> 'y'",
        "  $.new: only in B",
        "4 of 5 files differ",
    ]
