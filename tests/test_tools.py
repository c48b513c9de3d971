import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_code_lines_rows_and_total(tmp_path):
    """`tools/code_lines.py`, run from another directory, prints one row per
    `src/kiloland` module and a `total` row that sums both columns."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py")],
        cwd=tmp_path, capture_output=True, text=True, check=True,
    ).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["module", "code", "options"]
    table = {}
    for row in rows:
        name, code, options = row.split()
        table[name] = (int(code), int(options))
    total = table.pop("total")
    modules = sorted(p.name for p in (ROOT / "src" / "kiloland").glob("*.py"))
    assert sorted(table) == modules
    assert all(code > 0 for code, _ in table.values())
    assert total == tuple(sum(col) for col in zip(*table.values()))
