"""The README's Python example runs as printed, and its config loads
and simulates."""

import contextlib
import io
import pathlib
import re

from qndcert import load_config
from qndcert.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # 100k shots at seed 11: certified, with this conditional variance
    assert out.getvalue() == "True 0.5072780983391436\n"


def test_config_example_loads_and_simulates(tmp_path, capsys):
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    config = tmp_path / "readme.json"
    config.write_text(blocks[0])
    assert load_config(config).noise.n55 == 4.0
    assert main(["simulate", "--config", str(config), "--shots", "1000",
                 "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""
