"""README's library example runs as documented."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_snippet_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True 6.660533905932737 (33, 20)\n"
