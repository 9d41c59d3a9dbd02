import re
from pathlib import Path

from rmrll.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs_and_crossover_matches(capsys):
    # the library example runs as shown, and the crossover line is what the CLI prints
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    (shown,) = re.findall(r"^# -> (.*)$", text, re.MULTILINE)
    assert main(["crossover", "--d", "1"]) == 0
    printed = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert shown.split(", ") == printed
