"""The README's documented calls run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, f"{README.name} library tour", "exec"), namespace)
    # the tour's closed form and its oracle agree on the same covariances
    estimate, stderr = namespace["oracle"]
    assert abs(namespace["closed"] - estimate) < 0.1
    assert stderr == 0.0  # two rank-one patterns are answered exactly
