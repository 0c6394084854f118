"""The README's library quickstart runs as written, and the values its
comments state are the values it computes. A quickstart that names a
function the package no longer has fails here."""

from fractions import Fraction
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> str:
    """The first `python` block after the README's quickstart heading."""
    section = README.read_text().split("## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def comment_on(source: str, code: str) -> str:
    """The comment on the quickstart line that starts with `code`."""
    line = next(line for line in source.splitlines() if line.startswith(code))
    return line.split("#", 1)[1].strip()


def test_quickstart_computes_what_its_comments_say():
    source = quickstart()
    ns: dict = {}
    exec(compile(source, f"{README.name} quickstart", "exec"), ns)

    by_value = "ew.eigenvalues_simple(g.m).by_value()"
    assert comment_on(source, by_value) == "[(1.0, 1), (0.5, 2), (0.0, 1)]"
    assert eval(by_value, ns) == [(1.0, 1), (0.5, 2), (0.0, 1)]

    commute = "ew.commute_time(ew.EdgeSet(2, 0b11), ew.EdgeSet(2, 0), g, p)"
    assert comment_on(source, commute) == "Fraction(256, 9)"
    value = eval(commute, ns)
    assert type(value) is Fraction and value == Fraction(256, 9)

    assert comment_on(source, "chambers = ") == "the 37 forest states, as masks"
    assert len(ns["chambers"]) == 37
    assert np.array_equal(ns["masks"], ns["chambers"])
    assert sum(ns["pi"]) == 1 and all(type(x) is Fraction for x in ns["pi"])
