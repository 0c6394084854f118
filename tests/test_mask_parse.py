"""The custom model's edit text parses straight to masks.

`cli._parse_edit` reads '+0 -3 +5' as a (plus, minus) pair of ints; the
`Edit` oracle in `oracles` composes one single-edge edit per token, the
rightmost first. On seeded token strings (repeated edges, both signs, the
empty string) the two must agree mask for mask, and on bad tokens and
edges outside the host they must raise the same error class and text. The
library itself keeps no edit objects: importing the CLI loads no
`editwalk.edits`.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import parse_edit

from editwalk import cli
from editwalk.errors import EdgeOutOfRange, ValidationError

SEPARATORS = [" ", "  ", "\t", " \n "]


def token_string(rng, m):
    """Up to 12 signed tokens on edges below m (so edges repeat), joined by
    any whitespace; an empty string or a blank one now and then."""
    count = rng.choice([0, 1, 2, 3, 6, 12])
    tokens = [rng.choice("+-") + str(rng.randrange(m)) for _ in range(count)]
    return rng.choice(SEPARATORS).join(tokens) if tokens else rng.choice(["", " ", "\t"])


def outcome(parse, text, m):
    """The masks a parser returns, or the class and text of what it raises."""
    try:
        result = parse(text, m)
    except ValidationError as exc:
        return type(exc), str(exc)
    return result if isinstance(result, tuple) else (result.plus, result.minus)


@pytest.mark.parametrize("m", [1, 3, 8, 64, 70])
def test_masks_equal_the_edit_oracle(m):
    rng = random.Random(m)
    for _ in range(400):
        text = token_string(rng, m)
        assert outcome(cli._parse_edit, text, m) == outcome(parse_edit, text, m), text
    assert cli._parse_edit("", m) == (0, 0)


def test_leftmost_token_wins_on_a_repeated_edge():
    assert cli._parse_edit("+0 -0", 2) == (1, 0)
    assert cli._parse_edit("-0 +0 +1 -1", 2) == (0b10, 0b01)
    assert cli._parse_edit("+0 -3 +5", 6) == (0b100001, 0b1000)


BAD = ["0+", "+", "-", "3", "+-1", "++1", "+1.0", "+x", "*2", "+ 1", "+١", "+2²", "+0x1", "--0"]


@pytest.mark.parametrize("m", [1, 4, 70])
def test_errors_equal_the_edit_oracle(m):
    rng = random.Random(100 + m)
    cases = [*BAD, f"+{m}", f"-{m + 5}", "+99999999999999999999"]
    for _ in range(200):
        tokens = token_string(rng, m).split()
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(cases))
        cases.append(rng.choice(SEPARATORS).join(tokens))
    classes = set()
    for text in cases:
        got = outcome(cli._parse_edit, text, m)
        assert got == outcome(parse_edit, text, m), text
        assert isinstance(got[0], type), text  # every case is refused
        classes.add(got[0])
    assert classes == {ValidationError, EdgeOutOfRange}


def test_config_errors_keep_the_entry_prefix(tmp_path, capsys):
    path = tmp_path / "custom.json"
    for text, message in (("+0 +3", "edge index 3 not in [0, 3)"),
                          ("+0 x", "bad edit token 'x', expected e.g. '+3' or '-0'")):
        edits = [{"edit": "+1", "weight": 0.5}, {"edit": text, "weight": 0.5}]
        path.write_text(json.dumps({"host": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
                                    "model": {"name": "custom", "edits": edits}}))
        assert cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: model.edits[1].edit: {message}\n"


def test_cli_loads_no_edit_module():
    code = ("import sys, editwalk.cli; "
            "mods = [m for n, m in sys.modules.items() if n.split('.')[0] == 'editwalk']; "
            "print('editwalk.edits' in sys.modules, any(hasattr(m, 'Edit') for m in mods))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.split() == ["False", "False"]
    assert "editwalk.edits" not in sys.modules
