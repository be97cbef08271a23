"""The package's public surface, and what importing it loads."""

import json
import subprocess
import sys
from pathlib import Path

import postsel

# modules that only compile and verify need
_NOT_FOR_SIMULATE = ("scenarios", "constructions", "counting", "classical", "witness")

_PROBE = """
import json, sys
import postsel
after_package = sorted(m for m in sys.modules if m == "numpy" or m.startswith("postsel."))
try:
    postsel.nope
    missing = None
except AttributeError as exc:
    missing = str(exc)
listed = set(postsel.__all__) <= set(dir(postsel))
import postsel.cli
after_cli = sorted(m for m in sys.modules if m.startswith("postsel."))
print(json.dumps([after_package, missing, listed, after_cli]))
"""


def test_every_exported_name_resolves_once():
    assert len(postsel.__all__) == len(set(postsel.__all__))
    missing = [name for name in postsel.__all__ if not hasattr(postsel, name)]
    assert missing == []


def test_import_loads_only_what_a_command_uses():
    src = str(Path(postsel.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{_PROBE}"],
        capture_output=True,
        text=True,
        check=True,
    )
    after_package, missing, listed, after_cli = json.loads(proc.stdout)
    assert after_package == []  # neither numpy nor any submodule
    assert missing == "module 'postsel' has no attribute 'nope'"
    assert listed
    assert "postsel.simulator" in after_cli and "postsel.pathsum" in after_cli
    assert [m for m in after_cli if m.split(".")[1] in _NOT_FOR_SIMULATE] == []
