"""The package loads its submodules on first use, and each CLI verb imports
only the modules it runs. Module sets are read in a fresh interpreter: this
test process already holds every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locdim as L

SRC = str(Path(__file__).resolve().parents[1] / "src")

SOLVERS = ("locdim.bounds", "locdim.fields", "locdim.game",
           "locdim.hypergraphs", "locdim.resolving")
NOT_MD = ("locdim.bounds", "locdim.fields", "locdim.game",
          "locdim.hypergraphs")
NOT_LOC = ("locdim.bounds", "locdim.hypergraphs")


def fresh_modules(code: str) -> set[str]:
    """Runs ``code`` in a new interpreter and returns its ``sys.modules``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    script = code + "\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    mods = fresh_modules(
        "import locdim\nassert set(locdim.__all__) <= set(dir(locdim))")
    assert sorted(m for m in mods if m.startswith("locdim.")) == []


def test_names_resolve_to_their_home_module():
    for name in L.__all__:
        obj = getattr(L, name)
        assert obj.__module__.startswith("locdim.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_every_name():
    ns = {}
    exec("from locdim import *", ns)
    assert set(L.__all__) <= set(ns)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        L.no_such_name


@pytest.mark.parametrize("argv, absent", [
    (["graph", "build", "--graph", "petersen", "--stats"],
     SOLVERS + ("dataclasses",)),
    (["graph", "export", "--graph", "FILE", "--format", "dot"],
     SOLVERS + ("dataclasses",)),
    (["md", "exact", "--graph", "FILE"], NOT_MD),
    (["md", "verify", "--graph", "kneser:2:6", "--set", "12,16,23,34,45,56"],
     NOT_MD),
    (["loc", "decide", "--graph", "c5", "--cops", "1"], NOT_LOC),
    (["loc", "number", "--graph", "FILE"], NOT_LOC),
    (["loc", "verify", "--graph", "hs"], NOT_LOC),
    (["bounds", "report", "--family", "polarity", "--q", "3"],
     ("locdim.game", "locdim.resolving", "locdim.hypergraphs")),
])
def test_verb_imports_only_what_it_runs(tmp_path, argv, absent):
    graph = tmp_path / "c6.json"
    graph.write_text(json.dumps(
        {"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]}))
    argv = [str(graph) if a == "FILE" else a for a in argv]
    argv += ["--out", str(tmp_path / "out")]
    mods = fresh_modules(
        f"from locdim.cli import main\nassert main({argv!r}) == 0")
    assert "locdim.cli" in mods
    assert sorted(mods & set(absent)) == []
