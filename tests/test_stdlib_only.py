"""The runtime is pure standard library: every module imports, and one verb
per solver module runs, in an interpreter started with ``-S``, which leaves
site-packages off ``sys.path``."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

VERBS = [
    ["graph", "build", "--graph", "petersen", "--stats"],  # graphs
    ["md", "exact", "--graph", "petersen"],  # resolving
    ["md", "construct", "--graph", "er:3"],  # fields
    ["loc", "decide", "--graph", "c5", "--cops", "2"],  # game
    ["hyper", "gadget", "--k", "2"],  # hypergraphs
    ["bounds", "report", "--family", "moore", "--k", "7"],  # bounds
]

SCRIPT = """
import importlib, json, pkgutil, sys
import locdim
from locdim.cli import main
names = [m.name for m in pkgutil.iter_modules(locdim.__path__, "locdim.")]
for name in names:
    importlib.import_module(name)
codes = [main(argv + ["--out", out]) for argv, out in json.loads(sys.argv[1])]
print(json.dumps({"modules": names, "codes": codes, "path": sys.path}))
"""


def test_runs_without_site_packages(tmp_path):
    jobs = [(argv, str(tmp_path / f"{i}.json")) for i, argv in enumerate(VERBS)]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, json.dumps(jobs)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, check=True)
    res = json.loads(proc.stdout)
    assert not any("-packages" in p for p in res["path"])
    assert sorted(res["modules"]) == sorted(
        f"locdim.{p.stem}" for p in SRC.joinpath("locdim").glob("*.py")
        if p.stem != "__init__")
    assert res["codes"] == [0] * len(VERBS)
    for _, out in jobs:
        assert json.loads(Path(out).read_text())
