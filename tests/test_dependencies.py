"""The runtime needs numpy only.

Importing scipy.optimize alone costs about 49 MiB resident and half a second per
process, so a fresh interpreter that imports every mice module must load no scipy
module, and pyproject.toml must declare numpy as the only runtime dependency.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mice

ROOT = Path(__file__).resolve().parents[1]

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import mice
names = [m.name for m in pkgutil.iter_modules(mice.__path__, "mice.")]
for name in names:
    importlib.import_module(name)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"imported": names, "scipy": scipy}))
"""


def test_fresh_interpreter_imports_every_module_without_scipy():
    env = dict(os.environ)
    src = str(Path(mice.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(out.stdout.splitlines()[-1])
    shipped = {f"mice.{p.stem}" for p in Path(mice.__file__).parent.glob("*.py")} - {"mice.__init__"}
    assert set(result["imported"]) == shipped
    assert result["scipy"] == []


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]]
    assert names == ["numpy"]
