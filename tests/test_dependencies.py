"""The package imports numpy and the standard library only, as declared."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mfldproj as mp

SRC = Path(mp.__file__).resolve().parents[1]
ROOT = SRC.parent


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, mfldproj, mfldproj.harness; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_third_party_imports_match_declared_dependencies():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in tomllib.load(f)["project"]["dependencies"]}
    imported = set()
    for path in sorted((SRC / "mfldproj").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"mfldproj"} == declared == {"numpy"}
