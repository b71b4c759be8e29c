"""The package's one public-name list and what importing it loads."""

import os
import re
import subprocess
import sys

import survquack

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_public_names_are_unique_and_resolve():
    assert len(survquack.__all__) == len(set(survquack.__all__))
    for name in survquack.__all__:
        assert hasattr(survquack, name), name


def test_readme_library_map_names_are_public():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Library map\s+```python\s+from survquack import \((.*?)\)", text, re.S)
    assert block is not None, "README lost its library-map import block"
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert names
    assert [n for n in names if n not in survquack.__all__ or not hasattr(survquack, n)] == []


def test_import_leaves_the_cli_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(survquack.__file__)))
    code = "import sys, survquack; print('survquack.cli' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
