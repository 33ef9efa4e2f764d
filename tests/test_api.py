"""Public surface: every exported name resolves, and the README's code runs."""

import importlib
import os
import pkgutil
import re

import pytest

import bpiree

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# every module but __main__, which runs the CLI when imported
MODULES = sorted(info.name for info in pkgutil.iter_modules(bpiree.__path__)
                 if info.name != "__main__")


def readme_python_blocks():
    with open(README) as f:
        return re.findall(r"^```python\n(.*?)^```$", f.read(), flags=re.M | re.S)


@pytest.mark.parametrize("name", ["bpiree", *(f"bpiree.{m}" for m in MODULES)])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_readme_has_python_blocks():
    assert readme_python_blocks()


@pytest.mark.parametrize("index", range(len(readme_python_blocks())))
def test_readme_python_block_runs(index, capsys):
    code = readme_python_blocks()[index]
    exec(compile(code, f"README.md python block {index}", "exec"), {})
