"""The benchmark's timing shims name callables of this package by string.

bench/run.py --trace 1 stops when a wrapped name records no calls, so a
rename in the package would first show in a traced benchmark run. This test
reads the WRAPPED table from bench/shims.py without importing it and checks
that every name resolves as the shims look it up.
"""

import ast
import importlib
from pathlib import Path

import pytest

SHIMS = Path(__file__).resolve().parents[1] / "bench" / "shims.py"


def wrapped_names():
    tree = ast.parse(SHIMS.read_text(), filename=str(SHIMS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "WRAPPED"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {SHIMS}")


def test_table_is_nonempty():
    assert len(wrapped_names()) > 0


@pytest.mark.parametrize("module, qual", wrapped_names())
def test_wrapped_name_resolves(module, qual):
    home = importlib.import_module(f"preimage.{module}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        owner = getattr(home, cls_name)
        assert callable(owner.__dict__[attr]), f"{module}.{qual} is not a method"
    else:
        assert callable(getattr(home, qual)), f"{module}.{qual} is not a function"
