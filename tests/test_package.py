import importlib

import pytest

import convcode
from tests.conftest import run_fresh


def test_every_public_name_is_its_home_modules_object():
    for name, home in convcode._HOME.items():
        module = importlib.import_module(f"convcode.{home}")
        assert getattr(convcode, name) is getattr(module, name), name


def test_star_import_and_dir_give_every_public_name():
    namespace = {}
    exec("from convcode import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(convcode._HOME)
    assert set(convcode._HOME) <= set(dir(convcode))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        convcode.no_such_name


def test_importing_the_package_loads_none_of_its_modules():
    out = run_fresh("import sys, convcode; print(sorted(m for m in "
                    "sys.modules if m.startswith('convcode.')))")
    assert out.strip() == "[]"
