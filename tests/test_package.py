import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

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


def test_only_gf2_binds_eliminate():
    # The eliminations fixture patches gf2._eliminate alone, so it counts
    # every elimination only if each other module reaches the function
    # through gf2, never by a global of its own, under any name.
    from convcode import gf2
    names = [info.name for info in pkgutil.iter_modules(convcode.__path__)]
    assert "gf2" in names and "codes" in names
    for name in ["__init__"] + names:
        module = convcode if name == "__init__" else importlib.import_module(
            f"convcode.{name}")
        bound = [k for k, v in vars(module).items() if v is gf2._eliminate]
        assert bound == (["_eliminate"] if name == "gf2" else []), name


def test_benchmark_traced_names_resolve():
    # perfbench's tracer wraps each module's public functions defined in
    # that module, and the class methods it names: every per-layer
    # `.calls` metric of BENCHMARK.json names one, or a module's total.
    spec = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"][:-len(".calls")] for m in spec["per_layer"]
             if m["name"].endswith(".calls")]
    assert any("." in name for name in names)
    for name in names:
        short, *rest = name.split(".")
        module = importlib.import_module(f"convcode.{short}")
        if len(rest) == 1:
            fn = getattr(module, rest[0], None)
            assert inspect.isfunction(fn), name
            assert not rest[0].startswith("_"), name
            assert fn.__module__ == module.__name__, name
        elif rest:
            cls, method = rest
            assert method in vars(getattr(module, cls)), name


# Public names that no module, demo or traced metric uses, each kept for
# its reason; every other public name must have a use.
KEPT_WITHOUT_A_USE = {
    "plotkin_sum": "Plotkin decomposition; waits on a caller (ROADMAP 24)",
    "low_weight_positions": "RM information sets; waits on a caller "
                            "(ROADMAP 24)",
    "puncture": "the shorten/puncture duality, an acceptance criterion",
    "shorten": "the shorten/puncture duality, an acceptance criterion",
}


def names_used(paths):
    """Every name that the files in paths mention as a Name, an Attribute
    or an import."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_public_name_has_a_use():
    # A public name stays when a module other than __init__ or a demo uses
    # it, when BENCHMARK.json's per-layer list traces it (until that list
    # is re-pointed), or when KEPT_WITHOUT_A_USE gives it a reason.
    root = Path(__file__).resolve().parents[1]
    src = Path(convcode.__file__).resolve().parent
    used = names_used([p for p in sorted(src.glob("*.py"))
                       if p.name != "__init__.py"]
                      + sorted((root / "demos").glob("*.py")))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    traced = {m["name"][:-len(".calls")] for m in spec["per_layer"]
              if m["name"].endswith(".calls")}
    without = [name for name, home in convcode._HOME.items()
               if name not in used and f"{home}.{name}" not in traced]
    assert sorted(without) == sorted(KEPT_WITHOUT_A_USE)
