"""Package surface: lazily loaded exports and submodules."""

import re
import sys
from pathlib import Path

import pytest

import ocrkit


def test_every_export_is_its_submodule_object():
    for name in ocrkit.__all__:
        obj = getattr(ocrkit, name)
        assert obj.__module__.startswith("ocrkit.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_readme_library_imports_are_exported():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from ocrkit import \(([^)]*)\)", readme).group(1)
    names = {name.strip() for name in block.split(",")} - {""}
    assert names
    assert names <= set(ocrkit.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ocrkit.no_such_name
    with pytest.raises(ImportError):
        from ocrkit import no_such_name  # noqa: F401


def test_import_ocrkit_loads_no_submodule(ocrkit_modules_after):
    assert ocrkit_modules_after("import ocrkit") == ["ocrkit"]


def test_submodule_attribute_without_explicit_import(ocrkit_modules_after):
    loaded = ocrkit_modules_after(
        "import ocrkit\nassert ocrkit.charts.chart_ap is ocrkit.chart_ap"
    )
    assert loaded == ["ocrkit", "ocrkit._record", "ocrkit._scan", "ocrkit.charts"]


@pytest.mark.parametrize(
    "module",
    ["ocrkit.cli", "ocrkit.charts", "ocrkit.finegrained", "ocrkit.geometry", "ocrkit.pagecompose",
     "ocrkit.tiling", "ocrkit.validators"],
)
def test_import_loads_neither_dataclasses_nor_inspect(stdlib_modules_after, module):
    loaded = stdlib_modules_after(f"import {module}")
    assert loaded and not loaded & {"dataclasses", "inspect"}
