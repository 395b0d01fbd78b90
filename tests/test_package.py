"""Package surface: lazily loaded exports and submodules."""

import ast
import re
import sys
from pathlib import Path

import pytest

import ocrkit
from ocrkit.corpus import Corpus, Sample, TaskKind, save_records


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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # a name removed from the package but left in the example fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    [example] = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    for name, texts in (("gt", ("one two three", "四 五")), ("pred", ("one three", "四 五"))):
        samples = (Sample(f"s{i}", TaskKind.PLAIN_DOC, t) for i, t in enumerate(texts))
        save_records(Corpus(tuple(samples)), tmp_path / f"{name}.jsonl")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["report"].n_samples == 2


def test_readme_lists_every_export_under_its_module():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    listed, module = [], None
    for line in section.splitlines():
        if m := re.fullmatch(r"- \*\*(\w+)\*\*", line):
            module = m[1]
        elif m := re.match(r"  - `(\w+)`: ", line):
            listed.append((m[1], module))
    assert len(listed) == len(ocrkit._EXPORTS)
    assert dict(listed) == ocrkit._EXPORTS


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


def test_submodule_name_loads_that_submodule_only(ocrkit_modules_after):
    # a submodule's name, unlike an exported name, is not in _EXPORTS
    loaded = ocrkit_modules_after(
        "import ocrkit\n"
        "assert ocrkit.tiling.ImageDims(1, 1).width == 1\n"
        "try:\n"
        "    ocrkit.nosuch\n"
        "except AttributeError as exc:\n"
        "    assert str(exc) == \"module 'ocrkit' has no attribute 'nosuch'\", exc\n"
        "else:\n"
        "    raise AssertionError('ocrkit.nosuch resolved')"
    )
    assert loaded == ["ocrkit", "ocrkit._record", "ocrkit.tiling"]


@pytest.mark.parametrize(
    "module",
    ["ocrkit.cli", "ocrkit.charts", "ocrkit.finegrained", "ocrkit.geometry", "ocrkit.pagecompose",
     "ocrkit.tikz", "ocrkit.tiling", "ocrkit.validators"],
)
def test_import_loads_neither_dataclasses_nor_inspect(stdlib_modules_after, module):
    loaded = stdlib_modules_after(f"import {module}")
    assert loaded and not loaded & {"dataclasses", "inspect"}


def _module_level_public_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id


def _referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # the CLI's tables name code in strings; docstrings count too
            yield from re.findall(r"\w+", node.value)


def test_every_public_name_in_src_is_referenced():
    from ocrkit.cli import COMMANDS

    src = Path(ocrkit.__file__).parent
    readme = (src.parents[1] / "README.md").read_text(encoding="utf-8")
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in src.rglob("*.py")}
    referenced = set(re.findall(r"\w+", readme))
    for path, tree in trees.items():
        if path != src / "__init__.py":  # an _EXPORTS entry is no use of the name
            referenced.update(_referenced_names(tree))
    # cli._handler finds each handler as "cmd_" + the command name with "_" for "-"
    referenced.update("cmd_" + command.replace("-", "_") for command in COMMANDS)
    unreferenced = sorted(
        ".".join((*path.relative_to(src).with_suffix("").parts, name))
        for path, tree in trees.items()
        for name in _module_level_public_names(tree)
        if not name.startswith("_") and name not in referenced
    )
    assert unreferenced == []
