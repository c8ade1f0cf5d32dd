"""What README states about the code, checked against the code: the scenario
keys, the scenario example, the constants of the Configuration table, and
that the package reads no environment variable; that each module of the
package reads every name it imports; and that each helper of the tests is
read."""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

import altproj
from altproj import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PACKAGE = Path(altproj.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _section(heading):
    """The text of README under *heading*, up to the next heading of any level."""
    return re.split(r"\n#+ ", README.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


def test_scenario_keys_match_the_code():
    sentence = _section("### Scenario files").split("The allowed top-level keys are", 1)[1]
    assert set(re.findall(r"`(\w+)`", sentence.split(";", 1)[0])) == cli.SCENARIO_KEYS


def test_scenario_example_runs(tmp_path):
    example = json.loads(_section("### Scenario files").split("```json", 1)[1].split("```")[0])
    summary = cli.run_scenario(example, out_dir=tmp_path)
    assert summary["stop_reason"] == "converged"
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(example["outputs"].values())


# the constants the Configuration table names, each as `module.NAME` = value
TABLE_CONSTANTS = {"linalg.RANK_TOL", "engine.STALL_RTOL", "engine.DIVERGENCE_CAP",
                   "schedule.MU_ULPS", "subspace._ORTHO_ATOL", "projector.NULLSPACE_CUTOFF",
                   "validation.INTERSECTION_TOL"}
STATED = re.findall(r"`(\w+\.\w+)` = (\d[\d.]*(?:e[+-]?\d+)?)\b",
                    _section("## Configuration").split("\n\n| Threshold", 1)[1])


def test_configuration_table_names_each_constant():
    assert {name for name, _ in STATED} == TABLE_CONSTANTS


@pytest.mark.parametrize("name, text", STATED, ids=[name for name, _ in STATED])
def test_configuration_table_states_each_value(name, text):
    # the value rounded to the significant digits written: 1.41e-4 for the
    # cutoff, the exact value for every other constant
    module, attr = name.split(".")
    value = getattr(importlib.import_module(f"altproj.{module}"), attr)
    digits = len(text.split("e")[0].replace(".", "").lstrip("0"))
    assert float(f"{value:.{digits}g}") == float(text)


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(source):
    """The names of *source* that read the process environment: os.environ,
    os.getenv and their bytes forms, as attributes, bare names or imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.ImportFrom):
            found.extend(alias.name for alias in node.names)
    return [name for name in found if name in ENVIRONMENT_NAMES]


def test_scan_finds_each_way_to_read_the_environment():
    source = ("import os\nfrom os import environ\na = os.environ['A']\n"
              "b = os.getenv('B')\nc = environ.get('C')\n")
    assert sorted(_environment_reads(source)) == ["environ", "environ", "environ", "getenv"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_reads_no_environment_variable(path):
    assert _environment_reads(path.read_text(encoding="utf-8")) == []


def _unused_imports(source):
    """The names that an import statement of *source* binds and no name in
    *source* reads (``import a.b`` binds ``a``)."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_scan_finds_each_dead_import():
    source = ("import os\nimport math as m\nimport x.y\nfrom a.b import c, d\n"
              "from . import e\nprint(c, x.y, e.f)\n")
    assert _unused_imports(source) == ["os", "m", "d"]


# __init__.py imports names to re-export them, which __all__ names as strings
@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda p: p.name)
def test_package_reads_each_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _names_read(tree):
    """The names that *tree* reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def _unread_definitions(source, readers):
    """The top-level functions and classes of *source* that neither a source
    of *readers* nor another top-level statement of *source* reads."""
    tree = ast.parse(source)
    read = set().union(*(_names_read(ast.parse(text)) for text in readers))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in read.union(*(_names_read(other) for other in tree.body
                                               if other is not node))]


def test_scan_finds_each_unread_helper():
    source = ("def a():\n    pass\ndef b():\n    return a()\n"
              "def c():\n    return c()\nclass D:\n    pass\ndef e():\n    pass\n")
    readers = ["from helpers import b, e\nb()\n", "import helpers\nhelpers.e\n"]
    assert _unread_definitions(source, readers) == ["c", "D"]


HELPERS = ("helpers.py", "reference.py", "rounding.py")


# a helper is read by a test module or by another helper
@pytest.mark.parametrize("name", HELPERS)
def test_each_test_helper_is_read(name):
    readers = [path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))
               if path.name.startswith("test_") or path.name in HELPERS and path.name != name]
    assert _unread_definitions((TESTS / name).read_text(encoding="utf-8"), readers) == []
