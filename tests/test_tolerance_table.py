"""README's tolerance table lists exactly the named bounds of the library.

Every module-level constant of entmaj whose name ends in _TOL, _FLOOR or _SLACK, or
starts with MAX_, must have one row, with its value and the module that defines it,
and every row must name such a constant.
"""

import ast
import importlib
import pathlib
import pkgutil

import entmaj

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
HEADER = "| name | value | module | bounds |"
SUFFIXES = ("_TOL", "_FLOOR", "_SLACK")
PREFIX = "MAX_"


def _table_rows():
    """{name: (value, module)} of the rows under HEADER, up to the first non-table line."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # skip the header and its separator line
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, value, module = (cell.strip().strip("`") for cell in line.split("|")[1:4])
        assert name not in rows, f"{name} has two rows"
        rows[name] = (float(value.replace("−", "-")), module)
    return rows


def _defined_bounds():
    """{name: (value, module)} of the bounds each entmaj module assigns at its top level."""
    bounds = {}
    for info in pkgutil.iter_modules(entmaj.__path__):
        module = importlib.import_module(f"entmaj.{info.name}")
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and (target.id.endswith(SUFFIXES)
                                                     or target.id.startswith(PREFIX)):
                    assert target.id not in bounds, f"{target.id} is defined twice"
                    bounds[target.id] = (getattr(module, target.id), info.name)
    return bounds


def test_table_lists_exactly_the_defined_bounds():
    assert _table_rows() == _defined_bounds()
