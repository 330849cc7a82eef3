"""Guard against public names that only their own tests call.

``PYTHONPATH=src python tests/test_public_api.py`` prints the two size counts
CHANGES.md quotes: the lines under ``src/bathforge`` and the public settable
values.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bathforge"

# Exports kept with no caller in the program: each is the oracle or estimator
# that an acceptance criterion checks, so tests/test_acceptance.py is its caller.
ACCEPTANCE_ORACLES = {
    "chi_white_analytic": "criterion 3",
    "pm_sidebands": "criteria 5 and 6",
    "powerlaw_map_pm": "criteria 5 and 6",
    "fit_tooth_powerlaw": "criteria 5 and 6",
    "REFERENCE_CALIBRATION": "criterion 8",
    "bayes_update": "criterion 8",
    "population_from_theta": "criterion 8",
    "simple_normalize": "criterion 8",
    "simulate_counts": "criterion 8",
    "uniform_prior": "criterion 8",
}


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def names_used_in_package():
    """Every name loaded, read as an attribute or imported by a module other than
    ``__init__``; a bare definition is not a use."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def has_caller(name, used, outside):
    return name in used or re.search(rf"\b{re.escape(name)}\b", outside) is not None


def test_every_export_has_a_caller():
    used = names_used_in_package()
    outside = "\n".join([p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
                        + [(ROOT / "README.md").read_text()])
    names = exported_names()
    orphans = [n for n in names if not has_caller(n, used, outside)]
    assert sorted(set(orphans) - set(ACCEPTANCE_ORACLES)) == []
    # the allowlist cannot go stale: each entry is exported, still has no other
    # caller, and is exercised by the acceptance tests
    assert sorted(set(ACCEPTANCE_ORACLES) - set(orphans)) == []
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    assert [n for n in ACCEPTANCE_ORACLES
            if not re.search(rf"\b{n}\b", acceptance)] == []


def test_every_private_function_has_a_caller_in_src():
    # a module-level _helper whose only callers are tests is a code path the
    # program no longer takes; a self-call inside its own body does not count
    uses = []  # (module, top-level definition or statement, names it reads)
    private = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, ast.Attribute)
                     or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))}
            names |= {a.name for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom)
                      for a in n.names}
            uses.append((path.name, stmt, names))
            if (isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                private.append((path.name, stmt))
    assert private
    orphans = [f"{mod}:{fn.name}" for mod, fn in private
               if not any(fn.name in names for _, stmt, names in uses if stmt is not fn)]
    assert orphans == []


def test_one_csv_writer():
    # every table goes through grid.write_csv, so there is one text format
    users = [p.name for p in sorted(SRC.glob("*.py")) if "savetxt" in p.read_text()]
    assert users == []


def _parameters(fn) -> int:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return len([n for n in names if n not in ("self", "cls")])


def _is_dataclass(cls) -> bool:
    return any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)


def settable_values() -> int:
    """Parameters of public module-level functions and of the public methods of
    public classes (``self``/``cls`` and dunder methods such as ``__init__``
    not counted), plus the fields of dataclasses."""
    n = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                n += _parameters(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        n += _parameters(item)
                    elif (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                          and "ClassVar" not in ast.unparse(item.annotation)):
                        n += 1
    return n


if __name__ == "__main__":
    lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    print(f"src/bathforge lines: {lines}")
    print(f"public settable values: {settable_values()}")
