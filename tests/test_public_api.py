"""Guard against public names that only their own tests call.

``PYTHONPATH=src python tests/test_public_api.py`` prints the three size counts
CHANGES.md quotes: the lines under ``src/bathforge``, the public settable
values and the names ``bathforge`` exports.
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


def test_every_private_constant_is_read_in_src():
    # a module-level _CONSTANT that no src code reads outlived the algorithm it
    # served; its own assignment is a store, not a read
    reads = set()
    constants = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)
                  or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))}
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            constants += [f"{path.stem}.{n.id}" for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name) and n.id.startswith("_")
                          and not n.id.startswith("__")]
    assert constants
    assert [c for c in constants if c.split(".")[1] not in reads] == []


# Defaulted parameters kept with no caller in the program, each with the
# test that sets it.
TEST_ONLY_SETTINGS = {
    "rabi.dt": "criterion 7's step refinement and ROADMAP item 2's coarse-dt oracle",
    "uniform_prior.n_points": "criterion 8",
}


def _defaulted(fn):
    """(name, position or None) of each defaulted parameter of ``fn``; the
    position is counted without ``self``/``cls``."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    return ([(name, pos) for pos, name in enumerate(positional) if pos >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def optional_settings():
    """(label, callee name, parameter, position, path, definition node) of every
    defaulted parameter of a public function or method and every defaulted
    dataclass field under src/bathforge."""
    settings = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                settings += [(f"{node.name}.{name}", node.name, name, pos, path, node)
                             for name, pos in _defaulted(node)]
            elif isinstance(node, ast.ClassDef):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                          and "ClassVar" not in ast.unparse(item.annotation)]
                if _is_dataclass(node):
                    settings += [(f"{node.name}.{f.target.id}", node.name, f.target.id, pos,
                                  path, node) for pos, f in enumerate(fields)
                                 if f.value is not None]
                settings += [(f"{node.name}.{item.name}.{name}", item.name, name, pos,
                              path, item)
                             for item in node.body if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_")
                             for name, pos in _defaulted(item)]
    return settings


def _readme_python():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return "\n".join(blocks)


def program_calls():
    """(path, call node) of every call in src/bathforge, perfbench and the
    README's Python blocks."""
    sources = [(p, p.read_text()) for p in sorted(SRC.glob("*.py"))]
    sources += [(p, p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    sources.append((ROOT / "README.md", _readme_python()))
    return [(path, node) for path, text in sources for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)]


def _passes(call, callee, name, pos) -> bool:
    func = call.func
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return called == callee and (any(k.arg == name for k in call.keywords)
                                 or pos is not None and len(call.args) > pos)


def test_every_optional_parameter_has_a_program_caller():
    # a default that no program call overrides is a code path only tests take
    calls = program_calls()
    uncalled = []
    for label, callee, name, pos, path, definition in optional_settings():
        inside = range(definition.lineno, definition.end_lineno + 1)
        if not any(_passes(call, callee, name, pos) for call_path, call in calls
                   if not (call_path == path and call.lineno in inside)):
            uncalled.append(label)
    assert sorted(set(uncalled) - set(TEST_ONLY_SETTINGS)) == []
    # the allowlist cannot go stale: each entry is still a setting with no caller
    assert sorted(set(TEST_ONLY_SETTINGS) - set(uncalled)) == []


def test_every_private_default_is_set_in_src():
    # a private helper's default that no src call overrides is a second form of
    # that helper with no caller; calls inside the helper's own body do not count
    src_calls = [(path, call) for path, call in program_calls() if path.parent == SRC]
    unset = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                continue
            inside = range(fn.lineno, fn.end_lineno + 1)
            unset += [f"{path.stem}.{fn.name}.{name}" for name, pos in _defaulted(fn)
                      if not any(_passes(call, fn.name, name, pos) for call_path, call in src_calls
                                 if not (call_path == path and call.lineno in inside))]
    assert unset == []


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
    print(f"exported names: {len(exported_names())}")
