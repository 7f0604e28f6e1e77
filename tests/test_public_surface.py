"""The package's public surface is what its commands and the acceptance suite use.

A public module-level function or class that nothing in ``src/tailcal``
refers to outside its own definition, and that ``test_acceptance.py`` does
not import, is kept alive only by unit tests: delete it with those tests, or
make it private. Two more guards keep the code lean: no module imports a name
it never reads, and there is one exception class per exit code.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "tailcal"

# The exact effective prior of a two-class linear model: no command calls it
# yet, but the unit tests check the estimators in prior.py against it.
ALLOWED = {("oracle", "oracle_effective_prior")}


def _module_of(node: ast.ImportFrom) -> str | None:
    """The package-relative module an import names, '' for the package."""
    if node.level == 1:
        return node.module or ""
    if node.module == "tailcal" or (node.module or "").startswith("tailcal."):
        return node.module[len("tailcal."):]
    return None


def _references(tree: ast.Module, own: str | None = None) -> set[tuple[str, str]]:
    """``(module, name)`` pairs one file refers to: names it imports from a
    package module, ``module.name`` attributes of package modules it
    imports, and, in module ``own``, its own top-level names read outside
    their own definitions (a class field of the same name is no use)."""
    modules: dict[str, str] = {}  # local name -> package module
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := _module_of(node)) is not None:
            for alias in node.names:
                if source:
                    refs.add((source, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                refs.add((modules[node.value.id], node.attr))
    if own is not None:
        for top in tree.body:
            defined = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id != defined:
                        refs.add((own, node.id))
    return refs


def _public_definitions() -> dict[tuple[str, str], Path]:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[(path.stem, node.name)] = path
    return found


def test_every_public_name_is_used_by_the_package_or_the_acceptance_suite():
    refs = _references(ast.parse((TESTS / "test_acceptance.py").read_text()))
    for path in PACKAGE.glob("*.py"):
        refs |= _references(ast.parse(path.read_text()), own=path.stem)
    defined = _public_definitions()
    assert ALLOWED <= defined.keys(), "an allowed name no longer exists"
    unused = sorted(f"{mod}.{name}" for mod, name in defined.keys() - refs - ALLOWED)
    assert unused == [], f"public names only unit tests use: {unused}"


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads (``__future__`` imports aside)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # test_acceptance.py is left out: the acceptance suite is never edited,
    # and it imports MlpModel without using it.
    paths = sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in TESTS.glob("*.py") if p.name != "test_acceptance.py"
    )
    unread = {
        path.name: found
        for path in paths
        if (found := _unread_imports(ast.parse(path.read_text())))
    }
    assert unread == {}, f"imported but never read: {unread}"


def _exit_code(node: ast.ClassDef) -> int | None:
    """The ``exit_code`` a class body sets, None where it sets none."""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["exit_code"]:
            return ast.literal_eval(stmt.value)
    return None


def test_one_exception_class_per_exit_code():
    """Every exception class is TailcalError or a direct subclass of it that
    sets its own exit code. The exit code is the error contract and the
    message names the failed check, so a second class per code adds nothing."""
    exceptions = {}  # name -> (bases, exit_code)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = [ast.unparse(b) for b in node.bases]
                if any(b.endswith(("Exception", "Error")) for b in bases):
                    exceptions[node.name] = (bases, _exit_code(node))
    assert exceptions.pop("TailcalError") == (["Exception"], 1)
    assert all(bases == ["TailcalError"] for bases, _ in exceptions.values()), exceptions
    codes = [code for _, code in exceptions.values()]
    assert None not in codes and sorted(codes) == [2, 3, 4], exceptions
