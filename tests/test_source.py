"""Rules on the package source itself, and two on the tests."""

import ast
import importlib
import inspect
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import dihedral_mckay
from dihedral_mckay import cli, hilb

MODULES = sorted(Path(dihedral_mckay.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    """``python -O`` strips asserts, so no check in the package may be one."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"


def _own_classes():
    """(file name, class name, class) of every class a package module defines;
    __main__ is left out, since importing it runs the CLI."""
    for path in MODULES:
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"dihedral_mckay.{path.stem}")
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__:
                yield path.name, name, obj


def test_no_check_in_the_package_is_an_assertion_error():
    """A failed certificate raises a named internal failure: no exception
    class of the package derives from AssertionError, and nothing in the
    package raises a bare AssertionError."""
    found = [
        f"{file}: class {name}"
        for file, name, obj in _own_classes()
        if issubclass(obj, AssertionError)
    ]
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert not found, f"AssertionError in the package: {found}"


def _names(node):
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _caught_names():
    """Names that an ``except`` clause of the package catches, alone or in a
    tuple.  A clause whose whole body raises a class it does not catch only
    renames the failure, so it tells nothing apart and is left out."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught = _names(node.type)
            body = node.body[0] if len(node.body) == 1 else None
            if isinstance(body, ast.Raise) and isinstance(body.exc, ast.Call):
                if not _names(body.exc.func) & caught:
                    continue
            names |= caught
    return names


def test_every_exception_of_the_package_is_bad_input_or_one_of_two_failures():
    """Every exception class of the package is of one of the three kinds a
    caller tells apart: a ValueError (bad input), cli.UsageError (a bad
    command line) or hilb.CertificateFailure (a failed certificate).  A
    subclass of ValueError is a distinction only if the package makes it,
    so each one must be named by an ``except`` clause in the package."""
    caught = _caught_names()
    found = [
        f"{file}: class {name}"
        for file, name, obj in _own_classes()
        if issubclass(obj, BaseException)
        and obj not in (cli.UsageError, hilb.CertificateFailure)
        and not (issubclass(obj, ValueError) and name in caught)
    ]
    assert not found, f"exception classes of a fourth kind or caught nowhere: {found}"


def _references(tree):
    """Counts of the identifiers read as names or attributes in tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def _defined_names(node):
    """Names a module-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return []


# Methods that nothing in the package calls by name, with the reason each stays.
UNCALLED_METHODS = {
    "cli.py Parser.error": "argparse calls it on a usage error",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_used_in_the_package():
    """Code that only tests call is dead weight: each module-level function,
    class or assigned name, public or private, and each method of a
    module-level class, must be read somewhere in the package outside its
    own definition.  Dunder names such as ``__version__`` or ``__eq__`` are
    exempt, and so are the methods in UNCALLED_METHODS.  References are
    counted once per module, and each definition subtracts the ones inside
    itself."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in MODULES
    }
    total = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            defined = [d for d in _defined_names(node) if not _is_dunder(d)]
            inside = _references(node)
            unused += [
                f"{name}:{node.lineno} {d}" for d in defined if total[d] - inside[d] == 0
            ]
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) or _is_dunder(method.name):
                    continue
                if f"{name} {node.name}.{method.name}" in UNCALLED_METHODS:
                    continue
                if total[method.name] - _references(method)[method.name] == 0:
                    unused.append(f"{name}:{method.lineno} {node.name}.{method.name}")
    assert not unused, f"definitions nothing in the package uses: {unused}"


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """The package's records are plain classes, so a fresh interpreter, with no
    site module to import anything first, imports every package module and
    still has neither ``dataclasses`` nor ``inspect``, which ``dataclasses``
    imports, loaded."""
    src = str(Path(dihedral_mckay.__file__).parents[1])
    names = [f"dihedral_mckay.{path.stem}" for path in MODULES if path.stem != "__main__"]
    code = (
        f"import importlib, sys; sys.path.insert(0, {src!r})\n"
        f"for name in {names!r}: importlib.import_module(name)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-E", "-S", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", f"loaded by the package imports: {run.stdout.strip()}"


def test_no_line_in_the_package_is_longer_than_99_characters():
    """A line-count reduction must not come from packing lines."""
    long = [
        f"{path.name}:{i}"
        for path in MODULES
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 99
    ]
    assert not long, f"lines over 99 characters: {long}"


# Every process-level memo of the package.  Each result is a function of its
# arguments alone and is shared by every caller, so it must be immutable or
# never handed out for writing; a new memo joins this list on purpose.
LRU_CACHED = {
    "exactnum._phi_reducer",
    "reps.char_table",
    "constel._weight_decomposition",
    "hilb.boundary_intersection_numbers",
    "taut.pairing_table",
    "linalg.solver",
    "charts._unimodular_failure",
}


def test_every_lru_cache_in_the_package_is_listed():
    """Find the memoised functions among the module attributes by their
    cache_info attribute, each in the module that defines it."""
    found = set()
    for path in MODULES:
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"dihedral_mckay.{path.stem}")
        found |= {
            f"{path.stem}.{name}"
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
        }
    assert found == LRU_CACHED


FLOAT_MATH = {"sqrt", "log", "exp", "isclose"}


def test_no_float_enters_the_package_source():
    """Exact arithmetic only: no float literal, no float(...) call and no
    math.sqrt, log, exp or isclose, imported or called, anywhere in the package."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno} literal {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                found.append(f"{path.name}:{node.lineno} float(...)")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr in FLOAT_MATH
            ):
                found.append(f"{path.name}:{node.lineno} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [
                    f"{path.name}:{node.lineno} from math import {a.name}"
                    for a in node.names
                    if a.name in FLOAT_MATH
                ]
    assert not found, f"floating point in the package: {found}"


MAPPING_WRITES = {"pop", "popitem", "update", "setdefault", "clear"}


# Mappings held by values that are shared once built: a Poly's terms (it
# caches its leading term) and a CurveConfig's form and discrepancies and a
# Point's multiplicities (configs and points are shared between configs).
FIXED_MAPPINGS = {"terms", "q", "discrepancy", "curves", "boundary"}


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr in FIXED_MAPPINGS


def test_no_code_writes_into_a_terms_mapping():
    """No package code writes into a ``.terms``, ``.q``, ``.discrepancy``,
    ``.curves`` or ``.boundary`` mapping (FIXED_MAPPINGS) by a subscript
    assignment, ``del``, ``pop``, ``popitem``, ``update``, ``setdefault`` or
    ``clear``; each constructor stores a dict built before it is assigned."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                hit = _is_terms(node.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                hit = node.func.attr in MAPPING_WRITES and _is_terms(node.func.value)
            else:
                hit = False
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"writes into a fixed mapping: {found}"


def test_each_exact_value_has_one_constructor():
    """``Poly(nvars, terms)`` and ``CycloElt(order, terms)`` are the only ways
    to build their values: no package code calls ``object.__new__`` to skip
    a constructor."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "__new__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ]
    assert not found, f"object.__new__ in the package: {found}"


def _parameters(node):
    args = node.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    params += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in params if a.arg not in ("self", "cls")]


def test_every_parameter_is_read():
    """A parameter that the body never reads is an unused input that every
    caller must still pass: each parameter of every package function,
    method and lambda, except ``self`` and ``cls``, must be read in its
    body (a nested function's reads count)."""
    unread = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                sub.id
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            name = getattr(node, "name", "lambda")
            unread += [
                f"{path.name}:{node.lineno} {name}({p})"
                for p in _parameters(node)
                if p not in read
            ]
    assert not unread, f"parameters their function never reads: {unread}"


def test_only_the_pin_helper_imports_a_hash_module():
    """Every pin decides through ``tests/pin.py``, so that each failing pin
    reports its table, its key and its canonical text in one way: no other
    test module imports a module that provides sha256."""
    found = set()
    for path in TESTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if any(hasattr(importlib.import_module(name), "sha256") for name in names):
                found.add(path.name)
    assert found == {"pin.py"}, f"test modules importing a hash module: {sorted(found)}"


def test_no_function_body_is_copied_between_test_modules():
    """A helper that two test modules need lives once, in ``tests/reference.py``
    or ``tests/pin.py``: no top-level function body, its docstring left out,
    has the same ``ast.dump`` in two modules under ``tests/``."""
    where = defaultdict(dict)  # body -> {module: function}
    for path in TESTS:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                where["\n".join(map(ast.dump, body))][path.name] = node.name
    copies = [names for names in where.values() if len(names) > 1]
    assert not copies, f"function bodies in two test modules: {copies}"
