"""The public surface: every exported name resolves, each name has one path,
and each is reached by the program, the benchmark or a demo."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import msplit

MODULES = sorted(info.name for info in pkgutil.iter_modules(msplit.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"msplit.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve():
    # names are reached through their submodules only; the package
    # re-exports nothing but its version
    assert msplit.__all__ == ["__version__"]
    assert isinstance(msplit.__version__, str)


def test_import_msplit_leaves_scipy_unimported():
    # the import path of the package under test, not an installed copy
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(msplit.__file__)))
    code = "import sys, msplit; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "False"


# --- every public name is reached by the program, the benchmark or a demo ---

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(path):
    with open(path) as fh:
        return fh.read()


def _all_list(tree):
    """The module's ``__all__`` assignment, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            return node
    return None


def _members(cls):
    """Public methods, properties, class attributes and fields of ``cls``,
    each with the line that defines it."""
    found = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node.lineno))
            if node.name == "__init__":
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                        targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                        for target in targets:
                            if (isinstance(target, ast.Attribute)
                                    and getattr(target.value, "id", None) == "self"):
                                found.append((target.attr, sub.lineno))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, node.lineno))
        elif isinstance(node, ast.Assign):
            found.extend((target.id, node.lineno) for target in node.targets
                         if isinstance(target, ast.Name))
    return [(name, line) for name, line in found if not name.startswith("_")]


def test_every_public_name_is_reached_outside_the_tests():
    # A public name of the package must be used by the package itself, by
    # the benchmark or by a demo; one that only the tests reach belongs in
    # the tests. The name's own definition line and the __all__ lists do
    # not count as uses.
    src = os.path.join(ROOT, "src", "msplit")
    texts = {}          # path -> list of lines
    skipped = {}        # path -> line numbers that do not count as uses
    wanted = []         # (name, defining path, defining line)
    for entry in sorted(os.listdir(src)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(src, entry)
        module = entry[:-3]
        text = _read(path)
        tree = ast.parse(text)
        texts[path] = text.splitlines()
        exports = _all_list(tree)
        if exports is None:
            skipped[path] = set()
            continue
        skipped[path] = set(range(exports.lineno, exports.end_lineno + 1))
        defs = {node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in (elt.value for elt in exports.value.elts):
            if name.startswith("__"):
                continue
            node = defs.get(name)
            wanted.append((f"{module}.{name}", path, node.lineno if node else None))
            if isinstance(node, ast.ClassDef):
                wanted.extend((f"{module}.{name}.{member}", path, line)
                              for member, line in _members(node))
    for folder in ("benchmark", "demos"):
        for entry in sorted(os.listdir(os.path.join(ROOT, folder))):
            if entry.endswith(".py"):
                path = os.path.join(ROOT, folder, entry)
                texts[path] = _read(path).splitlines()
                skipped[path] = set()

    unreached = []
    for qualified, home, line in wanted:
        word = re.compile(rf"\b{re.escape(qualified.rsplit('.', 1)[-1])}\b")
        if not any(word.search(text) for path, lines in texts.items()
                   for number, text in enumerate(lines, 1)
                   if number not in skipped[path]
                   and not (path == home and number == line)):
            unreached.append(qualified)
    assert unreached == [], f"public names only the tests reach: {unreached}"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_reads(path):
    """Uses of underscore names the module at ``path`` does not own.

    An import ``from .module import _name`` of an msplit module, and any
    ``name._attr``, read or write, on a name other than ``self`` or ``cls``.
    """
    reads = []
    for node in ast.walk(ast.parse(_read(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "msplit"):
            reads.extend(f"line {node.lineno}: from {node.module} import {alias.name}"
                         for alias in node.names if _private(alias.name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id not in ("self", "cls") and _private(node.attr)):
            reads.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    # an underscore name belongs to its module, class or object: what
    # another module needs is public, so no module imports
    # `from .module import _name`, and no code reaches `name._attr` except
    # through `self` or `cls` (another module's `module._name`, another
    # object's private state, numpy's or scipy's private names)
    src = os.path.join(ROOT, "src", "msplit")
    reads = {entry: _private_reads(os.path.join(src, entry))
             for entry in sorted(os.listdir(src)) if entry.endswith(".py")}
    assert {entry: found for entry, found in reads.items() if found} == {}
