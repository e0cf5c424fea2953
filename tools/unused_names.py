"""List the public names defined under some paths that no code outside the tests reads.

A definition is a module-level function or class, or a method, nested
class or property in the body of such a class (``def``, or
``name = property(...)``), whose name and whose classes' names do not
start with ``_``.  Its identifier counts as read when some ``*.py`` file
under the working directory, outside every ``tests`` directory, reads an
``ast.Name`` or ``ast.Attribute`` with that identifier, or holds a string
constant equal to it (code that looks names up by string, such as
``getattr`` or a benchmark tracer that rebinds them).  Strings listed in
``__all__`` do not count.  Identifiers are matched alone, without their
class or module, so a name shared with another definition (``item`` names
both a method and a local variable) counts as read when any of them is.
Run it from the repository root; it prints one ``path:line: name`` row per
unread definition, in file order:

    python3 tools/unused_names.py src/
"""

import argparse
import ast
import sys
from pathlib import Path


def _files(paths) -> list:
    files = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def _is_property(node) -> bool:
    return (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name) and node.value.func.id == "property")


def definitions(tree: ast.Module):
    """(line, qualified name, identifier) of each public definition."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    continue
                yield node.lineno, prefix + node.name, node.name
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, prefix + node.name + ".")
            elif prefix and _is_property(node):
                for target in node.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        yield node.lineno, prefix + target.id, target.id

    yield from walk(tree.body, "")


def references(tree: ast.Module) -> set:
    """Every identifier that ``tree`` reads (not assigns) by name or by
    attribute, or holds as a string constant outside ``__all__``."""
    exported = set()
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            exported.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported):
            names.add(node.value)
    return names


def unused(paths, root: Path) -> list:
    """``path:line: name`` rows of the definitions under ``paths`` whose
    identifier no file under ``root`` outside ``tests`` reads."""
    read = set()
    for path in _files([root]):
        if "tests" not in path.relative_to(root).parts:
            read |= references(ast.parse(path.read_text(), str(path)))
    rows = []
    for path in _files(paths):
        for line, qualified, name in definitions(ast.parse(path.read_text(), str(path))):
            if name not in read:
                rows.append(f"{path}:{line}: {qualified}")
    return rows


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="files or directories to list definitions of")
    args = parser.parse_args(argv)
    for row in unused([Path(arg) for arg in args.paths], Path(".")):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
