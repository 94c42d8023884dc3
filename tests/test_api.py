"""The public API: every name the package exports is used by the package."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfront"


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def uncalled_exports():
    """Exports that no code in ``src/hopfront`` refers to, in order.

    A reference is a name or attribute in the code of a module other than
    ``__init__``; strings, comments and import lines are not code, and a
    name's own definition does not count. Neither does a reference inside the
    definition of another uncalled export, so an export used only by dead
    code is itself dead: the check repeats until no export is added.
    """
    exports = exported_names()
    spans, refs = {}, []  # name -> (module, first line, last line); (module, line, identifier)
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exports:
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                spans[node.name] = (path.name, first, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.lineno, node.attr))

    def inside(ref, name):
        module, first, last = spans.get(name, (None, 0, -1))
        return ref[0] == module and first <= ref[1] <= last

    dead = []
    while True:
        new = [n for n in exports if n not in dead
               and not any(r[2] == n and not any(inside(r, m) for m in dead + [n]) for r in refs)]
        if not new:
            return [n for n in exports if n in dead]
        dead += new


def test_every_export_has_a_src_caller():
    dead = uncalled_exports()
    assert not dead, f"exports without a caller in src/hopfront: {', '.join(dead)}"
