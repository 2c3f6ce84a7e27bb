"""The package is what its commands run: every top-level function and class in
src/lamelab is used somewhere in src/, so no code there exists only for tests.
Test references and paper checks that no command runs live under tests/."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lamelab"

# io.read_field is the reader half of the PLF1 format that io owns: splitting
# the format between src/ and tests/ would put one decision in two modules.
# _interp.get_backend is read by the benchmark's environment probe.
EXEMPT = {"read_field", "get_backend"}


def test_every_definition_has_a_caller_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    users = defaultdict(set)  # name -> top-level statements that use it (strings, as in __all__, do not)
    for stmt in (stmt for tree in trees for stmt in tree.body):
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Name, ast.Attribute)):
                users[node.id if isinstance(node, ast.Name) else node.attr].add(stmt)
    defs = [stmt for tree in trees for stmt in tree.body if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    unused = set()
    while True:  # a definition used only by unused ones is unused too
        found = {d for d in defs if d.name not in EXEMPT and d not in unused and users[d.name] <= unused | {d}}
        if not found:
            break
        unused |= found
    assert sorted(d.name for d in unused) == []
