"""The package is what its commands run: every top-level function and class in
src/lamelab is used somewhere in src/, so no code there exists only for tests.
Test references and paper checks that no command runs live under tests/.
Likewise every parameter default is a choice some call in src/ overrides: a
default that no call passes is a constant, and lives in the body; and every
module-level constant is read in src/, so none is kept there for tests. The
Nyquist rule of the half spectrum and the derivative symbol built on it are
stated once, in grid.py, and grid.py alone calls a Fourier transform. Every
imported name is used where it is imported, and is imported from the module
that defines it; every name in an __all__ is bound in its module. The flow,
norm, interpolation and stepping functions whose spans the benchmark's tracer
reads exist, and do their work when called."""

import ast
import importlib
import re
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lamelab"
PERFBENCH = TESTS.parent / "perfbench"

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


def test_every_constant_is_read_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set()  # names loaded anywhere in src/, bare or as a module attribute
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                unread += [f"{module}.{n}" for n in names if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", n) and n not in read]
    assert unread == []


def test_every_default_is_passed_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    most_positional = defaultdict(int)  # callee name -> most positional arguments at one call
    keywords = defaultdict(set)  # callee name -> keywords passed at some call
    for call in (n for n in nodes if isinstance(n, ast.Call)):
        if isinstance(call.func, (ast.Name, ast.Attribute)):
            name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            most_positional[name] = max(most_positional[name], len(call.args))  # *args counts as one
            keywords[name] |= {k.arg for k in call.keywords}
    methods = {
        fn
        for cls in nodes
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not any(getattr(d, "id", "") == "staticmethod" for d in fn.decorator_list)
    }
    unset = []
    for module, tree in trees.items():
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            args = fn.args.posonlyargs + fn.args.args
            bound = 1 if fn in methods else 0  # self or cls is not passed by position
            defaulted = [(i - bound, a.arg) for i, a in enumerate(args) if i >= len(args) - len(fn.args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            for position, name in defaulted:
                by_position = position is not None and most_positional[fn.name] > position
                if name not in keywords[fn.name] and not by_position:
                    unset.append(f"{module}.{fn.name}({name}=)")
    assert unset == []


def test_nyquist_rule_lives_in_grid():
    # the other modules read the rule's result (Grid.rfreq_split, grid.jacobian and
    # grid.divergence), never the mask or the derivative symbol
    readers = sorted(
        path.name
        for path in SRC.glob("*.py")
        if any(
            isinstance(n, ast.Attribute) and n.attr in ("rnyquist", "rderiv")
            for n in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert readers == ["grid.py"]


def test_one_transform_pair():
    # grid.fftn / grid.ifftn are the package's only transforms: no other module
    # calls scipy.fft or numpy.fft for a transform, and the CLI only sets workers
    used = defaultdict(set)  # module -> "scipy.fft.<name>" / "numpy.fft.<name>" it uses
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
                owner = node.value
                if owner.attr == "fft" and isinstance(owner.value, ast.Name) and owner.value.id in ("scipy", "np"):
                    used[path.name].add(f"{'numpy' if owner.value.id == 'np' else 'scipy'}.fft.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "") in ("scipy.fft", "numpy.fft"):
                used[path.name] |= {f"{node.module}.{a.name}" for a in node.names}
    others = {name: sorted(u) for name, u in used.items() if name != "grid.py"}
    assert others == {"_interp.py": ["numpy.fft.fftfreq"], "cli.py": ["scipy.fft.set_workers"]}


def test_every_import_is_used():
    # __init__.py imports to re-export, so its names are used by importers
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"] + sorted(TESTS.glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused += [f"{path.parent.name}/{path.name}: {name}" for name in names if name not in used]
    assert unused == []


def test_every_export_is_bound():
    # a name left in __all__ after its definition is deleted breaks `import *`
    stale = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("lamelab" if path.stem == "__init__" else f"lamelab.{path.stem}")
        stale += [f"{path.name}: {name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []


def test_names_are_imported_from_their_definer():
    # a name passed on by an importing module has two owners; the package
    # __init__ re-exports on purpose, so `from lamelab import name` is exempt
    defined = {}  # module -> its top-level definitions
    for path in SRC.glob("*.py"):
        names = set()
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        defined[path.stem] = names
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    passed_on = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1 and path.parent == SRC:
                module = node.module
            elif node.level == 0 and node.module.startswith("lamelab."):
                module = node.module.removeprefix("lamelab.")
            else:
                continue
            passed_on += [f"{path.parent.name}/{path.name}: {module}.{a.name}"
                          for a in node.names if a.name not in defined[module]]
    assert passed_on == []


def _yields(fn: ast.FunctionDef) -> bool:
    """Whether fn's own body yields (a nested function's yield is not fn's)."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def test_traced_flow_spans_are_functions_that_work_when_called():
    # perfbench/tracer.py times functions by the name "module.function"; a
    # renamed function, or a generator in its place (whose call only creates
    # it), zeroes a metric without an error. The names are read from the
    # tracer's string literals, "lagrangian." + "flow_map" folded as one.
    # The keys of the metrics dict it returns ("varcoef.matvecs", ...) name
    # metrics, not spans.
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    metric_keys = {
        key.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)
        for key in node.value.keys
        if isinstance(key, ast.Constant)
    }
    consts = {
        t.id: node.value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    strings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.Name)
            and node.left.id in consts
            and isinstance(node.right, ast.Constant)
        ):
            strings.add(consts[node.left.id] + node.right.value)
    spans = sorted(
        s for s in strings - metric_keys if re.fullmatch(r"(lagrangian|maxreg|_interp|varcoef)\.[A-Za-z_]\w*", s)
    )
    assert {"lagrangian.flow_map", "_interp.interp_periodic", "varcoef.evolve", "varcoef.theta_step"} <= set(spans)
    assert "varcoef.matvecs" in metric_keys
    broken = []
    for span in spans:
        module, name = span.split(".")
        defs = {stmt.name: stmt for stmt in ast.parse((SRC / f"{module}.py").read_text()).body
                if isinstance(stmt, ast.FunctionDef)}
        if name not in defs or _yields(defs[name]):
            broken.append(span)
    assert broken == []
