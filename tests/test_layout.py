"""Library code is what the CLI or the public API reaches.

Static checks of ``src/lqss`` with the standard-library ``ast`` module: no
module imports a name it does not use, every top-level function or class is
exported in ``lqss.__all__`` or referenced from elsewhere in the package,
every defaulted parameter is set by some call in the package, no module
imports the standard library's ``json``, every import sits at module
level, none inside a function, and no module reaches an underscore name
of another: a helper shared across modules has a public name.  No module
imports from the ``scipy.linalg`` package: compiled LAPACK comes through
``lapack``, the one module that imports scipy, ctypes or importlib, and
``krein`` is the one module that takes a Schur form from it: its
``schur_form`` serves every doubled-up eigenproblem.  Test-only
helpers belong in ``tests/helpers.py``, and no test seeds anything with
the built-in ``hash``.  Importing the CLI loads no third-party module
beyond numpy, the top-level scipy package and orjson, save the scipy
extension that ``lapack`` binds, and no ``scipy.linalg`` or
``_flapack``.  Every name that the benchmark's tracer
(``perfbench/spans.py``) wraps or reads exists.
"""

import ast
import builtins
import importlib.util
import os
import subprocess
import sys
import typing
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lqss"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}

#: functions whose defaulted parameters no call in the package sets, and why
#: they stay
UNSET_OK = {
    "cli.main": "tests and the benchmark call the CLI with an argument list",
    "passive.synthesize_passive":
        "the benchmark's library route calls it by name",
    "general.synthesize_general":
        "the benchmark's library route calls it by name",
}


def exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def referenced(node) -> set:
    """Names a statement reads, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_no_unused_imports():
    unused = []
    for module, tree in MODULES.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{module}.py:{node.lineno} {name}"
                       for name in names if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_top_level_names_are_reached():
    public = exported(MODULES["__init__"])
    statements = [(module, node) for module, tree in MODULES.items()
                  for node in tree.body]
    reads = [referenced(node) for _, node in statements]
    counts = Counter(name for names in reads for name in names)
    unreached = []
    for (module, node), names in zip(statements, reads):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        # references from any statement other than the definition itself
        elsewhere = counts[node.name] - (node.name in names)
        if not (elsewhere or node.name in public):
            unreached.append(f"{module}.{node.name}")
    assert not unreached, (
        f"top-level names neither in lqss.__all__ nor used in the package "
        f"(move test-only code to tests/helpers.py): {unreached}")


def defined_functions():
    """(qualified name, name a call uses, parameter offset, node) of every
    function in the package; calling a class calls its ``__init__``, and a
    method's ``self`` or ``cls`` is not passed by position."""
    def walk(module, body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(module, node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                offset = 0 if owner is None or static else 1
                init = owner is not None and node.name == "__init__"
                path = [module] + [owner] * (owner is not None) + [node.name]
                if init:
                    yield ".".join(path[:-1]), owner, offset, node
                else:
                    yield ".".join(path), node.name, offset, node
                yield from walk(module, node.body, None)
    for module, tree in MODULES.items():
        yield from walk(module, tree.body, None)


def unset_parameters(calls: list, offset: int, node) -> set:
    """The defaulted parameters of ``node`` that none of ``calls`` sets by
    keyword, by position, or through a ``*`` or ``**`` argument."""
    args = node.args
    positional = args.posonlyargs + args.args
    defaulted = {a.arg for a in positional[len(positional)
                                           - len(args.defaults):]}
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None}
    names = [a.arg for a in positional[offset:]]
    out = set()
    for call in calls:
        for k, arg in enumerate(call.args):
            out |= set(names[k:] if isinstance(arg, ast.Starred)
                       else names[k:k + 1])
        for kw in call.keywords:
            out |= defaulted if kw.arg is None else {kw.arg}
    return defaulted - out


def test_defaulted_parameters_are_set():
    # a default that no call changes is a constant with a keyword's cost
    calls, values = {}, set()
    for tree in MODULES.values():
        # a called name, or a class caught or subclassed, is not a value
        not_values = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                not_values.add(id(node.func))
                name = (node.func.id if isinstance(node.func, ast.Name)
                        else getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
            elif isinstance(node, ast.ExceptHandler) and node.type:
                not_values |= {id(sub) for sub in ast.walk(node.type)}
            elif isinstance(node, ast.ClassDef):
                not_values |= {id(sub) for base in node.bases
                               for sub in ast.walk(base)}
        values |= {node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and id(node) not in not_values}
    unset = []
    for qualified, called, offset, node in defined_functions():
        if called in values or qualified in UNSET_OK:
            continue
        unset += [f"{qualified}.{name}" for name in sorted(
            unset_parameters(calls.get(called, []), offset, node))]
    assert not unset, (
        f"defaulted parameters that no call in the package sets (make each "
        f"one a constant): {unset}")


def test_orjson_is_the_only_json_codec():
    # one codec means one set of accepted files and one spelling of floats
    imports = []
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{module}.py:{node.lineno} {name}" for name in names
                        if name.split(".")[0] == "json"]
    assert not imports, f"standard-library json imported: {imports}"


def test_imports_sit_at_module_level():
    # an import inside a function hides a dependency from the module's
    # header and is paid again on every call
    nested = []
    for module, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{module}.py:{node.lineno} in {func.name}"
                           for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside functions: {nested}"


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_private_names_across_modules():
    # an underscore name is its module's own; a helper that another module
    # needs gets a public name
    reached = []
    for module, tree in MODULES.items():
        modules = set()  # lqss modules bound by ``from . import name``
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or (
                    node.level == 0
                    and (node.module or "").split(".")[0] != "lqss"):
                continue
            for alias in node.names:
                if node.module in (None, "lqss") and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif private(alias.name):
                    reached.append(f"{module}.py:{node.lineno} {alias.name}")
        reached += [f"{module}.py:{node.lineno} {node.value.id}.{node.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules and private(node.attr)]
    assert not reached, f"underscore names of other modules: {reached}"


def imported_modules(tree) -> list:
    """(line, module) of every import in a module's tree; ``from . import
    x`` and ``from .x import y`` name ``lqss.x``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "lqss." * (node.level > 0) + (node.module or "")
            found.append((node.lineno, base.rstrip(".")))
            found += [(node.lineno, f"{base.rstrip('.')}.{a.name}")
                      for a in node.names]
    return found


def test_no_scipy_linalg_imports():
    # the scipy.linalg package costs more than half of a cold start; its
    # compiled LAPACK is loaded by lapack without it
    found = [f"{module}.py:{line} {name}"
             for module, tree in MODULES.items()
             for line, name in imported_modules(tree)
             if name == "scipy.linalg" or name.startswith("scipy.linalg.")]
    assert not found, f"imports from scipy.linalg: {found}"


def test_krein_is_the_only_schur_caller():
    # one Schur reduction, with its real route for doubled-up matrices,
    # serves the drift of every StateSpace and every Gram matrix; inside
    # lapack, sqrtm takes the complex form of a complex matrix
    importers, callers = [], set()
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                    a.name == "schur" for a in node.names):
                importers.append(f"{module}:{node.module}")
            elif isinstance(node, ast.Attribute) and node.attr == "schur":
                importers.append(f"{module}:.schur")
        callers |= {f"{module}.{func.name}" for func in tree.body
                    if isinstance(func, ast.FunctionDef)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "schur"}
    assert importers == ["krein:lapack"], importers
    assert callers == {"krein.schur_form", "lapack.sqrtm"}, callers


def test_cli_import_adds_only_lqss_and_stdlib():
    # numpy, the top-level scipy package and orjson are loaded first: what
    # they pull in is their own cost, not the CLI's.  The one scipy module
    # added is the Cython extension that lapack loads, which registers
    # itself under its scipy name as well; neither the scipy.linalg
    # package nor its f2py extension _flapack is loaded
    script = ("import sys, numpy, scipy, orjson\n"
              "before = set(sys.modules)\n"
              "import lqss.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n"
              "print(sys.modules['scipy.linalg.cython_lapack']\n"
              "      is sys.modules['lqss.lapack']._cython_lapack)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    added, shared = subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout.splitlines()
    added = added.split()
    assert "lqss.cli" in added
    foreign = [name for name in added
               if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "lqss"]
    assert foreign == ["scipy.linalg.cython_lapack"], (
        f"importing lqss.cli also loads {foreign}")
    assert shared == "True"
    assert "scipy.linalg" not in added
    assert not [name for name in added if name.endswith("_flapack")]


def test_lapack_alone_binds_scipy():
    # one binding path: lapack alone loads scipy's compiled extension
    # (importlib) and calls into it (ctypes)
    found = [f"{module}.py:{line} {name}"
             for module, tree in MODULES.items() if module != "lapack"
             for line, name in imported_modules(tree)
             if name.split(".")[0] in ("scipy", "ctypes", "importlib")]
    assert not found, f"imports outside lapack: {found}"


def test_modelio_imports_no_synthesis_module():
    # a netlist is written and read through statespace.Realization alone,
    # whichever routine synthesized it
    modules = {name for _, name in imported_modules(MODULES["modelio"])}
    found = modules & {"lqss.passive", "lqss.general"}
    assert not found, f"modelio imports {sorted(found)}"


def test_tests_do_not_call_hash():
    # hash of a str changes with PYTHONHASHSEED, so a seed drawn from it
    # makes a test pass or fail by the interpreter's start-up state
    calls = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"built-in hash called at {calls}"


def test_traced_names_exist():
    # the tracer skips a function that no lqss module holds, so its span
    # would read 0; a missing method or result attribute crashes the run
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", TESTS.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = spans._lqss_modules()

    def find(name):
        return next((vars(m)[name] for m in modules if name in vars(m)), None)

    missing = [f"{span}: {name}" for span, names in spans.FUNCTIONS.items()
               for name in names if find(name) is None]
    missing += [f"{span}: {cls.__name__}.{attr}"
                for span, (cls, attr) in spans.METHODS.items()
                if attr not in vars(cls)]
    for metric, (name, count) in spans.RESULT_COUNTS.items():
        function = find(name)
        if function is None:
            missing.append(f"{metric}: {name}")
            continue
        returned = typing.get_type_hints(function)["return"]
        if returned is type(None):  # the count reads the call's arguments
            continue
        known = set(dir(returned)) | set(
            getattr(returned, "__dataclass_fields__", ()))
        missing += [f"{metric}: {returned.__name__}.{attr}"
                    for attr in count.__code__.co_names
                    if attr not in vars(builtins) and attr not in known]
    assert not missing, f"names the tracer wraps or reads are gone: {missing}"
