"""Library code is what the CLI or the public API reaches.

Static checks of ``src/lqss`` with the standard-library ``ast`` module: no
module imports a name it does not use, every top-level function or class is
exported in ``lqss.__all__`` or referenced from elsewhere in the package, and
no module imports the standard library's ``json``.  Test-only builders belong
in ``tests/helpers.py``.  Importing the CLI loads no third-party module beyond
numpy, scipy.linalg and orjson.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lqss"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}

#: top-level names that nothing in the package reaches, and why they stay
UNREACHED_OK = {
    "modelio.model_to_dict":
        "writes the model file format that load_model reads",
    "modelio.schedule_from_dict":
        "reads the schedule file format that schedule_to_dict writes "
        "(the output of lqss decompose)",
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
        qualified = f"{module}.{node.name}"
        if not (elsewhere or node.name in public
                or qualified in UNREACHED_OK):
            unreached.append(qualified)
    assert not unreached, (
        f"top-level names neither in lqss.__all__ nor used in the package "
        f"(move test-only code to tests/helpers.py): {unreached}")


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


def test_cli_import_adds_only_lqss_and_stdlib():
    # numpy, scipy.linalg and orjson are loaded first: what scipy pulls in
    # is its own cost, not the CLI's
    script = ("import sys, numpy, scipy.linalg, orjson\n"
              "before = set(sys.modules)\n"
              "import lqss.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    added = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True,
                           check=True).stdout.split()
    assert "lqss.cli" in added
    foreign = [name for name in added
               if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "lqss"]
    assert not foreign, f"importing lqss.cli also loads {foreign}"


def test_modelio_imports_no_synthesis_module():
    # a netlist is written and read through statespace.Realization alone,
    # whichever routine synthesized it
    modules = set()
    for node in ast.walk(MODULES["modelio"]):
        if isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "lqss." * (node.level > 0) + (node.module or "")
            modules |= {base.rstrip(".")}
            modules |= {f"{base.rstrip('.')}.{a.name}" for a in node.names}
    found = modules & {"lqss.passive", "lqss.general"}
    assert not found, f"modelio imports {sorted(found)}"
