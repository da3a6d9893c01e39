"""Tooling: no module in src/ or tests/ imports a name it never uses, no
function or class defined in src/bergman goes unreferenced, every name
the per-layer tracer of perfbench/ wraps still exists, and the package
neither imports nor loads scipy.

The scans use only the stdlib ``ast`` module.  A name counts as used when it
appears anywhere in the module as a plain name (``np`` in ``np.sum``
included); names listed in the module's ``__all__`` are re-exports and
count as used too.  A definition counts as referenced when its name
appears as a plain name or an attribute anywhere in src/, tests/ or
perfbench/; dunder methods are called by the language and are exempt.
"""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _unused_imports(source):
    """Sorted (line, name) of the imported names that ``source`` never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_flags_unused_and_exempts_reexports():
    source = ("import os\nimport numpy as np\nimport a.b\n"
              "from m import x, y as z, kept\n"
              "__all__ = ['kept']\n"
              "print(np.pi, a.b.c, z)\n")
    assert _unused_imports(source) == [(1, "os"), (4, "x")]


def test_no_unused_imports():
    files = sorted((_ROOT / "src").rglob("*.py")) + sorted((_ROOT / "tests").rglob("*.py"))
    assert files
    offenders = ["%s:%d %s" % (path.relative_to(_ROOT), line, name)
                 for path in files
                 for line, name in _unused_imports(path.read_text())]
    assert offenders == []


def _dead_definitions(source, references):
    """Sorted (line, name) of the defs and classes in ``source`` whose names
    are not in ``references``, dunders exempt."""
    return sorted((node.lineno, node.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name not in references
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def _references(sources):
    """Every name used as a plain name or an attribute in ``sources``."""
    refs = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def test_detector_flags_dead_definitions():
    source = ("def used():\n    pass\n"
              "def dead():\n    pass\n"
              "class K:\n"
              "    def __init__(self):\n        pass\n"
              "    def meth(self):\n        pass\n"
              "    def unused(self):\n        pass\n"
              "used(); K().meth()\n")
    assert _dead_definitions(source, _references([source])) == [(3, "dead"), (10, "unused")]


def test_no_dead_definitions():
    defined = sorted((_ROOT / "src" / "bergman").rglob("*.py"))
    users = sorted((_ROOT / "src").rglob("*.py")) + sorted((_ROOT / "tests").rglob("*.py")) \
        + sorted((_ROOT / "perfbench").rglob("*.py"))
    assert defined and users
    refs = _references(path.read_text() for path in users)
    offenders = ["%s:%d %s" % (path.relative_to(_ROOT), line, name)
                 for path in defined
                 for line, name in _dead_definitions(path.read_text(), refs)]
    assert offenders == []


def test_traced_names_resolve_in_bergman():
    # perfbench/layertrace.py wraps each SPANS name by attribute lookup, so a
    # deleted or renamed function would stop a traced benchmark run with
    # AttributeError; load the tracer as it is and resolve every name
    spec = importlib.util.spec_from_file_location(
        "layertrace", _ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = []
    for span, _, _ in layertrace.SPANS:
        module, *path = span.split(".")
        owner = importlib.import_module("bergman." + module)
        for attr in path:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(span)
    assert layertrace.SPANS and missing == []


def _imported_modules(source):
    """The top-level names of every module that ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_scipy_in_the_package():
    # numpy and math carry the special functions (bergman.special); scipy's
    # import alone costs more time and memory than the package
    assert _imported_modules("import scipy.special as s\nfrom scipy import stats\n"
                             "from . import special\n") == {"scipy"}
    files = sorted((_ROOT / "src" / "bergman").rglob("*.py"))
    assert files
    assert [str(path.relative_to(_ROOT)) for path in files
            if "scipy" in _imported_modules(path.read_text())] == []


def test_cli_runs_leave_scipy_unloaded(tmp_path):
    # a weights query and the TH-GORRO scenario, each in a fresh interpreter
    script = ("import sys\nfrom bergman import cli\n"
              "rc = cli.main(sys.argv[1:])\n"
              "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    for argv in (["weights", "inspect", "--weight", "std(alpha=0.5)", "--p", "3"],
                 ["verify", "--scenario", "TH-GORRO", "--out", str(tmp_path / "r.csv")]):
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []", argv
