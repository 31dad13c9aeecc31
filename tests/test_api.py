"""The public surface.  A leading underscore is the only privacy marker,
and two rules hold over src/bellmanlab:

- every public name (a top-level def, class or assignment target without
  a leading underscore) has a user in src/, demos/, perfbench/ or
  README.md besides its own definition;
- no module reads an underscore name of another module.

A third keeps each run parameter in one place: `suite.tier_params` holds
only the values that the tiers set differently.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bellmanlab
from bellmanlab import suite

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(bellmanlab.__file__).resolve().parent
SOURCES = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
OTHERS = [p.read_text() for p in [
    *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "README.md"]]
TIERS = ("fast", "full")


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def bindings(source):
    """The names that the top-level defs, classes and assignments of
    `source` bind, once per binding."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def unused_public(sources, others=OTHERS):
    """`module.name` for each public name of the modules in `sources`
    (module -> source text) that appears in no text of `sources` or
    `others` except where its module binds it."""
    texts = [*sources.values(), *others]
    unused = []
    for module, source in sources.items():
        bound = bindings(source)
        for name in dict.fromkeys(n for n in bound if not n.startswith("_")):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if sum(len(word.findall(t)) for t in texts) == bound.count(name):
                unused.append(f"{module}.{name}")
    return unused


def private_reaches(sources):
    """`module: other._name` for each underscore name that a module of
    `sources` imports from, or reads as an attribute of, another one."""
    reaches = []
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None and alias.name in sources:
                        aliases[alias.asname or alias.name] = alias.name
                    elif private(alias.name) and (node.module or "__init__") != module:
                        reaches.append(f"{module}: {node.module or ''}.{alias.name}")

        def target(expr):
            """The package module that `expr` names, or None."""
            if isinstance(expr, ast.Name):
                return aliases.get(expr.id)
            if isinstance(expr, ast.Attribute) and target(expr.value) is not None:
                return expr.attr if expr.attr in sources else None
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr):
                other = target(node.value)
                if other is not None and other != module:
                    reaches.append(f"{module}: {other}.{node.attr}")
    return reaches


def shared_parameters(tiers):
    """`experiment.parameter` for each parameter that holds the same value
    in every tier of `tiers` (tier -> experiment -> parameters)."""
    first, *rest = tiers.values()
    return [f"{experiment}.{key}" for experiment, params in first.items()
            for key, value in params.items()
            if all(other[experiment].get(key) == value for other in rest)]


def test_import_loads_no_scipy():
    # scipy takes most of a bare import's time and memory; it is a test
    # oracle only, so neither the package nor the CLI may pull it in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, bellmanlab, bellmanlab.cli; print('scipy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


def test_every_public_name_is_used():
    assert "cli" in SOURCES
    assert unused_public(SOURCES) == []


def test_no_module_reads_another_modules_private_name():
    assert private_reaches(SOURCES) == []


@pytest.mark.parametrize("planted, audit, finding", [
    ("def unused_helper():\n    return 1\n", unused_public, "planted.unused_helper"),
    ("UNUSED_LIMIT, _SEEN = 3, 0\n", unused_public, "planted.UNUSED_LIMIT"),
    ("from . import planar\n\nspectrum = planar._fft2\n", private_reaches,
     "planted: planar._fft2"),
    ("from .planar import _fft2\n", private_reaches, "planted: planar._fft2"),
])
def test_the_audits_fail_on_planted_faults(planted, audit, finding):
    sources = {**SOURCES, "planted": planted}
    assert audit(sources) == [finding]


def test_every_tier_parameter_differs_between_the_tiers():
    # a value that both tiers set alike is a literal of its experiment
    assert shared_parameters({t: suite.tier_params(t) for t in TIERS}) == []


def test_the_tier_audit_fails_on_a_planted_shared_value():
    tiers = {t: suite.tier_params(t) for t in TIERS}
    for params in tiers.values():
        params["stoch-conditioning"]["T"] = 40.0
    assert shared_parameters(tiers) == ["stoch-conditioning.T"]


def test_every_dataclass_field_is_read():
    """Every field of a dataclass defined in src/bellmanlab is read as
    `.field` somewhere in src/, demos/, perfbench/, README.md or tests/."""
    texts = [*SOURCES.values(), *OTHERS,
             *(p.read_text() for p in sorted((ROOT / "tests").glob("*.py")))]
    unread = []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"bellmanlab.{path.stem}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                unread += [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                           if not any(re.search(rf"\.{f.name}\b", t) for t in texts)]
    assert unread == []
