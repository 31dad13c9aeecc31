"""The public surface.  A leading underscore is the only privacy marker,
and three rules hold over src/bellmanlab:

- every public name (a top-level def, class or assignment target without
  a leading underscore) has a user in src/, demos/, perfbench/ or
  README.md besides its own definition;
- no module reads an underscore name of another module;
- every defaulted parameter of a public function or method gets a value
  other than its default from some call, so no option has only one value.

A fourth keeps each run parameter in one place: each (fast, full) pair of
`suite.EXPERIMENTS` holds two different values, so `suite.tier_params`
holds only the values that the tiers set differently.  A fifth has every
dataclass field read.  A sixth has `suite.py` call every builder of
`cli.OPERATIONS` outside its own definition, so each command-line
operation reports checks that an experiment reports too.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bellmanlab
from bellmanlab import suite

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(bellmanlab.__file__).resolve().parent
SOURCES = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
SCRIPTS = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
TESTS = sorted((ROOT / "tests").glob("*.py"))
OTHERS = [p.read_text() for p in [*SCRIPTS, ROOT / "README.md"]]
TIERS = suite.TIERS


@functools.cache
def parse(text):
    """The syntax tree of `text`, parsed once per session."""
    return ast.parse(text)


@functools.cache
def words(text):
    """How often each word of `text` occurs in it, counted once per session."""
    return Counter(re.findall(r"\w+", text))


def python_blocks(markdown):
    """The fenced blocks of `markdown` that parse as Python."""
    blocks = []
    for block in re.findall(r"```[a-z]*\n(.*?)```", markdown, re.S):
        try:
            parse(block)
        except SyntaxError:
            continue
        blocks.append(block)
    return blocks


# the texts whose calls may set a parameter
CALLERS = [*SOURCES.values(), *(p.read_text() for p in [*SCRIPTS, *TESTS]),
           *python_blocks((ROOT / "README.md").read_text())]


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def bindings(source):
    """The names that the top-level defs, classes and assignments of
    `source` bind, once per binding."""
    names = []
    for node in parse(source).body:
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
            if sum(words(t)[name] for t in texts) == bound.count(name):
                unused.append(f"{module}.{name}")
    return unused


def private_reaches(sources):
    """`module: other._name` for each underscore name that a module of
    `sources` imports from, or reads as an attribute of, another one."""
    reaches = []
    for module, source in sources.items():
        tree = parse(source)
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


def defaulted_parameters(sources):
    """(`module.function.parameter`, function name, parameter, position,
    default node) for each defaulted parameter of a public top-level
    function, or of a public method of a public class, in `sources`.  The
    position counts the positional arguments of a call, so a method's self
    or cls takes none; it is None for a keyword-only parameter."""
    found = []
    for module, source in sources.items():
        for node in parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node, False)]
            elif isinstance(node, ast.ClassDef) and not private(node.name):
                defs = [(f"{node.name}.{d.name}", d, not any(
                    isinstance(x, ast.Name) and x.id == "staticmethod"
                    for x in d.decorator_list))
                    for d in node.body if isinstance(d, ast.FunctionDef)]
            else:
                continue
            for label, fn, bound in defs:
                if fn.name.startswith("_"):
                    continue
                args = fn.args
                positional = args.posonlyargs + args.args
                tail = positional[len(positional) - len(args.defaults):]
                pairs = [*((a, d, positional.index(a) - bound)
                           for a, d in zip(tail, args.defaults)),
                         *((a, d, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None)]
                found += [(f"{module}.{label}.{a.arg}", fn.name, a.arg, position, d)
                          for a, d, position in pairs]
    return found


def literal(node):
    """(True, value) for a literal node, (False, None) for any other."""
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False, None


def callee(call):
    """The bare name that `call` calls, or None."""
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


@functools.cache
def calls_of(text):
    """The calls in `text`, found once per session."""
    return tuple(n for n in ast.walk(parse(text)) if isinstance(n, ast.Call))


def calls_in(texts):
    return [call for text in texts for call in calls_of(text)]


def operations(sources):
    """The (builder, flags -> parameters) nodes of each `cli.OPERATIONS` entry."""
    for node in parse(sources["cli"]).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "OPERATIONS" for t in node.targets):
            return [tuple(v.elts) for v in node.value.values]
    return []


def splat_keys(sources, callers):
    """(function name, parameter) for each parameter that a `**` argument
    names: a key of the dict(...) of a `cli.OPERATIONS` lambda for its
    builder, or of the dict(...) that a package function of `sources`
    returns into the `**` of a call in `callers`."""
    returned = {}  # package function -> the keys of the dict(...) it returns
    for node in (n for source in sources.values() for n in ast.walk(parse(source))):
        if isinstance(node, ast.FunctionDef):
            returned[node.name] = {
                k.arg for r in ast.walk(node) if isinstance(r, ast.Return)
                and isinstance(r.value, ast.Call) and callee(r.value) == "dict"
                for k in r.value.keywords}
    keys = {(builder.attr, k.arg) for builder, params in operations(sources)
            for k in params.body.keywords}
    for call in calls_in(callers):
        for k in call.keywords:
            if k.arg is None and isinstance(k.value, ast.Call):
                keys |= {(callee(call), key) for key in returned.get(callee(k.value), ())}
    return keys


def builders_no_experiment_runs(sources):
    """`suite.name` for each builder of `cli.OPERATIONS` that no call in
    `suite.py` reaches outside the builder's own definition."""
    called = {callee(c) for node in parse(sources["suite"]).body for c in ast.walk(node)
              if isinstance(c, ast.Call) and callee(c) != getattr(node, "name", None)}
    builders = {builder.attr for builder, _ in operations(sources)}
    return [f"suite.{name}" for name in sorted(builders - called)]


def unset_defaults(sources, callers=CALLERS):
    """`module.function.parameter` for each defaulted parameter of
    `defaulted_parameters(sources)` that no call in `callers`, and no
    `**` of `splat_keys`, sets to a value other than its default.  Calls
    match by bare name; a literal equal to the default does not count."""
    calls = {}
    for call in calls_in(callers):
        calls.setdefault(callee(call), []).append(call)
    splats = splat_keys(sources, callers)

    def differs(node, default):
        same, value = literal(node)
        known, expected = literal(default)
        return not (same and known and value == expected)

    def sets(call, name, position, default):
        given = [k.value for k in call.keywords if k.arg == name]
        if (position is not None and position < len(call.args)
                and not any(isinstance(a, ast.Starred) for a in call.args[:position + 1])):
            given.append(call.args[position])
        return any(differs(v, default) for v in given)

    return [label for label, fn, name, position, default in defaulted_parameters(sources)
            if (fn, name) not in splats
            and not any(sets(c, name, position, default) for c in calls.get(fn, []))]


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


def test_every_defaulted_parameter_takes_a_second_value():
    # a parameter that every call leaves at its default is a literal of
    # its function
    assert unset_defaults(SOURCES) == []


PLANTED_OPTIONS = ("def scaled(x, factor=1.0):\n    return factor * x\n\n\n"
                   "class Planted:\n    def scale(self, x, factor=2.0):\n"
                   "        return factor * x\n")


@pytest.mark.parametrize("calls, finding", [
    ("scaled(2.0, 3.0)\nPlanted().scale(1.0, 3.0)\n", []),
    ("", ["planted.scaled.factor", "planted.Planted.scale.factor"]),
    # literals equal to the default leave it unset
    ("scaled(2.0)\nscaled(2.0, 1.0)\nscaled(2.0, factor=1)\nPlanted().scale(1.0, 3.0)\n",
     ["planted.scaled.factor"]),
    ("scaled(2.0, factor=k)\nPlanted().scale(1.0, factor=2.0)\n",
     ["planted.Planted.scale.factor"]),
    # self takes no positional argument of the call
    ("scaled(2.0, 3.0)\nPlanted().scale(2.0)\n", ["planted.Planted.scale.factor"]),
], ids=["both-set", "none-set", "default-literals", "keyword", "self-skipped"])
def test_the_default_audit_fails_on_a_planted_one_value_option(calls, finding):
    sources = {**SOURCES, "planted": PLANTED_OPTIONS}
    assert unset_defaults(sources, [*CALLERS, calls]) == finding


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
    texts = [*SOURCES.values(), *OTHERS, *(p.read_text() for p in TESTS)]
    unread = []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"bellmanlab.{path.stem}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                unread += [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                           if not any(re.search(rf"\.{f.name}\b", t) for t in texts)]
    assert unread == []


def test_every_operation_builder_runs_in_an_experiment():
    # a builder that only the command line runs reports checks no suite run
    # reports
    assert builders_no_experiment_runs(SOURCES) == []


def test_the_builder_audit_fails_on_a_planted_operation():
    builder = "def planted_checks(n):\n    return planted_checks(n - 1) if n else []\n"
    operation = ('OPERATIONS = {\n    ("qc", "planted"): (suite.planted_checks, '
                 'lambda a: dict(n=a.n)),\n')
    sources = {**SOURCES, "suite": SOURCES["suite"] + "\n\n" + builder,
               "cli": SOURCES["cli"].replace("OPERATIONS = {\n", operation, 1)}
    assert operation in sources["cli"]
    assert builders_no_experiment_runs(sources) == ["suite.planted_checks"]
