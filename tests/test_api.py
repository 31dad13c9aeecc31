"""The public surface: every name a module exports has a user."""

import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import bellmanlab

ROOT = Path(__file__).resolve().parent.parent
CORPUS = {p.resolve(): p.read_text() for p in [
    *sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]}


def unused_exports(module):
    """Names in `module.__all__` that appear nowhere in src/, demos/,
    perfbench/ or README.md except in their own definition and their
    `__all__` entry."""
    own = Path(module.__file__).resolve()
    unused = []
    for name in module.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own_only = re.compile(rf"(def|class)\s+{re.escape(name)}\b|\"{re.escape(name)}\"")
        uses = sum(len(word.findall(text))
                   - (len(own_only.findall(text)) if path == own else 0)
                   for path, text in CORPUS.items())
        if uses == 0:
            unused.append(f"{module.__name__}.{name}")
    return unused


def test_import_loads_no_scipy():
    # scipy takes most of a bare import's time and memory; it is a test
    # oracle only, so neither the package nor the CLI may pull it in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, bellmanlab, bellmanlab.cli; print('scipy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


def test_every_export_is_used():
    modules = [getattr(bellmanlab, n) for n in bellmanlab.__all__ if n != "__version__"]
    assert [name for m in modules for name in unused_exports(m)] == []


def test_every_dataclass_field_is_read():
    """Every field of a dataclass defined in src/bellmanlab is read as
    `.field` somewhere in src/, demos/, perfbench/, README.md or tests/."""
    texts = [*CORPUS.values(),
             *(p.read_text() for p in sorted((ROOT / "tests").glob("*.py")))]
    unread = []
    for path in sorted(Path(bellmanlab.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"bellmanlab.{path.stem}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                unread += [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                           if not any(re.search(rf"\.{f.name}\b", t) for t in texts)]
    assert unread == []
