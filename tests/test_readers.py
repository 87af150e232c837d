"""Code without a reader goes: an AST scan of the repository.

Four rules, with no allow-list:

* (a) every public top-level ``def``/``class`` in ``src/repro`` has a
  reader outside ``tests/`` other than its own definition;
* (b) every public method of a top-level class has a reader anywhere,
  tests included;
* (c) every defaulted parameter is passed, by keyword or by position,
  at one or more of the call sites found by its function's name, tests
  included;
* (d) every name a module of ``src/repro`` other than an ``__init__``
  imports is read in that module.

A reader is a ``Name`` or ``Attribute`` reference, a ``"module:name"``
string (how ``bench/child.py`` and ``catalog._lazy`` reach code), a
call decorator defined in ``src/repro`` (``@experiment(...)``), an
entry of ``repro/__init__.py``'s ``__all__``, or a word of a shell
command in CI's workflow, less its comments and its ``! grep`` searches
for names that must not exist.  An import is not a reader, so a subpackage ``__init__`` that
only re-exports a name does not keep it.  A call through a module-level
alias (``experiment = REGISTRY.register``) is a call of the aliased
name.  Rule (c) skips a def with no call site by name, or with a
``*``/``**`` call site.  For rule (d) a read is a ``Name``, or a word of
a string that is only names (a quoted annotation such as
``Optional["Flow"]``); ``from __future__`` imports and a dotted
``import a.b``, which loads ``a.b`` for what importing it does, need
none.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"
CI = ROOT / ".github" / "workflows" / "ci.yml"
SCANNED = ("src", "benchmarks", "examples", "bench", "tests")

#: a string that is only names: a quoted annotation, for rule (d)
_ANNOTATION = re.compile(r"[\w.\[\], ]+")

#: a string naming code: ``"name"`` (``getattr``), ``"module:name"`` or
#: ``"pkg.module:Class.method"``; an f-string's ``":name"`` part matches too
_BY_NAME = re.compile(r"^(?:[\w.]*:[\w.]+|\w+)$")

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)


class Scan:
    """Every reference, call and definition the three rules look at."""

    def __init__(self, sources: Dict[Path, str], ci: str) -> None:
        self.trees: Dict[Path, ast.Module] = {
            path: ast.parse(text, str(path)) for path, text in sources.items()
        }
        #: name -> (file, line) of each read
        self.reads: Dict[str, List[Tuple[Path, int]]] = defaultdict(list)
        #: alias -> aliased name (module-level ``a = b.c`` or import ``as``)
        self.aliases: Dict[str, str] = {}
        #: called name -> the calls that name it
        self.calls: Dict[str, List[ast.Call]] = defaultdict(list)
        #: names bound at module level in src/repro
        self.src_names: Set[str] = set()
        for path, tree in self.src_trees():
            for node in tree.body:
                if isinstance(node, (*_DEF, ast.ClassDef)):
                    self.src_names.add(node.name)
                elif isinstance(node, ast.Assign):
                    self.src_names.update(
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    )
        for path, tree in self.trees.items():
            self._collect(path, tree)
        for line, command in ci_commands(ci):
            for word in re.findall(r"\w+", command):
                self.reads[word].append((CI, line))

    def src_trees(self) -> Iterator[Tuple[Path, ast.Module]]:
        for path, tree in self.trees.items():
            if path.is_relative_to(SRC):
                yield path, tree

    def _collect(self, path: Path, tree: ast.Module) -> None:
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, (ast.Name, ast.Attribute))
            ):
                value = node.value
                name = value.id if isinstance(value, ast.Name) else value.attr
                self.aliases[node.targets[0].id] = name
        exported = {
            id(elt): elt
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        if path == SRC / "__init__.py":
            for elt in exported.values():
                self.reads[elt.value].append((path, elt.lineno))
        for node in ast.walk(tree):
            if id(node) in exported:
                continue
            elif isinstance(node, ast.Name):
                self.reads[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                self.reads[node.attr].append((path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _BY_NAME.match(node.value):
                    for part in node.value.split(":")[-1].split("."):
                        self.reads[part].append((path, node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name.split(".")[-1]
            elif isinstance(node, (*_DEF, ast.ClassDef)):
                for deco in node.decorator_list:
                    if isinstance(deco, ast.Call) and _called(deco) in self.src_names:
                        self.reads[node.name].append((path, deco.lineno))
                if isinstance(node, ast.ClassDef):
                    self._constructor_calls(node)
            elif isinstance(node, ast.Call):
                name = _called(node)
                if name:
                    self.calls[name].append(node)

    def _constructor_calls(self, cls: ast.ClassDef) -> None:
        """``cls(...)`` calls the class; ``super().__init__(...)`` its bases."""
        bases = [b.id if isinstance(b, ast.Name) else b.attr
                 for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute))]
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "cls":
                self.calls[cls.name].append(node)
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and _called(func.value) == "super"
            ):
                for base in bases:
                    self.calls[base].append(node)

    def calls_of(self, name: str) -> List[ast.Call]:
        found = list(self.calls.get(name, ()))
        for alias, target in self.aliases.items():
            if target == name and alias != name:
                found.extend(self.calls.get(alias, ()))
        return found


def ci_commands(workflow: str) -> Iterator[Tuple[int, str]]:
    """(first line, command) of each shell command in a workflow's
    ``run:`` steps, without comments or ``! grep`` searches."""
    block = -1  # indent of the ``run: |`` key whose block is open
    pending: List[str] = []
    start = 0
    for number, line in enumerate(workflow.splitlines(), start=1):
        code = re.sub(r"(?:^|\s)#.*", "", line).rstrip()
        indent = len(line) - len(line.lstrip())
        if block >= 0 and (not line.strip() or indent > block):
            body = code.strip()
        else:
            block = -1
            step = re.match(r"\s*(?:- )?run:\s*(.*)", code)
            if not step:
                continue
            body = step.group(1)
            if body in ("|", ">"):
                block = indent
                continue
        if not body:
            continue
        start = start if pending else number
        pending.append(body.rstrip("\\"))
        if body.endswith("\\"):
            continue
        for part in re.split(r"&&|\|\|", " ".join(pending)):
            if not part.strip().startswith("! grep"):
                yield start, part
        pending = []


def _called(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@lru_cache(maxsize=1)
def scan() -> Scan:
    return Scan(
        {
            path: path.read_text(encoding="utf-8")
            for d in SCANNED
            for path in sorted((ROOT / d).rglob("*.py"))
        },
        CI.read_text(encoding="utf-8"),
    )


def _where(path: Path, node: ast.AST) -> str:
    return f"{path.relative_to(ROOT)}:{node.lineno}"


def unread_top_level(s: Scan) -> List[str]:
    """Rule (a): public top-level names with no reader outside tests."""
    found = []
    for path, tree in s.src_trees():
        for node in tree.body:
            if not isinstance(node, (*_DEF, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not any(
                not where.is_relative_to(TESTS)
                and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, line in s.reads.get(node.name, ())
            ):
                found.append(f"{_where(path, node)} {node.name}")
    return found


def unread_methods(s: Scan) -> List[str]:
    """Rule (b): public methods that nothing, tests included, reads."""
    return [
        f"{_where(path, fn)} {cls.name}.{fn.name}"
        for path, tree in s.src_trees()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, _DEF)
        and not fn.name.startswith("_")
        and fn.name not in s.reads
    ]


def _defs(s: Scan) -> Iterator[Tuple[Path, ast.FunctionDef, str, int]]:
    """(file, def, the name its callers use, arguments callers skip)."""
    for path, tree in s.src_trees():
        for node in tree.body:
            if isinstance(node, _DEF):
                yield path, node, node.name, 0
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, _DEF):
                        static = any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in fn.decorator_list
                        )
                        name = node.name if fn.name == "__init__" else fn.name
                        yield path, fn, name, 0 if static else 1


def never_passed(s: Scan) -> List[str]:
    """Rule (c): defaulted parameters that no call site passes."""
    found = []
    for path, fn, name, skipped in _defs(s):
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        params = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
        params += [
            (arg.arg, -1)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None
        ]
        calls = s.calls_of(name)
        if not params or not calls:
            continue
        if any(isinstance(a, ast.Starred) for c in calls for a in c.args) or any(
            k.arg is None for c in calls for k in c.keywords
        ):
            continue
        keywords = {k.arg for c in calls for k in c.keywords}
        reach = skipped + max(len(c.args) for c in calls)
        for param, index in params:
            if param not in keywords and not 0 <= index < reach:
                found.append(f"{_where(path, fn)} {fn.name}({param}=)")
    return found


def unread_imports(s: Scan) -> List[str]:
    """Rule (d): names a non-``__init__`` module imports and never reads."""
    found = []
    for path, tree in s.src_trees():
        if path.name == "__init__.py":
            continue
        bound: Dict[str, ast.stmt] = {}
        read: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname or "." not in alias.name:
                        bound[alias.asname or alias.name] = node
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _ANNOTATION.fullmatch(node.value):
                    read.update(re.findall(r"\w+", node.value))
        found += [
            f"{_where(path, node)} {name}"
            for name, node in bound.items()
            if name not in read
        ]
    return found


def test_every_top_level_name_has_a_reader_outside_tests():
    assert unread_top_level(scan()) == []


def test_every_method_has_a_reader():
    assert unread_methods(scan()) == []


def test_every_defaulted_parameter_is_passed_somewhere():
    assert never_passed(scan()) == []


def test_every_import_is_read():
    assert unread_imports(scan()) == []


def test_an_unread_import_is_reported():
    sources = {
        SRC / "m.py": (
            "from __future__ import annotations\n"
            "import os, sys\n"
            "import repro.experiments.catalog\n"
            "from typing import List, Optional, Tuple\n"
            "from repro.sim.host import Flow as F\n"
            "def f(x: Optional['F']) -> List: return os.sep\n"
        ),
        SRC / "__init__.py": "from repro.m import f\n",
    }
    found = unread_imports(Scan(sources, ""))
    assert [entry.split()[-1] for entry in found] == ["sys", "Tuple"]


def test_a_ci_comment_or_forbidden_grep_is_not_a_reader():
    sources = {
        SRC / "m.py": "def commented(): pass\ndef grepped(): pass\ndef ran(): pass\n"
    }
    workflow = """
      - name: Run it
        # commented
        run: |
          # commented too
          python -m repro ran \\
            --out x  # commented
          ! grep -rn "grepped" src \\
            && ! grep -rnE "\\b(grepped|commented)\\b" src
"""
    found = unread_top_level(Scan(sources, workflow))
    assert [entry.split()[-1] for entry in found] == ["commented", "grepped"]
