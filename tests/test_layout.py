"""Package layout: no import cycle or unused import inside terw, test
oracles stay out of it, every certificate of the chain has a test, the
clock is read in one place, two functions keep a one-entry memo, and checks
are typed exceptions, not assert."""

import ast
import pathlib

import terw

PACKAGE = pathlib.Path(terw.__file__).parent

# analysis helpers no runtime path calls; they live in tests/oracles.py
TEST_ONLY = (
    "corner",
    "is_commutative",
    "principal_row_dim",
    "pendant_reduction_check",
    "block_of_idempotent",
    "is_thin",
    "row_space_rank",
)


def _imported_modules(path: pathlib.Path, modules: set[str]) -> set[str]:
    """Sibling modules a file imports anywhere, function-local imports included."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                names = [alias.name for alias in node.names]
            elif node.level == 1:
                names = [node.module.split(".")[0]]
            elif node.level == 0 and (node.module or "").startswith("terw."):
                names = [node.module.split(".")[1]]
            else:
                names = []
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("terw.")]
        else:
            continue
        out.update(name for name in names if name in modules)
    return out


def import_graph() -> dict[str, set[str]]:
    files = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    return {name: _imported_modules(path, set(files)) for name, path in files.items()}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a closed path of module names, or None."""
    state: dict[str, int] = {}  # 1 on the stack, 2 done
    stack: list[str] = []

    def visit(mod: str) -> list[str] | None:
        state[mod] = 1
        stack.append(mod)
        for dep in sorted(graph[mod]):
            if state.get(dep) == 1:
                return stack[stack.index(dep):] + [dep]
            if dep not in state and (cycle := visit(dep)):
                return cycle
        stack.pop()
        state[mod] = 2
        return None

    for mod in sorted(graph):
        if mod not in state and (cycle := visit(mod)):
            return cycle
    return None


def test_cycle_finder_sees_a_local_import_cycle():
    assert find_cycle({"a": {"b"}, "b": {"a"}, "c": set()}) == ["a", "b", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_no_import_cycle_in_package():
    assert find_cycle(import_graph()) is None


def test_test_only_helpers_are_not_exported():
    assert not set(TEST_ONLY) & set(terw.__all__)
    assert not any(hasattr(getattr(terw, mod), name) for mod in ("algebras", "structure", "linalg") for name in TEST_ONLY)


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports and never reads, as 'file:line: name'.

    An import statement marked ``# noqa: F401`` is kept on purpose and skipped.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def test_unused_import_finder(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import itertools\nimport os.path\nfrom typing import Optional\n"
        "from x import (a,  # noqa: F401\n    b)\n"
        "def f(p: Optional[int]):\n    return os.path.join(p)\n"
    )
    assert unused_imports(mod) == ["mod.py:2: itertools"]


def test_no_unused_import_in_package():
    # __init__ imports to re-export: its __all__ is every public name it binds
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert [hit for path in modules for hit in unused_imports(path)] == []


def certification_messages(path: pathlib.Path) -> list[str | None]:
    """The message of every ``raise CertificationError(...)`` in a module, in
    line order; None for one that is not a string literal."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            if getattr(node.exc.func, "id", None) == "CertificationError":
                arg = node.exc.args[0] if node.exc.args else None
                literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                out.append((node.lineno, arg.value if literal else None))
    return [message for _, message in sorted(out)]


def test_certification_message_finder(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(x):\n    if x:\n        raise CertificationError('a fact fails')\n"
        "    raise CertificationError(x)\n\ndef g():\n    raise ValueError('not a certificate')\n"
    )
    assert certification_messages(mod) == ["a fact fails", None]


def test_every_chain_certificate_has_a_test():
    # a certificate moved or renamed keeps its test only if the test names its message
    messages = certification_messages(PACKAGE / "algebras.py")
    tests = pathlib.Path(__file__).parent
    sources = [p.read_text() for p in tests.glob("test_*.py") if p.name != pathlib.Path(__file__).name]
    assert messages and None not in messages
    assert [m for m in messages if not any(m in src for src in sources)] == []


def clock_reads(path: pathlib.Path) -> list[str]:
    """The function, as 'Class.method' or 'function', of every read of
    ``monotonic`` in a module; '<module>' for one outside any function."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if (isinstance(node, ast.Attribute) and node.attr == "monotonic") or (
            isinstance(node, ast.Name) and node.id == "monotonic"
        ):
            out.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return out


def test_clock_read_finder(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import time\nfrom time import monotonic\nT = time.monotonic()\n"
        "class S:\n    def tick(self):\n        return monotonic() > time.time()\n"
    )
    assert clock_reads(mod) == ["<module>", "S.tick"]


def test_clock_read_only_where_the_deadline_is_set_and_checked():
    # classify_graph turns the per-graph time budget into one deadline, as the CLI's
    # decompose does for its one algebra, and the search compares the clock with it;
    # everything between passes the deadline on
    reads = [f"{path.stem}.{where}" for path in PACKAGE.glob("*.py") for where in clock_reads(path)]
    assert sorted(reads) == ["cli._cmd_decompose", "groups._SearchState.tick", "pipeline.classify_graph"]


MEMOS = ("lru_cache", "cache", "cached_property")


def memo_uses(path: pathlib.Path) -> list[str]:
    """'function: maxsize=N' for every ``@functools.lru_cache(...)`` on a
    function of a module, and 'line N: name' for any other use of a
    functools memo, an import of one included."""
    tree = ast.parse(path.read_text())
    decorates = {
        id(dec): node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dec in node.decorator_list
    }
    out, seen = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) in decorates and getattr(node.func, "attr", None) == "lru_cache":
            # lru_cache() keeps 128 entries by default
            size = next((kw.value for kw in node.keywords if kw.arg == "maxsize"), node.args[0] if node.args else None)
            out.append((node.lineno, f"{decorates[id(node)]}: maxsize={128 if size is None else ast.unparse(size)}"))
            seen.add(id(node.func))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [(node.lineno, f"line {node.lineno}: {a.name}") for a in node.names if a.name in MEMOS]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in MEMOS and id(node) not in seen:
            if getattr(node.value, "id", None) == "functools":
                out.append((node.lineno, f"line {node.lineno}: {node.attr}"))
    return [use for _, use in sorted(out)]


def test_memo_finder(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import functools\nfrom functools import cache\n\n@functools.lru_cache(maxsize=1)\ndef f(x):\n    return x\n\n"
        "@functools.lru_cache(None)\ndef g(x):\n    return x\n\n@functools.lru_cache()\ndef k(x):\n    return x\n\n"
        "h = functools.lru_cache(maxsize=1)(len)\n"
    )
    assert memo_uses(mod) == ["line 2: cache", "f: maxsize=1", "g: maxsize=None", "k: maxsize=128", "line 16: lru_cache"]


def test_memos_hold_one_entry_on_two_pure_functions():
    # a scan visits one graph's bases in a row: one kept T0 per graph and one
    # kept stabilizer per base suffice, and nothing else is memoized
    uses = [f"{path.stem}.{use}" for path in sorted(PACKAGE.glob("*.py")) for use in memo_uses(path)]
    assert uses == ["algebras._adjacency_algebra: maxsize=1", "groups.stabilizer: maxsize=1"]


def bare_assertions(path: pathlib.Path) -> list[int]:
    """Lines of every ``assert`` statement and every ``raise AssertionError``
    in a module; a typed check such as CertificationError is not one."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == "AssertionError":
                out.append(node.lineno)
        elif isinstance(node, ast.Assert):
            out.append(node.lineno)
    return sorted(out)


def test_bare_assertion_finder(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(x):\n    assert x\n    if x > 1:\n        raise AssertionError('unreachable')\n"
        "    if x > 2:\n        raise AssertionError\n    raise CertificationError('a fact fails')\n"
    )
    assert bare_assertions(mod) == [2, 4, 6]


def test_checks_are_typed_exceptions():
    # an assert vanishes under python -O; a check raises a typed exception instead
    assert {path.name: bare_assertions(path) for path in PACKAGE.glob("*.py") if bare_assertions(path)} == {}
