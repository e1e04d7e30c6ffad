"""Package layout: no import cycle inside terw, and test oracles stay out of it."""

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
