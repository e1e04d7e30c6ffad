import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from corpusgen import connected_graphs, corpus_lines  # noqa: E402
from terw import algebras, groups  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_memos():
    """Empty the T0 and stabilizer memos, so no test sees another test's entry."""
    algebras._adjacency_algebra.cache_clear()
    groups.stabilizer.cache_clear()


@pytest.fixture(scope="session")
def corpus():
    """Connected graphs up to isomorphism, keyed by vertex count (n <= 7)."""
    return {n: connected_graphs(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def corpus_file_n7(tmp_path_factory):
    """graph6 file with every connected graph on at most 7 vertices."""
    path = tmp_path_factory.mktemp("corpus") / "connected_upto7.g6"
    path.write_bytes(b"\n".join(corpus_lines(7)) + b"\n")
    return path


@pytest.fixture(scope="session")
def corpus_file_n5(tmp_path_factory):
    """graph6 file with every connected graph on exactly 5 vertices."""
    path = tmp_path_factory.mktemp("corpus5") / "connected_n5.g6"
    path.write_bytes(b"\n".join(corpus_lines(5, min_n=5)) + b"\n")
    return path


@pytest.fixture(scope="session")
def decompose_reference_n5():
    """The lines of the benchmark's decomposition-scan reference with n <= 5."""
    reference = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference" / "decompose_n6.jsonl"
    return [line for line in reference.read_bytes().splitlines(keepends=True) if json.loads(line)["n"] <= 5]
