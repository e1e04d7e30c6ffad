import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import connected_graphs, corpus_lines
from terw import algebras, groups, linalg, pipeline
from terw.errors import CertificationError, DecompositionError
from terw.graphs import gen_cycle, gen_delta, gen_paley, gen_path, write_graph6
from terw.groups import Perm, PermGroup
from terw.pipeline import (
    ScanStats,
    classify_graph,
    emit_report,
    resolve_jobs,
    scan_corpus,
)


class TestClassify:
    def test_delta5_records(self):
        recs = classify_graph(gen_delta(5))
        # automorphism orbits {1,4}, {2,3}, {5} -> three records
        assert [r.base for r in recs] == [0, 1, 4]
        assert [r.orbit_size for r in recs] == [2, 2, 1]
        apex = recs[-1]
        assert apex.dims == (5, 11, 11, 13, 13)
        assert apex.eq_flags == (False, True, False, True)
        assert apex.status == "ok"

    def test_triangle_single_record(self):
        recs = classify_graph(gen_cycle(3))
        assert len(recs) == 1
        assert recs[0].orbit_size == 3

    def test_c6_record(self):
        (rec,) = classify_graph(gen_cycle(6))
        assert rec.dims[2] == rec.dims[3] == rec.dims[4] == 20

    def test_explicit_bases_skip_dedup(self):
        recs = classify_graph(gen_cycle(5), bases=[0, 1, 2])
        assert len(recs) == 3
        assert len({r.dims for r in recs}) == 1

    def test_decompose_types(self):
        recs = classify_graph(gen_delta(5), bases=[4], decompose=True)
        (rec,) = recs
        assert rec.types[2].render() == "M3+C+C"
        assert rec.types[3].render() == "M3+M2"

    def test_partial_levels(self):
        (rec,) = classify_graph(gen_cycle(4), bases=[0], levels=[0, 2])
        assert rec.dims[0] is not None and rec.dims[2] is not None
        assert rec.dims[1] is None and rec.dims[3] is None
        assert all(f is None for f in rec.eq_flags)

    def test_subset_flags_are_certified(self, monkeypatch):
        # swapping 2 and 3 is no automorphism of the path 0-1-2-3: its orbit
        # {2, 3} meets two distance cells, so T2 is not certified inside T3
        monkeypatch.setattr(algebras, "stabilizer", lambda *a, **k: PermGroup(4, (Perm((0, 1, 3, 2)),)))
        with pytest.raises(CertificationError):
            classify_graph(gen_path(4), bases=[0], levels=[2, 3])

    def test_budget_miss_builds_each_level_once(self, monkeypatch):
        # level 4 searches first and misses; levels 0-2 are then built once
        # each, and level 3 (the second search) is never tried
        built = []
        build = algebras.build_T

        def counted(level, *args, **kwargs):
            built.append(level)
            return build(level, *args, **kwargs)

        monkeypatch.setattr(algebras, "build_T", counted)
        (rec,) = classify_graph(gen_delta(6), bases=[4], node_budget=2)
        assert rec.status == "stabilizer-budget-exceeded"
        assert rec.dims[3] is None and rec.eq_flags[2] is None
        assert built == [4, 0, 1, 2]

    def test_scan_computes_no_witness(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a scan computed a witness")

        monkeypatch.setattr(algebras, "witness", refuse)
        recs = list(scan_corpus([write_graph6(gen_delta(5)), write_graph6(gen_cycle(6))], jobs=1))
        assert [r.status for r in recs] == ["ok"] * 4
        assert recs[2].eq_flags == (False, True, False, True)


class TestOncePerGraph:
    """T0 and its type once per graph, one stabilizer search per record."""

    LINES = corpus_lines(5, min_n=2)  # a one-vertex graph's stabilizer needs no search

    def _count(self, monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
        return calls

    def test_scan_closes_t0_once_per_graph(self, monkeypatch):
        closures = self._count(monkeypatch, linalg, "_power_closure")
        records = list(scan_corpus(self.LINES, jobs=1))
        assert len(closures) == len(self.LINES) < len(records)

    def test_scan_searches_once_per_graph_and_record(self, monkeypatch):
        # one automorphism search per graph, one stabilizer search per record
        searches = self._count(monkeypatch, groups, "_run_search")
        records = list(scan_corpus(self.LINES, jobs=1))
        assert len(searches) == len(self.LINES) + len(records)

    def test_t0_decomposed_once_per_graph(self, monkeypatch):
        decomposed = self._count(monkeypatch, pipeline, "wedderburn_decompose")
        records = list(scan_corpus(self.LINES, jobs=1, decompose=True))
        assert sum(alg.level == 0 for (alg,) in decomposed) == len(self.LINES) < len(records)
        assert {r.status for r in records} == {"ok"}

    def test_t0_failure_fails_every_base(self, monkeypatch):
        decompose = pipeline.wedderburn_decompose
        failed = []

        def fail_t0(alg, **kwargs):
            if alg.level == 0:
                failed.append(alg.base)
                raise DecompositionError("no split")
            return decompose(alg, **kwargs)

        monkeypatch.setattr(pipeline, "wedderburn_decompose", fail_t0)
        recs = classify_graph(gen_delta(5), decompose=True)
        assert failed == [0] and len(recs) == 3
        assert all(r.status == "decompose-failed" and r.types[0] is None for r in recs)
        assert recs[2].types[3].render() == "M3+M2"


@st.composite
def _relabelled(draw):
    """A connected graph with n <= 6, a base vertex, and a vertex permutation."""
    n = draw(st.integers(1, 6))
    graphs = connected_graphs(n)
    graph = graphs[draw(st.integers(0, len(graphs) - 1))]
    return graph, draw(st.integers(0, n - 1)), draw(st.permutations(range(n)))


@settings(max_examples=100, deadline=None)
@given(_relabelled())
def test_relabelling_keeps_dims_flags_and_types(case):
    graph, base, perm = case
    (rec,) = classify_graph(graph, bases=[base], decompose=True)
    (moved,) = classify_graph(graph.relabel(perm), bases=[perm[base]], decompose=True)
    assert moved.status == rec.status == "ok"
    assert moved.dims == rec.dims
    assert moved.eq_flags == rec.eq_flags
    assert moved.types == rec.types


class TestScan:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.g6"
        p.write_bytes(b"\n\n")
        assert list(scan_corpus(p, jobs=1)) == []

    def test_filter_t2_ne_t3_finds_kite_apex(self, tmp_path):
        lines = [write_graph6(gen_cycle(5)), write_graph6(gen_delta(5))]
        p = tmp_path / "two.g6"
        p.write_bytes(b"\n".join(lines) + b"\n")
        recs = list(scan_corpus(p, filter="t2-ne-t3", jobs=1))
        assert len(recs) == 1
        assert recs[0].graph6 == write_graph6(gen_delta(5)).decode()

    def test_disconnected_skipped_and_counted(self, tmp_path):
        p = tmp_path / "mix.g6"
        p.write_bytes(b"Bw\nB?\n")  # triangle, then empty graph on 3 vertices
        stats = ScanStats()
        recs = list(scan_corpus(p, jobs=1, stats=stats))
        assert stats.skipped_disconnected == 1
        assert stats.graphs == 2
        assert all(r.graph6 == "Bw" for r in recs)

    def test_glued_header_stays_out_of_records(self, tmp_path):
        p = tmp_path / "head.g6"
        p.write_bytes(b">>graph6<<Bw\n")
        (rec,) = scan_corpus(p, jobs=1)
        assert rec.graph6 == "Bw"

    def test_deterministic_across_jobs(self, tmp_path, corpus):
        lines = [write_graph6(g) for g in corpus[5]]
        p = tmp_path / "n5.g6"
        p.write_bytes(b"\n".join(lines) + b"\n")
        out1 = emit_report(scan_corpus(p, jobs=1), "jsonl")
        out2 = emit_report(scan_corpus(p, jobs=2), "jsonl")
        assert out1 == out2

    def test_orbit_dedup_agrees_with_full_enumeration(self, corpus):
        for g in corpus[5][:6]:
            deduped = {r.base: r for r in classify_graph(g)}
            full = classify_graph(g, bases=list(range(g.n)))
            from terw.groups import automorphism_group, vertex_orbits

            orbits = vertex_orbits(automorphism_group(g)).cells
            rep_of = {}
            for cell in orbits:
                for v in cell:
                    rep_of[v] = cell[0]
            for rec in full:
                rep_rec = deduped[rep_of[rec.base]]
                assert rec.dims == rep_rec.dims
                assert rec.eq_flags == rep_rec.eq_flags


def test_decomposition_scan_matches_reference_n5():
    # levels equal to the one below take its type; the types must still be
    # the ones the benchmark reference holds for every decomposition
    reference = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference" / "decompose_n6.jsonl"
    expected = [line for line in reference.read_bytes().splitlines(keepends=True) if json.loads(line)["n"] <= 5]
    got = emit_report(scan_corpus(corpus_lines(5), jobs=1, decompose=True), "jsonl")
    assert got.splitlines(keepends=True) == expected


class TestEmit:
    def test_jsonl_paley13(self):
        g, _ = gen_paley(13)
        (rec,) = classify_graph(g)
        line = emit_report([rec], "jsonl").decode().strip()
        payload = json.loads(line)
        assert payload["dims"] == [3, 11, 21, 21, 29]
        assert payload["status"] == "ok"

    def test_csv_header_only_for_empty(self):
        data = emit_report([], "csv").decode()
        assert data.splitlines() == [
            "graph6,n,base,orbit_size,d0,d1,d2,d3,d4,"
            "t0_eq_t1,t1_eq_t2,t2_eq_t3,t3_eq_t4,type0,type1,type2,type3,type4,status"
        ]

    def test_table_shows_types(self):
        recs = classify_graph(gen_delta(5), bases=[4], decompose=True)
        table = emit_report(recs, "table").decode()
        assert "T2=M3+C+C" in table
        assert "T3=M3+M2" in table

    def test_csv_roundtrip_fields(self):
        recs = classify_graph(gen_cycle(4))
        data = emit_report(recs, "csv").decode().splitlines()
        assert len(data) == 1 + len(recs)
        row = data[1].split(",")
        assert row[0] == write_graph6(gen_cycle(4)).decode()

    def test_bad_format(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml")


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv("TERW_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(5) == 5
    monkeypatch.delenv("TERW_JOBS")
    assert resolve_jobs(None) >= 1
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be > 0"):
            resolve_jobs(jobs)
    for value in ("x", "0", "-2", "1.5"):
        monkeypatch.setenv("TERW_JOBS", value)
        with pytest.raises(ValueError, match="TERW_JOBS"):
            resolve_jobs(None)
        with pytest.raises(ValueError, match="TERW_JOBS"):
            list(scan_corpus([b"Bw"]))
    assert resolve_jobs(2) == 2  # an explicit jobs wins over a bad TERW_JOBS
