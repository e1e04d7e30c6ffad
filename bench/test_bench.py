"""Tests of the benchmark's own helpers: self times, the percentile rule, the
host-speed scaling and the output checks.  Run with ``python -m pytest bench`` from the repo root
(terw importable, e.g. PYTHONPATH=src)."""

import pathlib
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
from measure import tail_percentile  # noqa: E402
from tracing import Tracer, instrument, layer_self_times, self_times, total_times  # noqa: E402


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [
            ["pipeline.classify", 0.0, 10.0, -1],
            ["algebras.chain", 1.0, 8.0, 0],
            ["linalg.closure", 2.0, 3.0, 1],
            ["linalg.closure", 4.0, 6.5, 1],
            ["graphs.parse", 8.5, 9.0, 0],
        ]
        st = self_times(spans)
        assert st["pipeline.classify"] == pytest.approx(10.0 - 7.0 - 0.5)
        assert st["algebras.chain"] == pytest.approx(7.0 - 1.0 - 2.5)
        assert st["linalg.closure"] == pytest.approx(3.5)
        assert st["graphs.parse"] == pytest.approx(0.5)
        assert sum(st.values()) == pytest.approx(10.0)
        layers = layer_self_times(spans)
        assert layers["linalg"] == pytest.approx(3.5)
        assert layers["groups"] == 0.0
        assert sum(layers.values()) == pytest.approx(10.0)

    def test_total_time_includes_children(self):
        spans = [["a.x", 0.0, 4.0, -1], ["b.y", 1.0, 2.0, 0], ["a.x", 5.0, 6.0, -1]]
        assert total_times(spans) == {"a.x": pytest.approx(5.0), "b.y": pytest.approx(1.0)}

    def test_tracer_records_parents(self):
        tr = Tracer()
        inner = tr.wrap("linalg.closure", lambda x: x + 1)
        outer = tr.wrap("algebras.build", lambda x: inner(x) * 2)
        assert outer(1) == 4
        assert [(s[0], s[3]) for s in tr.spans] == [("algebras.build", -1), ("linalg.closure", 0)]
        assert tr.calls["algebras.build"] == 1
        st = self_times(tr.spans)
        assert sum(st.values()) == pytest.approx(tr.spans[0][2] - tr.spans[0][1])


class TestPercentileRule:
    def test_p90_with_enough_samples(self):
        pct, value = tail_percentile(range(1, 101))
        assert (pct, value) == (90.0, 90)

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        pct, value = tail_percentile(range(1, 51))
        assert (pct, value) == (80.0, 40)
        assert sum(1 for x in range(1, 51) if x > value) == 10

    def test_order_of_samples_is_irrelevant(self):
        xs = [13, 5, 3, 9, 1, 7, 2, 8, 4, 6, 0, 10, 11, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23]
        assert tail_percentile(xs) == tail_percentile(sorted(xs)) == (100 * 14 / 24, 13)

    def test_median_when_no_tail_above_it_qualifies(self):
        assert tail_percentile(range(20)) == (50.0, 9.5)
        assert tail_percentile([4000.0, 100.0, 15000.0, 900.0]) == (50.0, 2450.0)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            tail_percentile([])


class FakeSampler:
    """Fixed host-speed samples: (time, main thread's CPU, kernel s per CPU)."""

    cpus = [0, 1]
    kernel_s = hostspeed.Sampler.kernel_s

    def __init__(self, rows):
        self.rows = rows

    def wait_past(self, t, timeout=2.0):
        pass


class TestHostSpeed:
    REF = hostspeed.PROBE_REF_S

    def test_kernel_of_main_cpu_or_mean_over_cpus(self):
        s = FakeSampler([(0.5, 1, [4.0, 2.0]), (0.7, 0, [3.0, 5.0]), (0.9, 0, [3.0, 1.0])])
        assert s.kernel_s(0.0, 1.0, pool=False) == 3.0  # median of 2, 3, 3
        assert s.kernel_s(0.0, 1.0, pool=True) == 3.0  # median of 3, 4, 2
        assert s.kernel_s(0.6, 0.8, pool=False) == 3.0

    def test_nearest_samples_when_none_inside(self):
        s = FakeSampler([(0.0, 0, [1.0, 9.0]), (1.0, 0, [3.0, 9.0]), (5.0, 0, [100.0, 9.0])])
        assert s.kernel_s(0.4, 0.6, pool=False) == 2.0

    def test_clock_scales_each_segment(self):
        s = FakeSampler([(0.5, 0, [2 * self.REF, 0.0]), (2.0, 1, [0.0, self.REF / 2])])
        clock = hostspeed.SpeedClock(s)
        clock.marks = [0.0, 1.0, 3.0]
        clock.finish()
        assert clock.raw == [1.0, 2.0]
        assert clock.norm == pytest.approx([0.5, 4.0])
        assert clock.factor == pytest.approx(4.5 / 3.0)

    def test_clock_without_sampler_is_raw(self):
        clock = hostspeed.SpeedClock(None)
        clock.lap()
        clock.lap()
        clock.finish()
        assert clock.norm == clock.raw and clock.kernel == [] and clock.factor == 1.0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_sampler_process_samples_and_stops(self, tmp_path):
        with hostspeed.Sampler(tmp_path) as s:
            s.wait_past(time.perf_counter())
            proc = s.proc
        assert proc.returncode is not None
        assert s.rows and len(s.rows[-1][2]) == len(s.cpus)
        assert list(tmp_path.iterdir()) == []


class TestChecks:
    def _lines(self, reference, k):
        graphs = sorted(reference)[:k]
        return graphs, b"".join(line + b"\n" for g in graphs for line in reference[g])

    def test_scan_reference_passes_untouched(self):
        ref = checks.load_scan_reference("decompose_n6.jsonl")
        graphs, out = self._lines(ref, 5)
        assert checks.check_scan(out, graphs, ref) == (5, [])

    def test_tampered_record_fails(self):
        ref = checks.load_scan_reference("scan_n7.jsonl")
        graphs, out = self._lines(ref, 4)
        victim = ref[graphs[2]][0]
        tampered = victim.replace(b'"dims":[', b'"dims":[9')
        assert tampered != victim
        attempted, failed = checks.check_scan(out.replace(victim, tampered), graphs, ref)
        assert (attempted, failed) == (4, [graphs[2]])

    def test_missing_and_extra_graphs_fail(self):
        ref = checks.load_scan_reference("scan_n7.jsonl")
        graphs, out = self._lines(ref, 3)
        attempted, failed = checks.check_scan(out, graphs[:2] + ["F??"], ref)
        assert attempted == 3 and sorted(failed) == sorted(["F??", graphs[2]])

    def test_bad_status_fails(self):
        ref = checks.load_scan_reference("decompose_n6.jsonl")
        graphs, out = self._lines(ref, 1)
        bad = out.replace(b'"status":"ok"', b'"status":"decompose-failed"')
        fake_ref = {graphs[0]: bad.splitlines()}
        assert checks.check_scan(bad, graphs, fake_ref) == (1, graphs)

    def test_paley_reference_and_tampered_dim(self):
        ref = checks.load_paley_reference()
        good = [(q, lvl, *ref[q][lvl]) for q in sorted(ref) for lvl in range(5)]
        assert checks.check_paley(good, ref) == (len(good), [])
        q, lvl, dim, blocks = good[4]  # T4 of Paley(13): 2p+3 = 29
        assert (q, lvl, dim) == (13, 4, 29)
        attempted, failed = checks.check_paley([(q, lvl, dim + 1, blocks)], ref)
        assert attempted == 1 and len(failed) == 1 and "2p+3" in failed[0]
        assert checks.check_paley([(q, lvl, None, None)], ref)[1] == ["Paley(13) T4 raised"]

    def test_formulas_match_acceptance_values(self):
        assert checks.formula_errors(81, 3, 4, 4, 51, ()) == []
        assert checks.formula_errors(81, 3, 4, 2, 33, ()) == []
        assert checks.formula_errors(81, 3, 4, 2, 34, ())
        assert checks.formula_errors(61, 61, 1, 3, 65, ()) == []
        assert checks.formula_errors(61, 61, 1, 1, 11, ((3, 1), (1, 29), (1, 29))) == []
        assert checks.formula_errors(61, 61, 1, 1, 11, ((3, 1), (2, 29)))


def test_instrument_counts_and_restores():
    terw = pytest.importorskip("terw")
    from terw import algebras, pipeline

    original = algebras.algebra_closure, terw.linalg.SpanBasis.insert
    lines = [b"Bw", b"Ch"]  # triangle, path on 4 vertices
    plain = pipeline.emit_report(pipeline.scan_corpus(lines, jobs=1), "jsonl")
    tr = Tracer()
    with instrument(tr) as missing:
        traced = pipeline.emit_report(pipeline.scan_corpus(lines, jobs=1), "jsonl")
    assert missing == []
    assert traced == plain
    assert (algebras.algebra_closure, terw.linalg.SpanBasis.insert) == original
    records = plain.count(b"\n")
    assert tr.calls["pipeline.classify"] == 2
    assert tr.calls["algebras.chain"] == records
    assert tr.calls["algebras.build"] == 5 * records
    assert tr.calls["groups.stab"] == 2 * records
    assert tr.counts["linalg.insert_kept"] <= tr.counts["linalg.insert_tried"]
    assert tr.counts["linalg.insert_kept"] > 0
