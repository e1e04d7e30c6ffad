import json

from terw.cli import main
from terw.graphs import gen_cycle, gen_delta, gen_paley, write_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_families(capsys):
    code, out, _ = run(capsys, "generate", "cycle", "5")
    assert code == 0
    assert out.strip() == write_graph6(gen_cycle(5)).decode()


def test_generate_paley(capsys):
    code, out, _ = run(capsys, "generate", "paley", "3", "2")
    assert code == 0
    g, _ = gen_paley(3, 2)
    assert out.strip() == write_graph6(g).decode()


def test_generate_with_base_mapping(capsys):
    code, out, _ = run(capsys, "generate", "delta", "5", "--base", "5")
    assert code == 0
    g6, base = out.split()
    assert g6 == write_graph6(gen_delta(5)).decode()
    assert base == "base=4"


def test_compute_table(capsys):
    g6 = write_graph6(gen_delta(5)).decode()
    code, out, _ = run(capsys, "compute", "--graph", g6, "--base", "4", "--decompose")
    assert code == 0
    assert "T2=M3+C+C" in out
    assert "T3=M3+M2" in out


def test_compute_jsonl_partial_levels(capsys):
    g6 = write_graph6(gen_delta(5)).decode()
    code, out, _ = run(
        capsys, "compute", "--graph", g6, "--base", "all", "--levels", "2,3", "--format", "jsonl"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3
    apex = rows[-1]
    assert apex["dims"][2] == 11 and apex["dims"][3] == 13
    assert apex["dims"][0] is None


def test_compute_from_file(capsys, tmp_path):
    p = tmp_path / "graphs.g6"
    p.write_bytes(b"Bw\nBg\n")
    code, out, _ = run(capsys, "compute", "--graph", f"@{p}", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("graph6,")
    assert len(lines) > 2


def test_scan_and_exit_codes(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(write_graph6(gen_delta(5)) + b"\n")
    out_file = tmp_path / "o.jsonl"
    code, _, err = run(capsys, "scan", str(corpus), "--filter", "t2-ne-t3", "--jobs", "1", "--out", str(out_file))
    assert code == 0
    rows = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert len(rows) == 1
    assert "scanned 1 graphs" in err


def test_decompose_command(capsys):
    g6 = write_graph6(gen_delta(5)).decode()
    code, out, _ = run(capsys, "decompose", "--graph", g6, "--base", "4", "--level", "3")
    assert code == 0
    assert "dim=13" in out and "type=M3+M2" in out


def test_usage_error_is_exit_1(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "compute")[0] == 1  # missing --graph


def test_bad_level_spec_is_exit_1(capsys):
    code, _, err = run(capsys, "compute", "--graph", "Bw", "--levels", "7")
    assert code == 1
    assert "--levels" in err
    assert run(capsys, "compute", "--graph", "Bw", "--levels", "x")[0] == 1
    assert run(capsys, "decompose", "--graph", "Bw", "--base", "0", "--level", "7")[0] == 1


def test_bad_base_is_exit_1(capsys):
    for base in ("x", "-1", "1.5"):
        code, _, err = run(capsys, "compute", "--graph", "Dh{", "--base", base)
        assert code == 1
        assert "--base" in err
        code, _, err = run(capsys, "decompose", "--graph", "Dh{", "--base", base, "--level", "2")
        assert code == 1
        assert "--base" in err
    # a well-formed vertex that the graph does not have is an input error
    assert run(capsys, "compute", "--graph", "Dh{", "--base", "9")[0] == 2
    assert run(capsys, "decompose", "--graph", "Dh{", "--base", "9", "--level", "2")[0] == 2


def test_input_error_is_exit_2(capsys):
    assert run(capsys, "compute", "--graph", "!!notgraph6!!")[0] == 2
    assert run(capsys, "scan", "/nonexistent/file.g6")[0] == 2
    assert run(capsys, "generate", "path", "1")[0] == 2
    assert run(capsys, "generate", "delta", "5", "--base", "9")[0] == 2


def test_scan_bad_line_names_it(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"Bw\nDh{\nZZZ\n")
    code, _, err = run(capsys, "scan", str(corpus), "--jobs", "1", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "line 3" in err


def test_compute_bad_file_line_names_it(capsys, tmp_path):
    graphs = tmp_path / "c.g6"
    graphs.write_bytes(b"Bw\nDh{\nZZZ\n")
    code, _, err = run(capsys, "compute", "--graph", f"@{graphs}")
    assert code == 2
    assert "line 3" in err


def test_budget_error_is_exit_3(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(write_graph6(gen_delta(6)) + b"\n")
    code, _, _ = run(
        capsys, "scan", str(corpus), "--jobs", "1", "--node-budget", "2",
        "--out", str(tmp_path / "o"),
    )
    assert code == 3


def test_compute_budget_record_is_exit_3(capsys, monkeypatch):
    from terw import algebras
    from terw.errors import BudgetExceededError

    def no_budget(*args, **kwargs):
        raise BudgetExceededError("stabilizer search over budget")

    monkeypatch.setattr(algebras, "stabilizer", no_budget)
    code, out, _ = run(capsys, "compute", "--graph", "Dh{", "--base", "4", "--format", "jsonl")
    assert code == 3
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert row["status"] == "stabilizer-budget-exceeded"


def test_compute_searches_stabilizer_of_large_graph(capsys):
    # 81 vertices: the stabilizer search runs under its budgets, whatever n
    g6 = write_graph6(gen_paley(3, 4)[0]).decode()
    code, out, _ = run(capsys, "compute", "--graph", g6, "--base", "0", "--levels", "3", "--format", "jsonl")
    assert code == 0
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert row["status"] == "ok"
    assert row["dims"][3] == 33


def test_budget_status_recorded(tmp_path):
    from terw.pipeline import scan_corpus

    recs = list(scan_corpus([write_graph6(gen_delta(6))], jobs=1, node_budget=2))
    assert recs
    assert all(r.status == "stabilizer-budget-exceeded" for r in recs)
    assert all(r.dims[3] is None and r.dims[4] is None for r in recs)

    # a stabilizer budget miss at a nontrivially stabilized base still reports
    # levels 0-2, equal to the unbudgeted chain's
    from terw.algebras import chain_with_algebras
    from terw.pipeline import classify_graph

    recs = classify_graph(gen_delta(6), bases=[4, 5], node_budget=2)
    assert all(r.status == "stabilizer-budget-exceeded" for r in recs)
    for rec in recs:
        report, _ = chain_with_algebras(gen_delta(6), rec.base)
        assert rec.dims[:3] == report.dims[:3]
        assert rec.dims[3] is None and rec.dims[4] is None
