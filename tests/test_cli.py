import json

from corpusgen import corpus_lines
from terw.cli import build_parser, main
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


def test_record_graph6_is_the_bare_value(capsys, tmp_path):
    # a '>>graph6<<' header or surrounding whitespace stays out of the record on every input path
    p = tmp_path / "head.g6"
    p.write_bytes(b">>graph6<<Bw\n")
    corpus_out = tmp_path / "o.jsonl"
    assert run(capsys, "scan", str(p), "--jobs", "1", "--out", str(corpus_out))[0] == 0
    outputs = [corpus_out.read_text()]
    for spec in (f"@{p}", ">>graph6<<Bw", " Bw\n"):
        code, out, _ = run(capsys, "compute", "--graph", spec, "--format", "jsonl")
        assert code == 0
        outputs.append(out)
    for out in outputs:
        (row,) = [json.loads(line) for line in out.splitlines()]
        assert row["graph6"] == "Bw"


def test_scan_and_exit_codes(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(write_graph6(gen_delta(5)) + b"\n")
    out_file = tmp_path / "o.jsonl"
    code, _, err = run(capsys, "scan", str(corpus), "--filter", "t2-ne-t3", "--jobs", "1", "--out", str(out_file))
    assert code == 0
    rows = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert len(rows) == 1
    assert "scanned 1 graphs" in err


def test_scan_decompose_writes_the_reference(capsys, tmp_path, decompose_reference_n5):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"\n".join(corpus_lines(5)) + b"\n")
    for jobs in ("1", "2"):
        out_file = tmp_path / f"o{jobs}.jsonl"
        code, _, _ = run(capsys, "scan", str(corpus), "--decompose", "--jobs", jobs, "--out", str(out_file))
        assert code == 0
        assert out_file.read_bytes().splitlines(keepends=True) == decompose_reference_n5


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


def test_bad_budget_is_exit_1(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"Bw\n")
    for flag, value in [
        ("--time-budget", "-1"), ("--time-budget", "0"), ("--time-budget", "x"),
        ("--node-budget", "0"), ("--node-budget", "-5"), ("--node-budget", "1.5"),
    ]:
        code, _, err = run(capsys, "scan", str(corpus), flag, value)
        assert code == 1, (flag, value)
        assert flag in err
    assert run(capsys, "scan", str(corpus), "--time-budget", "0.5", "--node-budget", "100")[0] == 0


def test_scan_budgets_default_to_the_library_defaults():
    from terw.pipeline import DEFAULT_NODE_BUDGET, DEFAULT_TIME_BUDGET

    args = build_parser().parse_args(["scan", "x.g6"])
    assert (args.node_budget, args.time_budget) == (DEFAULT_NODE_BUDGET, DEFAULT_TIME_BUDGET)


def test_scan_out_is_corpus_is_exit_1(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"Bw\nDh{\n")
    code, out, err = run(capsys, "scan", str(corpus), "--jobs", "1", "--out", str(corpus))
    assert (code, out) == (1, "")
    assert "--out" in err
    assert corpus.read_bytes() == b"Bw\nDh{\n"


def test_scan_missing_corpus_keeps_old_output(capsys, tmp_path):
    old = tmp_path / "old.jsonl"
    old.write_bytes(b"kept\n")
    code, _, err = run(capsys, "scan", str(tmp_path / "missing.g6"), "--out", str(old))
    assert code == 2
    assert "missing.g6" in err
    assert old.read_bytes() == b"kept\n"


def test_compute_one_vertex_graph(capsys, tmp_path):
    # '@' alone is the graph6 of the one-vertex graph; '@path' is a file
    code, out, _ = run(capsys, "compute", "--graph", "@", "--format", "jsonl")
    assert code == 0
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert row["graph6"] == "@" and row["dims"] == [1, 1, 1, 1, 1]
    p = tmp_path / "one.g6"
    p.write_bytes(b"@\n")
    assert run(capsys, "compute", "--graph", f"@{p}", "--format", "jsonl")[1] == out


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
    # the records of the two good lines are kept, as a scan of them alone writes them
    good = tmp_path / "good.g6"
    good.write_bytes(b"Bw\nDh{\n")
    assert run(capsys, "scan", str(good), "--jobs", "1", "--out", str(tmp_path / "good"))[0] == 0
    kept = (tmp_path / "o").read_bytes()
    assert kept == (tmp_path / "good").read_bytes()
    assert [json.loads(line)["graph6"] for line in kept.splitlines()] == ["Bw", "Dh{", "Dh{", "Dh{"]


def test_scan_bad_line_keeps_earlier_records_in_a_pool(capsys, tmp_path):
    # the bad line shares its pool chunk with the two good lines before it
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"Bw\nDh{\nZZZ\n")
    for jobs in ("1", "2"):
        code, _, err = run(capsys, "scan", str(corpus), "--jobs", jobs, "--out", str(tmp_path / jobs))
        assert code == 2
        assert "line 3" in err
    kept = (tmp_path / "2").read_bytes()
    assert kept == (tmp_path / "1").read_bytes()
    assert len(kept.splitlines()) == 4


def test_bad_jobs_is_exit_1(capsys, tmp_path, monkeypatch):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"Bw\n")
    for value in ("0", "-2", "x", "1.5"):
        code, _, err = run(capsys, "scan", str(corpus), "--jobs", value)
        assert code == 1, value
        assert "--jobs" in err
    for value in ("x", "0"):
        monkeypatch.setenv("TERW_JOBS", value)
        code, _, err = run(capsys, "scan", str(corpus))
        assert code == 1, value
        assert "TERW_JOBS" in err
    # an explicit --jobs wins over the variable
    assert run(capsys, "scan", str(corpus), "--jobs", "1")[0] == 0
    monkeypatch.setenv("TERW_JOBS", "1")
    assert run(capsys, "scan", str(corpus))[0] == 0


def test_streamed_scan_output_is_the_report(capsys, tmp_path):
    from terw.pipeline import emit_report, scan_corpus

    lines = [write_graph6(g) for g in (gen_cycle(5), gen_delta(5), gen_delta(6))]
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"\n".join(lines) + b"\n")
    code, out, _ = run(capsys, "scan", str(corpus), "--jobs", "1")
    assert code == 0
    assert out.encode() == emit_report(scan_corpus(lines, jobs=1), "jsonl")


def test_compute_bad_file_line_names_it(capsys, tmp_path):
    graphs = tmp_path / "c.g6"
    graphs.write_bytes(b"Bw\nDh{\nZZZ\n")
    code, _, err = run(capsys, "compute", "--graph", f"@{graphs}")
    assert code == 2
    assert "line 3" in err


def test_compute_disconnected_file_line_names_it(capsys, tmp_path):
    # C? is four isolated vertices; the literal value keeps the bare message
    graphs = tmp_path / "c.g6"
    graphs.write_bytes(b"Bw\nC?\nCh\n")
    code, out, err = run(capsys, "compute", "--graph", f"@{graphs}")
    assert (code, out) == (2, "")
    assert "input error: line 2: classification needs a connected graph" in err
    code, _, err = run(capsys, "compute", "--graph", "C?")
    assert code == 2
    assert "input error: classification needs a connected graph" in err


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
