import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hand_graph6
from terw.errors import Graph6Error
from terw.graphs import Graph, gen_cycle, gen_path, iter_graph6_lines, parse_graph6, write_graph6


def test_triangle_is_Bw():
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert write_graph6(k3) == b"Bw"
    assert parse_graph6(b"Bw") == k3


def test_path3_is_Bg():
    # bit order (0,1)(0,2)(1,2) gives 101 -> byte 40+63
    assert write_graph6(gen_path(3)) == b"Bg"
    assert parse_graph6(b"Bg") == gen_path(3)


def test_single_vertex_is_at_sign():
    assert write_graph6(Graph(1)) == b"@"
    g = parse_graph6(b"@")
    assert g.n == 1 and g.num_edges() == 0


def test_header_prefix_is_skipped():
    assert parse_graph6(b">>graph6<<Bw") == parse_graph6(b"Bw")


def test_str_input_accepted():
    assert parse_graph6("Bw") == parse_graph6(b"Bw")


def test_multibyte_vertex_count():
    g = Graph(100, [(0, 99), (1, 2)])
    data = write_graph6(g)
    assert data[0] == 126
    assert parse_graph6(data) == g


@pytest.mark.parametrize(
    "bad",
    [
        b"",
        b"B",            # missing adjacency bytes
        b"Bww",          # trailing junk
        b"B\x1f\x1f",    # bytes below 63
        b"~~~",          # >= 258048 marker
        b"Bx",           # nonzero padding bits (x = 0b111001)
    ],
)
def test_malformed_inputs_raise(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_matches_hand_encoder_on_families():
    for g in [gen_path(7), gen_cycle(9), Graph(5), Graph(64, [(0, 63)])]:
        assert write_graph6(g) == hand_graph6(g)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 40), st.randoms(use_true_random=False))
def test_round_trip_random_graphs(n, rnd):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.4]
    g = Graph(n, edges)
    data = write_graph6(g)
    assert parse_graph6(data) == g
    assert data == hand_graph6(g)


def test_iter_graph6_lines_skips_blank_and_header():
    lines = [b"", b">>graph6<<", b"Bw", b"  ", b"Bg\n"]
    got = list(iter_graph6_lines(lines))
    assert [payload for _, payload in got] == [b"Bw", b"Bg"]
    assert [lineno for lineno, _ in got] == [3, 5]


def test_iter_graph6_lines_cuts_glued_header():
    assert list(iter_graph6_lines([">>graph6<<Bw\n", "Bg"])) == [(1, b"Bw"), (2, b"Bg")]


def test_from_bits_rejects_empty_vertex_set():
    with pytest.raises(ValueError, match="at least one vertex"):
        Graph.from_bits(())


def test_disconnected_round_trip():
    g = Graph(4, [(0, 1)])  # parser must accept disconnected graphs
    assert parse_graph6(write_graph6(g)) == g
