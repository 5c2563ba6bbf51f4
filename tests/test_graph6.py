import random

import pytest

from etdom import Graph6Error, decode, encode, from_edges, read_stream
from etdom.canon import are_isomorphic
from etdom.graph6 import pack, unpack
from etdom.graphs import complete_graph, cycle_graph

from conftest import rand_graph


def payload_bits_oracle(line: str):
    """The order and the n(n-1)/2 payload bits of a graph6 line, in line order."""
    if line[0] == "~":
        n = (ord(line[1]) - 63) << 12 | (ord(line[2]) - 63) << 6 | (ord(line[3]) - 63)
        payload = line[4:]
    else:
        n = ord(line[0]) - 63
        payload = line[1:]
    bits = []
    for ch in payload:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    return n, bits[:n * (n - 1) // 2]


def decode_bits_oracle(line: str):
    """Independently decode via flat bit indexing: bit t of the payload
    is the upper-triangle entry with column-major rank t."""
    n, bits = payload_bits_oracle(line)
    edges = []
    t = 0
    for col in range(1, n):
        for row in range(col):
            if bits[t]:
                edges.append((row, col))
            t += 1
    return n, edges


def test_decode_duw():
    g = decode("DUW")
    assert g.n == 5
    assert set(g.edges()) == {(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)}
    assert are_isomorphic(g, cycle_graph(5))


def test_decode_size_prefix():
    assert decode("IEhbtj{ro").n == 10


def test_encode_named_values():
    assert encode(from_edges(1, [])) == "@"
    assert encode(from_edges(2, [])) == "A?"
    assert encode(from_edges(2, [(0, 1)])) == "A_"


def test_round_trip_exhaustive_n_le_5():
    for n in range(0, 6):
        for code in range(1 << (n * (n - 1) // 2)):
            adj = [0] * n
            t = 0
            for col in range(1, n):
                for row in range(col):
                    if code >> t & 1:
                        adj[row] |= 1 << col
                        adj[col] |= 1 << row
                    t += 1
            from etdom.graphs import Graph

            g = Graph(n, tuple(adj))
            assert decode(encode(g)) == g


def test_round_trip_random_to_40():
    rng = random.Random(97)
    for _ in range(300):
        g = rand_graph(rng, rng.randint(1, 40), rng.random())
        line = encode(g)
        assert decode(line) == g
        assert len(line) == 1 + (g.n * (g.n - 1) // 2 + 5) // 6


def test_decode_against_bit_oracle():
    rng = random.Random(131)
    for _ in range(200):
        g = rand_graph(rng, rng.randint(2, 30), rng.random())
        line = encode(g)
        n, edges = decode_bits_oracle(line)
        assert n == g.n
        assert set(edges) == set(g.edges())


def test_pack_property_0_to_64():
    rng = random.Random(4099)
    for n in range(0, 65):
        graphs = [rand_graph(rng, n, rng.random()) for _ in range(6)]
        packed = [pack(n, g.adj) for g in graphs]
        lines = [encode(g, _allow_long=True) for g in graphs]
        for g, p, line in zip(graphs, packed, lines):
            assert unpack(n, p) == g.adj
            m, bits = payload_bits_oracle(line)
            assert m == n
            assert p == int("".join(map(str, bits)) or "0", 2)
            _, edges = decode_bits_oracle(line)
            assert sorted(edges) == sorted(g.edges())
        order = range(len(graphs))
        assert sorted(order, key=lambda i: (packed[i], i)) == sorted(
            order, key=lambda i: (lines[i], i))


def test_unpack_rejects_extra_bits():
    assert unpack(3, 0b111) == complete_graph(3).adj
    with pytest.raises(Graph6Error):
        unpack(3, 0b1000)
    with pytest.raises(Graph6Error):
        unpack(2, -1)


def test_long_form_size_parses():
    short = encode(cycle_graph(5))
    long_form = "~??" + chr(63 + 5) + short[1:]
    assert decode(long_form) == decode(short)


def test_strict_padding_rejected():
    # n=2: one payload bit used, so anything in the five pad bits is bad
    bad = "A" + chr(63 + 16)
    with pytest.raises(Graph6Error):
        decode(bad)


def test_malformed_inputs_rejected():
    with pytest.raises(Graph6Error):
        decode("")
    with pytest.raises(Graph6Error):
        decode("D")  # truncated payload
    with pytest.raises(Graph6Error):
        decode("DUW?")  # payload too long
    with pytest.raises(Graph6Error):
        decode("D" + chr(200) + "UW"[1:])  # byte out of range
    with pytest.raises(Graph6Error):
        decode(chr(70 + 63) + "?")  # order above the engine cap (n=70)
    with pytest.raises(Graph6Error):
        decode("~??")  # long-form size needs three bytes after '~'


def test_read_stream_basics():
    got = list(read_stream(["DUW", "@"]))
    assert [i for i, _ in got] == [0, 1]
    assert are_isomorphic(got[0][1], cycle_graph(5))
    assert got[1][1].n == 1


def test_read_stream_skips_header_and_blanks():
    got = list(read_stream([">>graph6<<", "", "DUW", "   "]))
    assert len(got) == 1
    assert got[0][0] == 0


def test_read_stream_error_modes():
    with pytest.raises(Graph6Error, match="line 2"):
        list(read_stream(["DUW", "D"]))
    got = list(read_stream(["DUW", "D", "@"], on_error="skip"))
    assert [i for i, _ in got] == [0, 2]


def test_encode_rejects_large_without_flag():
    with pytest.raises(Graph6Error):
        encode(complete_graph(63))
    line = encode(complete_graph(63), _allow_long=True)
    assert decode(line).n == 63


def test_read_appendix_pair():
    got = list(read_stream(["IEhbtj{ro", "IEhbtn{ro"]))
    assert len(got) == 2
    assert all(g.n == 10 for _, g in got)
    # the second differs from the first by exactly one extra edge
    assert got[1][1].edge_count() == got[0][1].edge_count() + 1
