"""Generation: known counts pin isomorph-freeness and completeness."""

import hashlib
import os
import tempfile

import pytest

from etdom import GraphError, enumerate_circulants, generate, generate_connected
from etdom._kernel import BACKEND
from etdom.canon import canonical_form, canonical_graph
from etdom.generate import (
    GenerationBudgetError,
    Layer,
    _LayerWriter,
    generate_packed,
    graph_layers,
)
from etdom.graph6 import encode, encode_packed, unpack
from etdom.graphs import (
    Graph,
    is_connected,
    is_cubic,
    is_maximal_triangle_free,
    is_triangle_free,
)

# unlabelled graph counts, connected and all, per order
CONNECTED_ALL = [1, 1, 2, 6, 21, 112, 853, 11117, 261080]
TOTAL_ALL = [1, 2, 4, 11, 34, 156, 1044, 12346, 274668]
TOTAL_TRIANGLE_FREE = [1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172, 105071]
CONNECTED_TRIANGLE_FREE = [1, 1, 1, 3, 6, 19, 59, 267, 1380, 9832, 90842]
CONNECTED_CUBIC = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}
CONNECTED_MTF = {5: 3, 7: 6, 9: 16}

SLOW_N_ALL = 9 if BACKEND == "fast" else 8
SLOW_N_TF = 11 if BACKEND == "fast" else 9
SLOW_N_CUBIC = 14 if BACKEND == "fast" else 10


def test_connected_counts():
    for n in range(1, SLOW_N_ALL + 1):
        assert sum(1 for _ in generate_connected(n)) == CONNECTED_ALL[n - 1]


def test_layer_totals_include_disconnected():
    for layers_seen, layer in enumerate(graph_layers(8, "all"), start=1):
        assert len(layer) == TOTAL_ALL[layers_seen - 1]


def test_triangle_free_layer_totals():
    for n, layer in enumerate(graph_layers(min(SLOW_N_TF, 10), "triangle_free"), start=1):
        assert len(layer) == TOTAL_TRIANGLE_FREE[n - 1]
        assert layer.n == n
        if n <= 7:
            for p in layer:
                assert is_triangle_free(Graph(n, unpack(n, p)))


def test_triangle_free_connected_counts():
    for n in range(1, SLOW_N_TF + 1):
        got = sum(1 for _ in generate_connected(n, "triangle_free"))
        assert got == CONNECTED_TRIANGLE_FREE[n - 1]


def test_maximal_triangle_free_counts():
    for n, want in CONNECTED_MTF.items():
        graphs = list(generate_connected(n, "maximal_triangle_free"))
        assert len(graphs) == want
        assert all(is_maximal_triangle_free(g) for g in graphs)


def test_cubic_counts():
    for n, want in CONNECTED_CUBIC.items():
        if n > SLOW_N_CUBIC:
            continue
        graphs = list(generate_connected(n, "cubic"))
        assert len(graphs) == want
        assert all(is_cubic(g) and is_connected(g) for g in graphs)


def test_cubic_odd_or_tiny_is_empty():
    assert list(generate_connected(5, "cubic")) == []
    assert list(generate_connected(2, "cubic")) == []


# SHA-256 of the "\n"-joined graph6 lines of generate_connected(n, "cubic"):
# `etdom gen n cubic` must keep both its order and the labelling the ladder
# builds each graph with, byte for byte
CUBIC_SHA256 = {
    4: "d65ffb1d8d01ba8a6be14162941989d6f211d5c778d7f4fe75935f77dd1cadbe",
    6: "165f84f8b58394c7d35f2eedc53c68b4e5fe29dc120852dee06ccbee4486e937",
    8: "c1ca7e2260ea11c3ff3d30613248eda6e6ead2c3841c28a288040329b4d6e527",
    10: "4df73885a3223d7535cf81f94f8ed2bfce31cafb8881179145f3511510000591",
    12: "001c0de3a2d66101aa26c9b6634ac7d662cd6877746ea6a6f94cb5a2f343f651",
    14: "79e0ad288fcd86e722519c54db512e81741730f911c2f5180933d3850a7f5659",
}


def test_cubic_order_and_labelling_are_pinned():
    top = 14 if BACKEND == "fast" else 12
    for n, want in CUBIC_SHA256.items():
        if n > top:
            continue
        graphs = list(generate_connected(n, "cubic"))
        forms = [canonical_form(g) for g in graphs]
        assert all(a < b for a, b in zip(forms, forms[1:])), n
        lines = "\n".join(encode(g) for g in graphs)
        assert hashlib.sha256(lines.encode("ascii")).hexdigest() == want, n


def test_no_duplicates_and_constraints():
    for constraint, n in (("all", 7), ("triangle_free", 8)):
        forms = [canonical_form(g) for g in generate_connected(n, constraint)]
        assert len(forms) == len(set(forms))
    for g in generate_connected(8, "triangle_free"):
        assert is_triangle_free(g) and is_connected(g)


def test_generation_deterministic():
    a = [canonical_form(g) for g in generate_connected(7)]
    b = [canonical_form(g) for g in generate_connected(7)]
    assert a == b


def test_generation_parallel_matches_serial():
    serial = [canonical_form(g) for g in generate_connected(7, workers=1)]
    parallel = [canonical_form(g) for g in generate_connected(7, workers=4)]
    assert serial == parallel


def test_generation_order_is_sorted_canonical_graph6():
    for constraint, top in (("all", 8), ("triangle_free", 9),
                            ("maximal_triangle_free", min(11, SLOW_N_TF))):
        for n in range(1, top + 1):
            lines = []
            for g in generate_connected(n, constraint):
                line = encode(g)
                assert encode(canonical_graph(g)) == line
                lines.append(line)
            assert all(a < b for a, b in zip(lines, lines[1:])), (constraint, n)


def test_gen_lines_come_from_packed_ints():
    # etdom gen writes graph6 straight from generate_packed; the lines
    # must be those of generate_connected, in the same order
    for n, constraint in ((7, "all"), (8, "triangle_free"), (9, "maximal_triangle_free"),
                          (10, "cubic")):
        assert [encode_packed(n, p) for p in generate_packed(n, constraint)] == [
            encode(g) for g in generate_connected(n, constraint)], constraint


@pytest.mark.parametrize("workers", [1, 2])
def test_spilled_layers_match_unspilled(monkeypatch, tmp_path, workers):
    cases = ((8, "all"), (9, "triangle_free"))
    want = {case: [encode(g) for g in generate_connected(*case)] for case in cases}
    monkeypatch.setattr(generate, "SPILL_LINES", 50)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    for case in cases:
        assert [encode(g) for g in generate_connected(*case, workers=workers)] == want[case]
    assert list(tmp_path.glob("etdom-layer-*")) == []
    spilled = 0
    for n, layer in enumerate(graph_layers(8, "all", workers=workers), start=1):
        assert len(layer) == TOTAL_ALL[n - 1]
        assert sum(1 for _ in layer) == len(layer)
        if len(layer) > 50:
            assert layer.packed is None and os.path.exists(layer.path)
            spilled += 1
    assert spilled == 3  # orders 6, 7 and 8
    del layer
    assert list(tmp_path.glob("etdom-layer-*")) == []


def test_layer_discard_empties_both_kinds(monkeypatch, tmp_path):
    in_ram = Layer(3, packed=[0, 1, 3])
    in_ram.discard()
    assert (len(in_ram), list(in_ram), in_ram.packed) == (0, [], None)
    monkeypatch.setattr(generate, "SPILL_LINES", 2)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    writer = _LayerWriter(3)
    writer.extend([0, 1, 3])
    writer.extend([7])
    spilled = writer.finish()
    assert spilled.packed is None and os.path.exists(spilled.path)
    assert (len(spilled), list(spilled)) == (4, [0, 1, 3, 7])
    spilled.discard()
    assert (len(spilled), list(spilled)) == (0, [])
    assert list(tmp_path.iterdir()) == []


def test_budget_refused():
    with pytest.raises(GenerationBudgetError):
        next(generate_connected(11, "all"))
    with pytest.raises(GenerationBudgetError):
        next(generate_connected(16, "triangle_free", allow_large=True))
    with pytest.raises(GraphError):
        next(generate_connected(5, "nonsense"))


def test_enumerate_circulants_examples():
    labels4 = [s.label() for s in enumerate_circulants(4)]
    assert labels4 == ["C4[1]", "C4[1,2]"]
    labels5 = [s.label() for s in enumerate_circulants(5)]
    assert labels5 == ["C5[1]", "C5[1,2]"]
    labels13 = [s.label() for s in enumerate_circulants(13)]
    assert "C13[1,3,4]" in labels13 and "C13[1,2,3,5]" in labels13


def test_enumerate_circulants_isomorph_free():
    for n in (8, 12, 15):
        specs = enumerate_circulants(n)
        from etdom.constructions import circulant

        forms = [canonical_form(circulant(s)) for s in specs]
        assert len(forms) == len(set(forms))
        assert all(is_connected(circulant(s)) for s in specs)
