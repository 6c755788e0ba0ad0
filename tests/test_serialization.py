"""Round trips for the graph file formats and the JSON dump shapes."""

import io
import json

import pytest

from indtopo import graphs as gr
from indtopo.complexes import independence_complex
from indtopo.homology import BettiTable, betti_reduced


def awkward_graph():
    """Isolated vertex, loop, nested tuple labels: the round-trip stress case."""
    return gr.Graph(
        [1, "w", (2, 1), ("L", (3, 1)), 5],
        [(1, (2, 1)), ("w", ("L", (3, 1)))],
        loops=[5],
        name="awkward",
    )


def test_graph_json_round_trip():
    G = awkward_graph()
    d = gr.graph_to_json_dict(G)
    back = gr.graph_from_json_dict(json.loads(json.dumps(d)))
    assert back == G and back.name == G.name
    assert back.vertices == G.vertices


def test_graph_json_dict_shape():
    d = gr.graph_to_json_dict(gr.cycle(3))
    assert d == {"vertices": [1, 2, 3], "edges": [[1, 2], [1, 3], [2, 3]],
                 "loops": [], "name": "C3"}


def test_edgelist_round_trip_keeps_everything():
    G = awkward_graph()
    buf = io.StringIO()
    gr.write_edgelist(G, buf)
    back = gr.read_edgelist(io.StringIO(buf.getvalue()))
    assert back == G           # name is not part of the text format
    text = buf.getvalue().splitlines()
    assert text[0] == "5 2 1"


def test_edgelist_rejects_malformed():
    for text in ["", "x y z", "2 1 0\n1\n2", "1 0 0\n1\nextra"]:
        with pytest.raises(ValueError):
            gr.read_edgelist(io.StringIO(text))


def test_edgelist_rejects_negative_counts():
    # "2 -1 1" would read b both as the second vertex and as a loop
    for text in ["2 -1 1\na\nb\n", "-1 0 0\n", "1 0 -1\na\n"]:
        with pytest.raises(ValueError, match="negative count"):
            gr.read_edgelist(io.StringIO(text))


def test_graph_json_rejects_malformed_documents():
    for doc, message in (([1, 2], "an object"), ("g", "an object"), ({"edges": []}, "vertices"),
                         ({"vertices": 5}, "'vertices' is not a list"),
                         ({"vertices": [1], "edges": {}}, "'edges' is not a list"),
                         ({"vertices": [1], "loops": "1"}, "'loops' is not a list"),
                         ({"vertices": [1, 2], "edges": [1]}, r"edge 1 is not a list of two"),
                         ({"vertices": [1, 2], "edges": [[1, 2, 3]]},
                          r"edge \[1, 2, 3\] is not a list of two"),
                         ({"vertices": [1], "name": ["x"]}, r"name \['x'\] is not a string")):
        with pytest.raises(ValueError, match=message):
            gr.graph_from_json_dict(doc)


def test_save_load_picks_format_from_extension(tmp_path):
    G = awkward_graph()
    for name in ["g.json", "g.edges"]:
        p = tmp_path / name
        gr.save_graph(G, str(p))
        assert gr.load_graph(str(p)) == G
    with pytest.raises(ValueError):
        gr.save_graph(G, str(tmp_path / "g.xml"), fmt="xml")


def test_save_json_is_stable_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    gr.save_graph(gr.tower_gadget(3, 1, 2), str(a))
    gr.save_graph(gr.tower_gadget(3, 1, 2), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_betti_table_json_and_csv():
    t = BettiTable({0: 0, 1: 2}, "int", torsion={1: (2, 4)})
    d = t.to_json_dict()
    assert d["coefficients"] == "int"
    assert d["betti"] == {"0": 0, "1": 2}
    assert d["torsion"] == {"1": [2, 4]}
    rows = t.csv_rows()
    assert rows == ["dimension,betti,torsion", "0,0,", "1,2,2;4"]
    # mod-2 dumps carry no torsion key
    assert "torsion" not in BettiTable({0: 1}, "z2").to_json_dict()


def test_windowed_table_json():
    d = BettiTable({2: 0, 3: 4}, "z2", window=(2, 3)).to_json_dict()
    assert d["window"] == [2, 3]


def test_betti_json_round_trips_through_text():
    t = betti_reduced(independence_complex(gr.cycle(6)))
    blob = json.dumps(t.to_json_dict(), sort_keys=True)
    assert json.loads(blob)["betti"]["1"] == 2
