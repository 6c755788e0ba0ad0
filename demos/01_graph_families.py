"""
Graph families tour
===================

Builds each generator in indtopo.graphs, prints the headline counts, and
round-trips one instance through the two file formats.
"""

import tempfile

from indtopo import graphs as gr

# basic families: vertices are labeled 1..n
K4 = gr.complete(4)
P5 = gr.path(5)
C7 = gr.cycle(7)
print("K4:", K4.vertex_count, "vertices,", K4.edge_count, "edges")
print("P5:", P5.vertex_count, "vertices,", P5.edge_count, "edges")
print("C7:", C7.vertex_count, "vertices,", C7.edge_count, "edges")

# the looped path 0-1-...-r carries a self-loop at 0
L2 = gr.looped_path(2)
print("L2 loops:", [v for v in L2.vertices if L2.is_looped(v)])

# categorical product: (g,h) ~ (g',h') iff g~g' and h~h'
prod = gr.categorical_product(gr.complete(3), gr.complete(3))
print("K3 x K3:", prod.vertex_count, "vertices,", prod.edge_count, "edges")
# (1,1) and (2,2) differ in both coordinates, so they are adjacent
print("(1,1) ~ (2,2):", prod.has_edge((1, 1), (2, 2)))
print("(1,1) ~ (1,2):", prod.has_edge((1, 1), (1, 2)))

# the generalized Mycielskian stacks r levels and glues an apex "w"
M = gr.generalized_mycielskian(gr.complete(3), 3)
print("M_3(K3):", M.vertex_count, "vertices,", M.edge_count, "edges")
print("apex neighbors:", [v for v in M.vertices if v in M.neighbors(gr.APEX)])

# M_r(K_2) is an odd cycle in disguise
for r in (1, 2, 3, 4):
    M = gr.generalized_mycielskian(gr.complete(2), r)
    degrees = {len(M.neighbors(v)) for v in M.vertices}
    print(f"M_{r}(K2): {M.vertex_count} vertices, degrees {degrees}",
          "(cycle of length %d)" % (2 * r + 1))

# tower gadget: the first j levels of a Mycielskian tower plus one pinned vertex
I = gr.tower_gadget(4, 1, 3)
print("tower_gadget(4,1,3):", I.vertex_count, "vertices,", I.edge_count, "edges")
print("top vertex present:", (1, 3) in I.vertices, "| pruned sibling:", (2, 3) in I.vertices)

# cycles with i ladder rungs inserted
CL = gr.cycle_ladder(6, 2)
print("cycle_ladder(6,2):", CL.vertex_count, "vertices,", CL.edge_count, "edges")

# file round trip, both formats
with tempfile.TemporaryDirectory() as tmp:
    for name in ("demo.json", "demo.edges"):
        path = f"{tmp}/{name}"
        gr.save_graph(prod, path)
        back = gr.load_graph(path)
        assert back == prod
        print("round trip ok:", name)
