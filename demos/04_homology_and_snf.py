"""Exact homology: mod-2 ranks, integer invariant factors, torsion, windows."""

from indtopo import graphs as gr
from indtopo.complexes import from_facets, independence_complex
from indtopo.homology import betti_reduced, betti_window, graph_betti, smith_normal_form

# Smith normal form over the integers, exact arithmetic throughout
snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
print("invariant factors:", snf.factors, "| rank:", snf.rank)

# mod-2 and integer homology agree on torsion-free complexes; graph_betti
# walks Ind(G) itself, keeps the faces whose columns it must read (case 3)
# and only counts the others
print("Ind(C_7) mod 2:   ", graph_betti(gr.cycle(7), coefficients="z2").render())
print("Ind(C_7) integer: ", graph_betti(gr.cycle(7), coefficients="int").render())

# betti_reduced takes any complex and builds every column not cleared
K = independence_complex(gr.cycle(7))
assert betti_reduced(K, coefficients="int") == graph_betti(gr.cycle(7), coefficients="int")

# the projective plane shows why the two routes both exist: its integer
# homology has a 2-torsion class that mod-2 sees as extra rank
RP2 = from_facets(range(1, 7), [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)])
z2 = betti_reduced(RP2, coefficients="z2")
zz = betti_reduced(RP2, coefficients="int")
print("RP^2 mod 2:", z2.nonzero(), "| integer:", zz.nonzero(), "| torsion:", zz.torsion)

# windowed homology computes a Betti range without the full complex.
# Here: dimension 2..4 of a three-factor product, mod 2; graph_betti(G,
# "int", window=(2, 4)) gives the same window over Z.
G = gr.categorical_product(gr.categorical_product(gr.complete(2), gr.complete(3)),
                           gr.complete(4))
table = betti_window(G, 2, 4)
print("K_2 x K_3 x K_4 in window 2..4:", {d: table.value(d) for d in (2, 3, 4)})

# full-range table for the same graph, for comparison
full = graph_betti(G)
print("full range:", full.nonzero())
print()
print(full.render())
