"""Independence complexes: faces, f-vectors, looped vertices, and windowed enumeration."""

from indtopo import graphs as gr
from indtopo.complexes import faces_in_window, independence_complex

# Ind(C_5): independent sets of the 5-cycle
K = independence_complex(gr.cycle(5))
print("f-vector of Ind(C_5):", K.f_vector())
print("dimension:", K.dim, "| total faces:", K.total_faces)
print("facets:", K.facets())
print("reduced Euler characteristic:", K.euler_characteristic_reduced())

# faces are stored per dimension as sorted label tuples
print("edges of Ind(C_5):", K.faces(1))

# a looped vertex sits in no independent set
G = gr.add_loop(gr.path(3), 2)
print("Ind(P_3 + loop at 2) faces:", independence_complex(G).f_vector())

# windowed enumeration: nothing above the dimensions a Betti range needs.
# For big instances this is the difference between feasible and not.
G = gr.categorical_product(gr.categorical_product(gr.complete(2), gr.complete(3)),
                           gr.complete(4))
fw = faces_in_window(G, 2, 4)   # the 5-skeleton
print("K_2 x K_3 x K_4, faces in dimensions 1..5:",
      [fw.face_count(d) for d in range(1, 6)])
full = independence_complex(G)
print("versus full complex:", full.total_faces, "faces")

# the enumerator refuses to blow past a face budget
try:
    independence_complex(G, face_budget=100)
except Exception as e:
    print("guard tripped:", e)
