"""
Reductions and closed-form predictions
======================================

reduce() rewrites a graph by homotopy-preserving moves (fold dominated
vertices, split at simplicial vertices, drop looped vertices, add an edge
when the residual complex is a cone) until the independence complex is
recognized as a wedge of spheres or nothing fires anymore.  predict() gives
the closed form for each built-in family; the two must agree.
"""

from indtopo import graphs as gr
from indtopo.families import FamilySpec, build_graph
from indtopo.homology import graph_betti
from indtopo.homotopy import Stuck, predict, reduce

# a tower gadget at floor 3 folds all the way down to a point
result, trace = reduce(gr.tower_gadget(3, 1, 3))
print("gadget(3,3) reduces to:", result.render(), f"({len(trace)} steps)")
for step in trace[:4]:
    print("  ", step)
print("   ...")

# C_6 needs the cone-certified edge addition before folds finish the job
result, trace = reduce(gr.cycle(6))
print("C_6 reduces to:", result.render())
print("  rules used:", [t["rule"] for t in trace])

# C_5 is the honest failure case: no rule applies, so the engine says so
# instead of guessing
result, _ = reduce(gr.cycle(5))
assert isinstance(result, Stuck)
print("C_5:", result.reason, "-", result.graph.vertex_count, "vertices left")

# complete graphs split at any vertex into n-1 suspension branches
result, trace = reduce(gr.complete(5))
print("K_5 reduces to:", result.render())

# predictions for every family, spot-checked against computed homology
specs = [
    FamilySpec("product", (3, 5)),
    FamilySpec("kn_lr", (3, 3)),
    FamilySpec("kn_lr", (3, 4)),
    FamilySpec("mycielskian", (4, 4)),
    FamilySpec("gadget", (4, 5)),
    FamilySpec("cycle_ladder", (7, 2)),
    FamilySpec("path", (11,)),
    FamilySpec("cycle", (9,)),
]
print()
print("family              predicted           computed")
for spec in specs:
    pr = predict(spec)
    computed = graph_betti(build_graph(spec)).nonzero()
    ok = pr.homotopy.betti() == computed
    print(f"{spec.describe():<19} {pr.homotopy.render():<19} {computed}  {'ok' if ok else 'MISMATCH'}")
    assert ok

# conjectural predictions are labeled as such
pr = predict(FamilySpec("conjecture_k2k3kn", (4,)))
print()
print("conjecture_k2k3kn 4:", pr.homotopy.render(), "| conjectural:", pr.conjectural)
