"""Named graph families with integer parameters, plus random labeled graphs.

A FamilySpec pins down one instance of a family (for example product 3 4) or
points at a graph file (family "custom-file").  Builders live here so the
command line, the verification harness, and tests all construct the exact
same labeled graphs.
"""

from dataclasses import dataclass
from random import Random

from . import graphs as gr
from .graphs import Graph

# family name -> (parameter count, human-readable parameter hint)
FAMILIES = {
    "product": (2, "m n (complete graphs, m, n >= 2)"),
    "multi_k2_product": (2, "r n (r-1 two-vertex factors and one K_n; r, n >= 2)"),
    "kn_lr": (2, "n r (K_n times looped path L_r; n >= 2, r >= 0)"),
    "gadget": (2, "n t (tower gadget over K_n, top level t; n >= 3, t >= 0)"),
    "mycielskian": (2, "n r (level-r Mycielskian of K_n; n >= 2, r >= 2)"),
    "path": (1, "n (n >= 1)"),
    "cycle": (1, "n (n >= 3)"),
    "cycle_ladder": (2, "n i (cycle C_n with an i-rung ladder; n >= 3, i >= 0)"),
    "conjecture_k2k3kn": (1, "n (K_2 x K_3 x K_n; n >= 2)"),
}

_DOMAINS = {
    "product": lambda m, n: m >= 2 and n >= 2,
    "multi_k2_product": lambda r, n: r >= 2 and n >= 2,
    "kn_lr": lambda n, r: n >= 2 and r >= 0,
    "gadget": lambda n, t: n >= 3 and t >= 0,
    "mycielskian": lambda n, r: n >= 2 and r >= 2,
    "path": lambda n: n >= 1,
    "cycle": lambda n: n >= 3,
    "cycle_ladder": lambda n, i: n >= 3 and i >= 0,
    "conjecture_k2k3kn": lambda n: n >= 2,
}


@dataclass(frozen=True)
class FamilySpec:
    """One family instance: name and integer parameters, or a graph file path."""

    family: str
    params: tuple = ()
    path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        if self.family == "custom-file":
            if not self.path:
                raise ValueError("custom-file spec needs a file path")
            return
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"known: {', '.join(sorted(FAMILIES))}")
        arity, hint = FAMILIES[self.family]
        if len(self.params) != arity:
            raise ValueError(f"{self.family} takes {arity} parameter(s): {hint}")
        if not _DOMAINS[self.family](*self.params):
            raise ValueError(f"{self.family} parameters out of range: {hint}")

    def describe(self) -> str:
        if self.family == "custom-file":
            return f"custom-file {self.path}"
        return " ".join([self.family, *map(str, self.params)])


def build_graph(spec: FamilySpec) -> Graph:
    """Construct the labeled graph this spec describes."""
    fam, p = spec.family, spec.params
    if fam == "custom-file":
        return gr.load_graph(spec.path)
    if fam == "product":
        m, n = p
        return gr.categorical_product(gr.complete(m), gr.complete(n))
    if fam == "multi_k2_product":
        r, n = p
        g = gr.complete(2)
        for _ in range(r - 2):
            g = gr.categorical_product(g, gr.complete(2))
        return gr.categorical_product(g, gr.complete(n))
    if fam == "kn_lr":
        n, r = p
        return gr.categorical_product(gr.complete(n), gr.looped_path(r))
    if fam == "gadget":
        n, t = p
        return gr.tower_gadget(n, 1, t)
    if fam == "mycielskian":
        n, r = p
        return gr.generalized_mycielskian(gr.complete(n), r)
    if fam == "path":
        return gr.path(p[0])
    if fam == "cycle":
        return gr.cycle(p[0])
    if fam == "cycle_ladder":
        return gr.cycle_ladder(*p)
    if fam == "conjecture_k2k3kn":
        n = p[0]
        k2k3 = gr.categorical_product(gr.complete(2), gr.complete(3))
        return gr.categorical_product(k2k3, gr.complete(n))
    raise ValueError(f"no builder for family {fam!r}")


def random_graph(n: int, rng: Random, p: float = 0.5) -> Graph:
    """Labeled random graph on vertices 1..n; each pair is an edge with probability p."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    verts = list(range(1, n + 1))
    edges = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]
             if rng.random() < p]
    return Graph(verts, edges)
