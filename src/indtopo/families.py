"""Named graph families with integer parameters, plus random labeled graphs.

FAMILIES is the one table of families: each name maps to a Family record
that holds the parameters and their domain, the builder, and the closed form
for Ind(G) with its provenance.  A FamilySpec pins down one family instance
(for example product 3 4).  The command line, the verification harness, and
tests all read the table, so they construct the exact same labeled graphs.
"""

from dataclasses import dataclass
from functools import reduce
from random import Random
from typing import Callable

from . import graphs as gr
from .graphs import Graph


@dataclass(frozen=True)
class Family:
    """One graph family, as FamilySpec, build_graph, homotopy.predict, the
    verify grids and the command line read it.

    ``domain`` maps each parameter name, in order, to its least allowed value.
    ``spheres`` is the closed form: the wedge of spheres Ind(G) is, as a
    {dim: count} map ({} is a point).  ``source`` says where the closed form
    comes from ("closed-form", "literature" or "conjecture"), or is a
    function of the parameters that says it.  ``morse_order`` is the sweep
    order of the family's Morse matching, as a function of the parameters;
    None means the graph's vertex order.
    """

    domain: dict
    hint: str
    build: Callable
    spheres: Callable
    source: str | Callable = "closed-form"
    morse_order: Callable | None = None

    @property
    def params(self) -> tuple:
        return tuple(self.domain)


def _complete_product(*sizes) -> Graph:
    """K_a x K_b x ..., the factors multiplied from the left."""
    return reduce(gr.categorical_product, map(gr.complete, sizes))


def _product_order(m, n):
    """First row, then first column of K_m x K_n: (1,1), ..., (1,n), (2,1), ..., (m,1)."""
    return [(1, j) for j in range(1, n + 1)] + [(i, 1) for i in range(2, m + 1)]


# -- closed forms ----------------------------------------------------------------

def _product(m, n):
    """Product of two complete graphs: (m-1)(n-1) circles."""
    return {1: (m - 1) * (n - 1)}


def _multi_k2_product(r, n):
    """Product of r-1 copies of K_2 with K_n: (n-1)^(2^(r-2)) spheres S^(2^(r-1)-1)."""
    return {2 ** (r - 1) - 1: (n - 1) ** (2 ** (r - 2))}


def _kn_lr(n, r):
    """K_n times the looped path L_r; contractible in the middle residue."""
    k, t = divmod(r, 3)
    if t == 0:
        return {2 * k: (n - 1) ** (k + 1)}
    if t == 1:
        return {}
    return {2 * k + 1: (n - 1) ** (k + 1)}


def _gadget(n, t):
    """Truncated-tower gadget over K_n with top parameter t."""
    k, s = divmod(t, 3)
    if s == 0:
        return {}
    if s == 1:
        return {2 * k: (n - 1) ** (k + 1)}
    return {2 * k + 1: (n - 1) ** (k + 1)}


def _path(n):
    """Path on n vertices: point or a single sphere by n mod 3."""
    k, t = divmod(n, 3)
    if t == 0:
        return {k - 1: 1}
    if t == 1:
        return {}
    return {k: 1}


def _cycle(n):
    """Cycle on n vertices; two spheres when 3 divides n, else one."""
    k, t = divmod(n, 3)
    if t == 0:
        return {k - 1: 2}
    if t == 1:
        return {k - 1: 1}
    return {k: 1}


def _mycielskian(n, r):
    """Level-r Mycielskian of K_n; n = 2 is the cycle C_(2r+1)."""
    if n == 2:
        return _cycle(2 * r + 1)
    k, t = divmod(r, 3)
    if t == 0:
        return {2 * k - 1: (n - 1) ** k}
    if t == 1:
        return {2 * k: n * (n - 1) ** k}
    return {2 * k + 1: (n - 1) ** (k + 1)}


def _cycle_ladder(n, i):
    """Cycle with an i-rung ladder at one vertex; i = 0 is the plain cycle."""
    if i == 0:
        return _cycle(n)
    r, t = divmod(n, 3)
    if t == 0:
        if i % 2 == 0:
            return {r - 1 + i // 2: 2}
        return {}
    if t == 1:
        if i % 2 == 1:
            return {r - 1 + (i + 1) // 2: 2}
        return {}
    if i == 1:
        return {r: 2}
    return {r + i // 2: 2}


def _conjecture_k2k3kn(n):
    """Conjectured type for K_2 x K_3 x K_n: (n-1)(3n-2) three-spheres."""
    return {3: (n - 1) * (3 * n - 2)}


FAMILIES = {
    "product": Family(
        {"m": 2, "n": 2}, "complete graphs, m, n >= 2",
        _complete_product, _product, morse_order=_product_order),
    "multi_k2_product": Family(
        {"r": 2, "n": 2}, "r-1 two-vertex factors and one K_n; r, n >= 2",
        lambda r, n: _complete_product(*[2] * (r - 1), n), _multi_k2_product),
    "kn_lr": Family(
        {"n": 2, "r": 0}, "K_n times looped path L_r; n >= 2, r >= 0",
        lambda n, r: gr.categorical_product(gr.complete(n), gr.looped_path(r)), _kn_lr),
    "gadget": Family(
        {"n": 3, "t": 0}, "tower gadget over K_n, top level t; n >= 3, t >= 0",
        lambda n, t: gr.tower_gadget(n, 1, t), _gadget),
    "mycielskian": Family(
        {"n": 2, "r": 2}, "level-r Mycielskian of K_n; n >= 2, r >= 2",
        lambda n, r: gr.generalized_mycielskian(gr.complete(n), r), _mycielskian,
        source=lambda n, r: "literature" if n == 2 else "closed-form"),
    "path": Family({"n": 1}, "n >= 1", gr.path, _path),
    "cycle": Family({"n": 3}, "n >= 3", gr.cycle, _cycle, source="literature"),
    "cycle_ladder": Family(
        {"n": 3, "i": 0}, "cycle C_n with an i-rung ladder; n >= 3, i >= 0",
        gr.cycle_ladder, _cycle_ladder,
        source=lambda n, i: "literature" if i == 0 else "closed-form"),
    "conjecture_k2k3kn": Family(
        {"n": 2}, "K_2 x K_3 x K_n; n >= 2",
        lambda n: _complete_product(2, 3, n), _conjecture_k2k3kn, source="conjecture"),
}


@dataclass(frozen=True)
class FamilySpec:
    """One family instance: family name and integer parameters."""

    family: str
    params: tuple = ()

    def __post_init__(self):
        fam = FAMILIES.get(self.family)
        if fam is None:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"known: {', '.join(sorted(FAMILIES))}")
        try:  # through str(), so a bool, float or None fails instead of coercing
            params = tuple(int(str(p)) for p in self.params)
        except (TypeError, ValueError):
            problem = "parameters must be integers"
        else:
            object.__setattr__(self, "params", params)
            if len(params) != len(fam.params):
                problem = f"takes {len(fam.params)} parameter(s)"
            elif any(p < least for p, least in zip(params, fam.domain.values())):
                problem = "parameters out of range"
            else:
                return
        raise ValueError(f"{self.family} {problem}: {' '.join(fam.params)} ({fam.hint})")

    def describe(self) -> str:
        return " ".join([self.family, *map(str, self.params)])


def build_graph(spec: FamilySpec) -> Graph:
    """Construct the labeled graph this spec describes."""
    return FAMILIES[spec.family].build(*spec.params)


def random_graph(n: int, rng: Random, p: float = 0.5) -> Graph:
    """Labeled random graph on vertices 1..n; each pair is an edge with probability p."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
    return Graph._from_edges(range(1, n + 1), edges)
