"""Built-in five-vertex benchmark: two triangles glued at a hub vertex.

The graph carries the examination-marks conditional independence structure
(mechanics, vectors, algebra, analysis, statistics).  Its automorphism group
is dihedral of order 8 with ten subgroups inducing seven distinct invariant
spaces.  The package data stores only the graph and generators of the ten
named subgroups; which subgroups share a space and each space's block
realization are derived (``selection.build_models``, ``realization.realize``).
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .graphs import Graph, Permutation, PermutationGroup, graph_from_dict


@lru_cache(maxsize=1)
def butterfly_registry() -> dict:
    """The benchmark's package data, parsed once per process: the graph and
    the named subgroups' generators as cycle strings."""
    text = resources.files("homcone").joinpath("data/butterfly_registry.json").read_text()
    return json.loads(text)


def butterfly_graph() -> Graph:
    return graph_from_dict(butterfly_registry()["graph"])


def butterfly_subgroups() -> dict[str, PermutationGroup]:
    """The ten symmetry subgroups, keyed G1..G10."""
    data = butterfly_registry()
    degree = len(data["graph"]["labels"])
    out = {}
    for name, gens in data["subgroup_generators"].items():
        perms = [Permutation.from_cycle_string(s, degree) for s in gens]
        out[name] = PermutationGroup.generate(degree, perms)
    return out
