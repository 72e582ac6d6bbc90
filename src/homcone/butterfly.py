"""Built-in five-vertex benchmark: two triangles glued at a hub vertex.

The graph carries the examination-marks conditional independence structure
(mechanics, vectors, algebra, analysis, statistics).  Its automorphism group
is dihedral of order 8 with ten subgroups inducing seven distinct invariant
spaces.  The registry is package data and stores only what cannot be
derived: the graph, generators of the ten named subgroups, and for each
distinct space an orthogonal matrix and a block structure realizing the
cone, with exact symbolic entries (0, +-1, +-1/sqrt(2)) rendered to floats
at load time.  Which subgroups share a space is computed, not stored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import CapabilityError
from .graphs import Graph, Permutation, PermutationGroup, graph_from_dict
from .invariant import InvariantSpace, build_invariant_space
from .realization import VStructure

_SYMBOLS = {
    "0": 0.0,
    "1": 1.0,
    "-1": -1.0,
    "1/sqrt2": 1.0 / math.sqrt(2.0),
    "-1/sqrt2": -1.0 / math.sqrt(2.0),
}


@dataclass(frozen=True, eq=False)
class RegistryEntry:
    model_id: str
    u: np.ndarray
    structure: VStructure


def _parse_matrix(rows) -> np.ndarray:
    try:
        return np.array([[_SYMBOLS[tok] for tok in row] for row in rows])
    except KeyError as exc:
        raise ValueError(f"unknown registry symbol {exc.args[0]!r}") from None


@lru_cache(maxsize=1)
def _default_data() -> dict:
    """The registry shipped as package data, parsed once per process."""
    text = resources.files("homcone").joinpath("data/butterfly_registry.json").read_text()
    return json.loads(text)


def butterfly_graph() -> Graph:
    return graph_from_dict(_default_data()["graph"])


def butterfly_subgroups() -> dict[str, PermutationGroup]:
    """The ten symmetry subgroups, keyed G1..G10."""
    data = _default_data()
    degree = len(data["graph"]["labels"])
    out = {}
    for name, gens in data["subgroup_generators"].items():
        perms = [Permutation.from_cycle_string(s, degree) for s in gens]
        out[name] = PermutationGroup.generate(degree, perms)
    return out


def butterfly_registry() -> list[RegistryEntry]:
    """The seven realization entries, one per distinct invariant space."""
    entries = []
    for raw in _default_data()["entries"]:
        subs = {
            key: [_parse_matrix(m) for m in mats] for key, mats in raw["subspaces"].items()
        }
        structure = VStructure.from_dict({"block_sizes": raw["block_sizes"], "subspaces": subs})
        entries.append(RegistryEntry(raw["id"], _parse_matrix(raw["u"]), structure))
    return entries


def registry_spaces() -> list[tuple[RegistryEntry, InvariantSpace, tuple[str, ...]]]:
    """Each registry entry with its invariant space and the named subgroups
    that share the space.

    The ten named subgroups, in G1..G10 order, fall into classes of equal
    orbit partition, which is what ``same_space`` compares; each class is
    labelled by its first member.  The entries must be exactly one per class
    label, else CapabilityError.  Triples come in class order.
    """
    graph = butterfly_graph()
    classes: dict[tuple, list[str]] = {}
    spaces = {}
    for name, group in butterfly_subgroups().items():
        spaces[name] = build_invariant_space(graph, group)
        classes.setdefault(spaces[name].orbits, []).append(name)
    members = {names[0]: tuple(names) for names in classes.values()}
    registry = butterfly_registry()
    ids = sorted(entry.model_id for entry in registry)
    if ids != sorted(members):
        raise CapabilityError(f"registry entries {ids} are not one per distinct-space "
                              f"class {list(members.values())}")
    entries = {entry.model_id: entry for entry in registry}
    return [(entries[label], spaces[label], names) for label, names in members.items()]
