"""Built-in five-vertex benchmark: two triangles glued at a hub vertex.

The graph carries the examination-marks conditional independence structure
(mechanics, vectors, algebra, analysis, statistics).  Its automorphism group
is dihedral of order 8 with ten subgroups inducing seven distinct invariant
spaces.  For each distinct space the registry ships an orthogonal matrix and
a block structure realizing the cone, stored with exact symbolic entries
(0, +-1, +-1/sqrt(2)) and rendered to floats at load time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

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
    merged_ids: tuple[str, ...]
    u: np.ndarray
    structure: VStructure


def _parse_symbol(token: str) -> float:
    try:
        return _SYMBOLS[token]
    except KeyError:
        raise ValueError(f"unknown registry symbol {token!r}") from None


def _parse_matrix(rows) -> np.ndarray:
    return np.array([[_parse_symbol(tok) for tok in row] for row in rows])


def _default_registry_text() -> str:
    return (
        resources.files("homcone").joinpath("data/butterfly_registry.json").read_text()
    )


def load_registry_data(path=None) -> dict:
    if path is None:
        return json.loads(_default_registry_text())
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=1)
def _default_data() -> dict:
    return load_registry_data()


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


def merged_classes() -> dict[str, tuple[str, ...]]:
    return {k: tuple(v) for k, v in _default_data()["merged_classes"].items()}


def butterfly_registry(path=None) -> list[RegistryEntry]:
    """The seven realization entries, one per distinct invariant space."""
    data = _default_data() if path is None else load_registry_data(path)
    merged = {k: tuple(v) for k, v in data["merged_classes"].items()}
    entries = []
    for raw in data["entries"]:
        subs = {
            key: [_parse_matrix(m) for m in mats] for key, mats in raw["subspaces"].items()
        }
        structure = VStructure.from_dict({"block_sizes": raw["block_sizes"], "subspaces": subs})
        entries.append(
            RegistryEntry(
                model_id=raw["id"],
                merged_ids=merged.get(raw["id"], (raw["id"],)),
                u=_parse_matrix(raw["u"]),
                structure=structure,
            )
        )
    return entries


def registry_spaces(path=None) -> list[tuple[RegistryEntry, InvariantSpace]]:
    """Each registry entry with the invariant space of its subgroup."""
    graph = butterfly_graph()
    subgroups = butterfly_subgroups()
    return [
        (entry, build_invariant_space(graph, subgroups[entry.model_id]))
        for entry in butterfly_registry(path)
    ]
