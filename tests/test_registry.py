import json
import math

import numpy as np
import pytest

import homcone as hc
from homcone.butterfly import (
    butterfly_graph,
    butterfly_registry,
    butterfly_subgroups,
)
from homcone.graphs import Permutation, PermutationGroup, automorphism_group, enumerate_subgroups
from homcone.errors import CapabilityError
from homcone.invariant import same_space
from homcone.realization import conjugate_space

from closed_forms import GAMMA_LOG


def test_graph_shape():
    g = butterfly_graph()
    assert g.vertex_count == 5
    assert g.edge_list() == [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]
    assert g.labels == ("Mechanics", "Vectors", "Algebra", "Analysis", "Statistics")


def test_subgroup_table_is_the_full_lattice():
    g = butterfly_graph()
    aut = automorphism_group(g)
    named = butterfly_subgroups()
    assert len(named) == 10
    assert named["G10"] == aut
    assert named["G1"].order == 1
    enumerated = {frozenset(h.elements) for h in enumerate_subgroups(aut)}
    assert {frozenset(h.elements) for h in named.values()} == enumerated


def test_named_generators():
    named = butterfly_subgroups()
    assert named["G7"].order == 4
    tau = Permutation.from_cycle_string("(1 5 2 4)", 5)
    assert tau in named["G7"]
    assert named["G3"] == PermutationGroup.generate(
        5, [Permutation.from_cycle_string("(1 5)(2 4)", 5)]
    )


def test_models_merge_named_subgroups_of_equal_space(models, spaces):
    # the classes the registry used to store, now derived from the spaces
    assert {m.label: m.merged_labels for m in models} == {
        "G1": ("G1",), "G2": ("G2",), "G3": ("G3",), "G4": ("G4",),
        "G5": ("G5",), "G6": ("G6", "G8"), "G7": ("G7", "G9", "G10"),
    }
    for m in models:
        for member in m.merged_labels:
            assert same_space(m.space, spaces[member])
    reps = [m.space for m in models]
    assert not any(same_space(a, b) for i, a in enumerate(reps) for b in reps[:i])


@pytest.mark.parametrize("edit", [
    lambda entries: entries[5].update(id="G8"),  # G8 shares G6's space, labelled G6
    lambda entries: entries.append(dict(entries[0])),  # G1 twice
    lambda entries: entries.pop(),  # G7 missing
], ids=["member-not-label", "duplicate", "missing"])
def test_models_reject_entries_that_are_not_class_labels(serve_registry, edit):
    shipped, serve = serve_registry
    edit(shipped["entries"])
    serve(json.dumps(shipped))
    with pytest.raises(CapabilityError, match="not one per distinct-space class"):
        hc.build_butterfly_models()


def test_registry_entries_cover_distinct_spaces():
    entries = butterfly_registry()
    assert [e.model_id for e in entries] == ["G1", "G2", "G3", "G4", "G5", "G6", "G7"]


def test_u_entries_are_signed_roots():
    allowed = {0.0, 1.0, -1.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)}
    for entry in butterfly_registry():
        for value in entry.u.ravel():
            assert value in allowed


def test_every_entry_conjugates_its_space(spaces):
    for entry in butterfly_registry():
        real = conjugate_space(spaces[entry.model_id], entry.u, entry.structure)
        assert real.structure.dim == spaces[entry.model_id].dim


def test_structure_dims():
    dims = {e.model_id: e.structure.dim for e in butterfly_registry()}
    assert dims == {"G1": 11, "G2": 9, "G3": 6, "G4": 9, "G5": 6, "G6": 7, "G7": 4}


def test_gamma_matches_closed_forms(models_by_id):
    for key, form in GAMMA_LOG.items():
        real = models_by_id[key].realization
        for alpha in (0.0, 0.25, 1.0, 10.0):
            assert abs(real.log_gamma(alpha) - form(alpha)) < 1e-10


def test_registry_rejects_unknown_symbol(serve_registry):
    shipped, serve = serve_registry
    shipped["entries"][0]["u"][0][0] = "2"
    serve(json.dumps(shipped))
    with pytest.raises(ValueError, match="unknown registry symbol"):
        butterfly_registry()
