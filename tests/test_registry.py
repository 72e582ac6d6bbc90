import math

import numpy as np

from homcone.butterfly import (
    butterfly_graph,
    butterfly_registry,
    butterfly_subgroups,
)
from homcone.graphs import Permutation, PermutationGroup, automorphism_group, enumerate_subgroups
from homcone.invariant import same_space
from homcone.realization import conjugate_space
from homcone.selection import Hyperparams, log_I_terms

from closed_forms import GAMMA_LOG, golden_realizations


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


def test_package_data_holds_no_matrices():
    assert set(butterfly_registry()) == {"graph", "subgroup_generators"}


def test_registry_entries_cover_distinct_spaces(models):
    # the golden realizations, one per class, in class order
    assert [e.model_id for e in golden_realizations()] == [m.label for m in models]


def test_u_entries_are_signed_roots():
    allowed = {0.0, 1.0, -1.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)}
    for entry in golden_realizations():
        for value in entry.u.ravel():
            assert value in allowed


def test_every_entry_conjugates_its_space(spaces):
    for entry in golden_realizations():
        real = conjugate_space(spaces[entry.model_id], entry.u, entry.structure)
        assert real.structure.dim == spaces[entry.model_id].dim


def test_structure_dims(models_by_id):
    dims = {e.model_id: e.structure.dim for e in golden_realizations()}
    assert dims == {"G1": 11, "G2": 9, "G3": 6, "G4": 9, "G5": 6, "G6": 7, "G7": 4}
    assert {k: m.realization.structure.dim for k, m in models_by_id.items()} == dims


GOLDEN_RTOL = 1e-10


def test_derived_realizations_match_golden(models_by_id, exam_data):
    # block sizes up to order within a tier, the gamma factor, and log I at
    # the exam-marks prior and posterior points
    for entry in golden_realizations():
        m = models_by_id[entry.model_id]
        golden = conjugate_space(m.space, entry.u, entry.structure)
        derived = m.realization
        assert sorted(derived.structure.block_sizes) == sorted(entry.structure.block_sizes)
        for alpha in (0.0, 0.25, 1.0, 10.0):
            want = golden.log_gamma(alpha)
            assert abs(derived.log_gamma(alpha) - want) <= GOLDEN_RTOL * abs(want)
        for d in (1.0, 100.0, 10000.0):
            prior = Hyperparams(delta=3.0, scale=d * np.eye(5))
            post = Hyperparams(delta=3.0 + exam_data.n_effective,
                               scale=prior.scale + exam_data.scatter)
            for hyper in (prior, post):
                alpha = (hyper.delta - 2.0) / 2.0
                ld, lp = golden.log_delta_phi_at_scale(hyper.scale)
                want = golden.log_gamma(alpha) + lp - alpha * ld
                got = log_I_terms(m, hyper).log_I
                assert abs(got - want) <= GOLDEN_RTOL * abs(want), (entry.model_id, d)


def test_gamma_matches_closed_forms(models_by_id):
    for key, form in GAMMA_LOG.items():
        real = models_by_id[key].realization
        for alpha in (0.0, 0.25, 1.0, 10.0):
            assert abs(real.log_gamma(alpha) - form(alpha)) < 1e-10
