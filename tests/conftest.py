import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest

import homcone as hc
from homcone import butterfly as butterfly_module
from homcone import selection as selection_module


@pytest.fixture(scope="session")
def butterfly():
    return hc.butterfly_graph()


@pytest.fixture(scope="session")
def subgroups():
    return hc.butterfly_subgroups()


@pytest.fixture(scope="session")
def spaces(butterfly, subgroups):
    return {k: hc.build_invariant_space(butterfly, v) for k, v in subgroups.items()}


@pytest.fixture(scope="session")
def models():
    return hc.build_butterfly_models()


@pytest.fixture(scope="session")
def models_by_id(models):
    return {m.label: m for m in models}


@pytest.fixture(scope="session")
def exam_data():
    return hc.exam_marks_summary()


@pytest.fixture
def dual_point():
    """Factory for random interior dual points of a space."""

    def make(space, rng, scale=1.0):
        a = rng.standard_normal((space.p, space.p))
        return scale * space.project(a @ a.T + 0.1 * np.eye(space.p))

    return make


def _clear_registry_caches():
    butterfly_module.butterfly_registry.cache_clear()
    selection_module.build_butterfly_models.cache_clear()


@pytest.fixture
def serve_registry(monkeypatch, tmp_path):
    """Serve the benchmark package data from a copy under tmp_path.

    Yields (shipped, serve): the shipped data, parsed, and a function that
    replaces the served JSON text and clears the parse and model caches.
    """
    shipped = butterfly_module.butterfly_registry()
    (tmp_path / "data").mkdir()
    path = tmp_path / "data" / "butterfly_registry.json"

    def serve(text):
        path.write_text(text)
        _clear_registry_caches()

    monkeypatch.setattr(butterfly_module, "resources", SimpleNamespace(files=lambda _: tmp_path))
    serve(json.dumps(shipped))
    yield copy.deepcopy(shipped), serve
    _clear_registry_caches()
