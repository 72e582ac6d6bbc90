"""Closed-form reference expressions for the seven benchmark spaces.

The gamma forms are functions of the integrand exponent; the phi and delta
forms read the free entries of a dual point in its original coordinates.
They are used as golden oracles against both computation paths.  So are
the seven hand-written block realizations in data/butterfly_realizations.json
(an orthogonal u and a block structure per benchmark class, with exact
symbolic entries), which the package derives instead, and
``rho_star_identity``, the adjoint action of a triangular element on the
identity by plain matrix products.
"""

import json
import math
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from homcone.realization import VStructure

LOG_2PI = np.log(2.0 * np.pi)
LOG_2 = np.log(2.0)


GAMMA_LOG = {
    "G1": lambda a: 3.0 * LOG_2PI + gammaln(a + 1.0) + 2.0 * gammaln(a + 1.5)
    + 2.0 * gammaln(a + 2.0),
    "G2": lambda a: 2.0 * LOG_2PI + 2.0 * gammaln(a + 1.0) + 2.0 * gammaln(a + 1.5)
    + gammaln(a + 2.0),
    "G3": lambda a: 1.5 * LOG_2PI + (-4.0 * a - 2.5) * LOG_2 + gammaln(2.0 * a + 2.0)
    + gammaln(2.0 * a + 1.5) + gammaln(a + 1.0),
    "G4": lambda a: 2.0 * LOG_2PI + 2.0 * gammaln(a + 1.0) + 2.0 * gammaln(a + 1.5)
    + gammaln(a + 2.0),
    "G5": lambda a: 1.5 * LOG_2PI + (-4.0 * a - 2.5) * LOG_2 + gammaln(2.0 * a + 2.0)
    + gammaln(2.0 * a + 1.5) + gammaln(a + 1.0),
    "G6": lambda a: LOG_2PI + 3.0 * gammaln(a + 1.0) + 2.0 * gammaln(a + 1.5),
    "G7": lambda a: 0.5 * LOG_2PI + (-4.0 * a - 1.5) * LOG_2 + gammaln(2.0 * a + 1.0)
    + gammaln(2.0 * a + 1.5) + gammaln(a + 1.0),
}


def _logdet(m):
    sign, val = np.linalg.slogdet(np.asarray(m, dtype=float))
    assert sign > 0
    return val


def log_delta_g1(y):
    # hub entry splits the determinant over the two triangle blocks
    return -np.log(y[2, 2]) + _logdet(y[np.ix_([0, 1, 2], [0, 1, 2])]) + _logdet(
        y[np.ix_([2, 3, 4], [2, 3, 4])]
    )


def log_phi_g1(y):
    return np.log(y[2, 2]) - 2.0 * _logdet(y[np.ix_([0, 1, 2], [0, 1, 2])]) - 2.0 * _logdet(
        y[np.ix_([2, 3, 4], [2, 3, 4])]
    )


def log_phi_g2(y):
    a, b, c = y[0, 0], y[0, 1], y[0, 2]
    d, e, f = y[2, 2], y[2, 3], y[2, 4]
    g, h, i = y[3, 3], y[3, 4], y[4, 4]
    r2 = np.sqrt(2.0)
    return (
        np.log(d)
        - np.log(a - b)
        - 1.5 * _logdet([[a + b, r2 * c], [r2 * c, d]])
        - 2.0 * _logdet([[d, e, f], [e, g, h], [f, h, i]])
    )


def log_phi_g3(y):
    a, b, c = y[0, 0], y[1, 1], y[2, 2]
    d, e, f = y[0, 1], y[0, 2], y[1, 2]
    return -2.0 * _logdet([[a, d, e], [d, b, f], [e, f, c]])


def log_phi_g4(y):
    a, b, c = y[0, 0], y[1, 1], y[2, 2]
    d, e, f = y[0, 1], y[0, 2], y[1, 2]
    g, h, i = y[2, 3], y[3, 3], y[3, 4]
    r2 = np.sqrt(2.0)
    return (
        np.log(c)
        - np.log(h - i)
        - 1.5 * _logdet([[h + i, r2 * g], [r2 * g, c]])
        - 2.0 * _logdet([[a, d, e], [d, b, f], [e, f, c]])
    )


def log_phi_g5(y):
    return log_phi_g3(y)


def log_phi_g6(y):
    a, b, c = y[0, 0], y[0, 1], y[0, 2]
    d, e = y[2, 2], y[2, 3]
    f, g = y[3, 3], y[3, 4]
    r2 = np.sqrt(2.0)
    return (
        np.log(d)
        - np.log(a - b)
        - np.log(f - g)
        - 1.5 * _logdet([[a + b, r2 * c], [r2 * c, d]])
        - 1.5 * _logdet([[f + g, r2 * e], [r2 * e, d]])
    )


def log_phi_g7(y):
    a, c, d = y[0, 0], y[0, 1], y[0, 2]
    b = y[2, 2]
    r2 = np.sqrt(2.0)
    return -np.log(a - c) - 1.5 * _logdet([[a + c, r2 * d], [r2 * d, b]])


PHI_LOG = {
    "G1": log_phi_g1,
    "G2": log_phi_g2,
    "G3": log_phi_g3,
    "G4": log_phi_g4,
    "G5": log_phi_g5,
    "G6": log_phi_g6,
    "G7": log_phi_g7,
}


# ---------------------------------------------------------------------------
# the hand-written realizations of the seven benchmark classes

SYMBOLS = {
    "0": 0.0,
    "1": 1.0,
    "-1": -1.0,
    "1/sqrt2": 1.0 / math.sqrt(2.0),
    "-1/sqrt2": -1.0 / math.sqrt(2.0),
}


class GoldenRealization(NamedTuple):
    model_id: str
    u: np.ndarray
    structure: VStructure


def _matrix(rows) -> np.ndarray:
    return np.array([[SYMBOLS[tok] for tok in row] for row in rows])


@lru_cache(maxsize=1)
def golden_realizations() -> tuple[GoldenRealization, ...]:
    """The stored realizations of G1..G7, in class order."""
    path = Path(__file__).parent / "data" / "butterfly_realizations.json"
    out = []
    for raw in json.loads(path.read_text())["entries"]:
        subs = {
            tuple(int(tok) for tok in key.split(",")): np.array([_matrix(m) for m in mats])
            for key, mats in raw["subspaces"].items()
        }
        out.append(GoldenRealization(raw["id"], _matrix(raw["u"]),
                                     VStructure(raw["block_sizes"], subs)))
    return tuple(out)


def golden_by_id() -> dict[str, GoldenRealization]:
    return {g.model_id: g for g in golden_realizations()}


def rho_star_identity(t_elem) -> np.ndarray:
    """Image of the identity under the adjoint action: projection of T^T T."""
    t = t_elem.matrix()
    return t_elem.structure.project(t.T @ t)
