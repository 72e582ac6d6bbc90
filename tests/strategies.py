"""Hypothesis strategies for generated dual points, shared by the tests."""

import numpy as np
from hypothesis import strategies as st


@st.composite
def gram_points(draw, p, log10_cond=(0.0, 6.0)):
    """A A^T + eps I for an integer p x m matrix A, with eps = lambda_max / 10^c:
    condition number up to about 10^c before projection."""
    m = draw(st.integers(1, p))
    a = np.array(draw(st.lists(st.integers(-9, 9), min_size=p * m, max_size=p * m)))
    a = a.reshape(p, m).astype(float)
    c = draw(st.floats(*log10_cond))
    top = max(1.0, float(np.linalg.eigvalsh(a @ a.T)[-1]))
    return a @ a.T + top * 10.0 ** -c * np.eye(p)
