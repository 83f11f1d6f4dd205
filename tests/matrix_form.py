"""The descent objective's matrix form, which tests compare the polynomial residual against."""

import numpy as np

from patchflow.core import ParametricMotion, polynomial_matrices


def taylor_terms(model: ParametricMotion, deltas: np.ndarray):
    """M(delta) plus its two partial derivatives, each (N, K, d, d)."""
    b1, b2, b11, b22, b12 = model.coeffs
    m = polynomial_matrices(model.coeffs, deltas)
    d1 = deltas[:, 0][:, None, None, None]
    d2 = deltas[:, 1][:, None, None, None]
    dm1 = b1[None] + 2.0 * d1 * b11[None] + d2 * b12[None]
    dm2 = b2[None] + 2.0 * d2 * b22[None] + d1 * b12[None]
    return m, dm1, dm2
