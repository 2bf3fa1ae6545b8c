"""The literal columns ``1, x, ..., x**(d-1), exp(x)`` as a user space.

``exponential_space`` spans the same functions with well-conditioned
columns.  The literal columns lose numerical rank from about ``d = 6`` on
[0, 1], so they still reach the gates the operator search and the build
apply to an ill-conditioned basis: the tests that exercise those gates
use this space.
"""

from __future__ import annotations

import numpy as np

from sbpkit.spaces import FunctionSpace, Interval


def literal_exponential_space(degree: int, interval: Interval) -> FunctionSpace:
    """Monomials ``1, x, ..., x**(degree-1)`` plus ``exp(x)``, labelled ``exp:d=``."""

    def values(x):
        x = np.asarray(x, dtype=float)
        return np.column_stack([x**k for k in range(degree)] + [np.exp(x)])

    def derivatives(x):
        x = np.asarray(x, dtype=float)
        powers = [k * x ** (k - 1) for k in range(1, degree)]
        return np.column_stack([np.zeros_like(x)] + powers + [np.exp(x)])

    return FunctionSpace(interval, values, derivatives, kind=f"exp:d={degree}")
