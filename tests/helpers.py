"""Shared test helpers."""

from dataclasses import replace

import numpy as np

from safereach.dynamics import FieldHandle


def negated(f: FieldHandle) -> FieldHandle:
    """The field -f, for building test hulls; a declared matrix is negated too."""
    inner = f.fn
    return replace(f, fn=lambda x: -np.asarray(inner(x), dtype=float), name=f"-{f.name}",
                   matrix=None if f.matrix is None else -f.matrix)
