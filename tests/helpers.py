"""Shared test helpers."""

from dataclasses import replace

import numpy as np

from safereach.dynamics import FieldHandle


def negated(f: FieldHandle) -> FieldHandle:
    """The field -f, for building test hulls."""
    inner = f.fn
    return replace(f, fn=lambda x: -np.asarray(inner(x), dtype=float), name=f"-{f.name}")
