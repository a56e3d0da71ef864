"""Shared test helpers."""

from dataclasses import replace

import numpy as np

from safereach.dynamics import FieldHandle
from safereach.geometry import GeometryError
from safereach.solver import bundle_sweep


def negated(f: FieldHandle) -> FieldHandle:
    """The field -f, for building test hulls; a declared matrix is negated too."""
    inner = f.fn
    return replace(f, fn=lambda x: -np.asarray(inner(x), dtype=float), name=f"-{f.name}",
                   matrix=None if f.matrix is None else -f.matrix)


def selection_path(F, table, j, x0, T, direction, cfg):
    """The trajectory of selection j of a plan table from x0, swept alone as
    its column of D (a singleton's one selection is its field)."""
    switch_times, D = table
    column = (switch_times, None if D is None else D[:, j:j + 1])
    return bundle_sweep(F, column, x0, T, cfg, direction, record=True)[1][0]


def hausdorff_distance(A, B) -> float:
    """Max of the two directed sup-inf distances between finite point clouds,
    a reference distance for the tests; squared distances summed column by
    column, as the library's own pair distances are."""
    A, B = (np.atleast_2d(np.asarray(P, dtype=float)) for P in (A, B))
    if len(A) == 0 or len(B) == 0:
        raise GeometryError("empty set")
    d = np.sqrt(sum((A[:, j, None] - B[None, :, j]) ** 2 for j in range(A.shape[1])))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
