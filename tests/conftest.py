"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from levymfg import grid, measures


@pytest.fixture
def transform_calls(monkeypatch):
    """Count the real transform calls made from now on.

    The counted calls are those of the real pocketfft kernels that the
    grid's transform pair reads at call time, ``grid._rfft_kernel`` and
    ``grid._irfft_kernel``: one per call of ``_rfft`` or ``_irfft`` on any
    grid (the complex kernels a 2D pair adds are not counted).
    ``transform_calls["n"]`` holds the count and ``transform_calls["rows"]``
    the product of the leading axes of each inverse kernel's input, every
    axis but the last: the grid-sized rows it inverted on a 1D grid (each
    row of a 2D grid counts its n_0 lines).  Set them to 0 to restart.
    """
    calls = {"n": 0, "rows": 0}

    def inverse_rows(spec):
        calls["rows"] += int(np.prod(np.shape(spec)[:-1]))

    for name, rows in (("_rfft_kernel", None),
                       ("_irfft_kernel", inverse_rows)):
        real = getattr(grid, name)

        def counted(a, *args, _real=real, _rows=rows, **kwargs):
            calls["n"] += 1
            if _rows is not None:
                _rows(a)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(grid, name, counted)
    return calls


@pytest.fixture
def chain_sup_rows(monkeypatch):
    """Row counts of every ``measures._chain_sup`` call from now on."""
    rows, chain_sup = [], measures._chain_sup

    def counted(weights, dx):
        rows.append(len(weights))
        return chain_sup(weights, dx)

    monkeypatch.setattr(measures, "_chain_sup", counted)
    return rows
