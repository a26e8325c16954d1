"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def transform_calls(monkeypatch):
    """Count the real transform calls made from now on.

    The counted calls are numpy's ``rfftn``/``irfftn`` and their 1D entry
    points ``rfft``/``irfft``, which the grid's transform pair takes on 1D
    grids.  ``transform_calls["n"]`` holds the count and
    ``transform_calls["rows"]`` the number of grid-sized rows the inverse
    calls inverted (every axis outside ``axes`` counts for ``irfftn``,
    every axis but ``axis`` for ``irfft``); set them to 0 to restart.
    """
    calls = {"n": 0, "rows": 0}

    def inverse_rows(a, s=None, axes=None, **kwargs):
        shape = np.shape(a)
        if axes is None:
            axes = range(len(shape)) if s is None else range(-len(s), 0)
        inverted = {ax % len(shape) for ax in axes}
        calls["rows"] += int(np.prod([n for ax, n in enumerate(shape)
                                      if ax not in inverted]))

    def inverse_rows_1d(a, n=None, axis=-1, **kwargs):
        inverse_rows(a, axes=(axis,))

    counters = {"rfftn": None, "irfftn": inverse_rows,
                "rfft": None, "irfft": inverse_rows_1d}
    for name, rows in counters.items():
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _rows=rows, **kwargs):
            calls["n"] += 1
            if _rows is not None:
                _rows(*args, **kwargs)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
