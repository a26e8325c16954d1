"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def transform_calls(monkeypatch):
    """Count the np.fft.rfftn and np.fft.irfftn calls made from now on.

    ``transform_calls["n"]`` holds the count and ``transform_calls["rows"]``
    the number of grid-sized rows the ``irfftn`` calls inverted (every axis
    outside ``axes`` counts); set them to 0 to restart.
    """
    calls = {"n": 0, "rows": 0}

    def inverse_rows(a, s=None, axes=None, **kwargs):
        shape = np.shape(a)
        if axes is None:
            axes = range(len(shape)) if s is None else range(-len(s), 0)
        inverted = {ax % len(shape) for ax in axes}
        calls["rows"] += int(np.prod([n for ax, n in enumerate(shape)
                                      if ax not in inverted]))

    for name in ("rfftn", "irfftn"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls["n"] += 1
            if _name == "irfftn":
                inverse_rows(*args, **kwargs)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
