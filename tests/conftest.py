"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def transform_calls(monkeypatch):
    """Count the np.fft.rfftn and np.fft.irfftn calls made from now on.

    ``transform_calls["n"]`` holds the count; set it to 0 to restart.
    """
    calls = {"n": 0}
    for name in ("rfftn", "irfftn"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, **kwargs):
            calls["n"] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
