"""Shared fixtures; the inputs they build come from ``samples``."""
from __future__ import annotations

import pytest

from samples import sample_comps, sample_index


@pytest.fixture
def sample():
    """(index, comps) for the sample graph, k=1, reversed pinned order."""
    idx = sample_index(k=1)
    return idx, sample_comps(idx.graph)
