"""Shared fixtures."""

import pytest

from allpath.simnet import Engine


@pytest.fixture
def bridge_arrivals(monkeypatch):
    """trace + [bridge] of every frame a bridge receives, whether the bridge
    then forwards or drops it; the loop-freedom oracle reads these."""
    arrivals = []
    at_bridge = Engine._frame_at_bridge

    def watched(eng, now, bridge_id, ingress, frame):
        arrivals.append(frame.trace + [bridge_id])
        at_bridge(eng, now, bridge_id, ingress, frame)

    monkeypatch.setattr(Engine, "_frame_at_bridge", watched)
    return arrivals
