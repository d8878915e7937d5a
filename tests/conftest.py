import time

import pytest


@pytest.fixture
def sleeps(monkeypatch):
    """The seconds of every `time.sleep` call, which returns at once."""
    seen = []
    monkeypatch.setattr(time, "sleep", seen.append)
    return seen
