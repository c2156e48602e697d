"""Each test starts with no kept queue rows: a run then steps its queue
whatever ran before it, and a test that patches the kernel's stepping
sees its patch."""

import pytest

import driftopt.solver


@pytest.fixture(autouse=True)
def _empty_queue_cache():
    driftopt.solver._KEPT.clear()
