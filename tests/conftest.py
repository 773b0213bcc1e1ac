"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.building.presets import single_room, test_house, two_room_corridor
from repro.server.rest import HttpError, Router


@pytest.fixture
def rng():
    """A deterministic generator for channel draws in tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def lab_plan():
    """Single-room plan with one beacon."""
    return single_room()


@pytest.fixture
def corridor_plan():
    """Two rooms, one beacon each."""
    return two_room_corridor()


@pytest.fixture
def house_plan():
    """The five-room classification test house."""
    return test_house()


def _backpressured_router(reject_first_n, retry_after_s=0.5):
    """A router that 429s the first N dispatches, then accepts.

    Speaks the 429 + ``retry_after_s`` backpressure wire format; records
    every dispatched request in ``router.seen`` so tests can check the
    retry's advanced logical time.
    """
    router = Router()
    router.seen = []
    state = {"remaining": reject_first_n}

    def guard(request):
        router.seen.append(request)
        if state["remaining"] > 0:
            state["remaining"] -= 1
            raise HttpError(
                429,
                "ingress queue full",
                extra={"retry_after_s": retry_after_s},
            )

    @router.route("POST", "/sightings")
    def post(request, params):
        guard(request)
        return {"room": "kitchen"}

    @router.route("POST", "/sightings/batch")
    def post_batch(request, params):
        guard(request)
        return {
            "rooms": ["kitchen"] * len(request.body["sightings"]),
            "count": len(request.body["sightings"]),
        }

    return router


@pytest.fixture
def backpressured_router():
    """Factory: ``backpressured_router(reject_first_n, retry_after_s=0.5)``."""
    return _backpressured_router
