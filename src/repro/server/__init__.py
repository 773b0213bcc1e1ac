"""Building Management System server.

Replaces the paper's Raspberry Pi + Flask/Tornado prototype with an
in-process equivalent: an in-memory database for sightings and
fingerprints, a REST-like request router (the Flask RESTful interface),
and the BMS service that trains the classifier and answers occupancy
queries.
"""

from repro.server.database import Database, Table
from repro.server.rest import HttpError, Request, Response, Router
from repro.server.fingerprints import FingerprintStore
from repro.server.bms import BuildingManagementServer, OccupancySnapshot
from repro.server.client import BmsApiError, BmsClient, RoomHistory
from repro.server.deployment import DeploymentManager, DeploymentReport
from repro.server.history import OccupancyHistory
from repro.server.persistence import load_calibration, save_calibration
from repro.server.replay import ReplayReport, replay_wal, server_from_manifest

__all__ = [
    "Database",
    "Table",
    "HttpError",
    "Request",
    "Response",
    "Router",
    "FingerprintStore",
    "BuildingManagementServer",
    "OccupancySnapshot",
    "BmsApiError",
    "BmsClient",
    "RoomHistory",
    "DeploymentManager",
    "DeploymentReport",
    "OccupancyHistory",
    "load_calibration",
    "save_calibration",
    "ReplayReport",
    "replay_wal",
    "server_from_manifest",
]
