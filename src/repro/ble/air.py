"""The air interface: advertisements observed through the RF channel.

Glues together the floor plan (beacon placement + wall oracle), the
advertisers' schedules and the statistical channel model.  Scanners ask
it: *given a receiver at these positions during this listening window,
which advertisements were received and at what RSSI?*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.ble.advertiser import Advertiser
from repro.building.floorplan import FloorPlan
from repro.building.geometry import Point
from repro.ibeacon.packet import IBeaconPacket
from repro.obs import profiling
from repro.radio.channel import ChannelModel
from repro.radio.devices import DeviceRadioProfile

__all__ = ["Sighting", "AdvertisingWindow", "AirInterface"]

#: Callable giving the receiver position at a time (mobility binding).
PositionFn = Callable[[float], Point]


@dataclass(frozen=True)
class Sighting:
    """One received advertisement.

    Attributes:
        time: reception time, seconds.
        beacon_id: ``"major-minor"`` id of the transmitter.
        packet: the decoded iBeacon payload.
        rssi: received signal strength, dBm (device-quantised).
        true_distance_m: ground-truth transmitter-receiver distance at
            reception time (kept for evaluation, never shown to the
            classifier).
        payload: the raw 30-byte advertisement as transmitted; the
            phone stack decodes it via the protocol sniffer rather
            than trusting simulator objects.
    """

    time: float
    beacon_id: str
    packet: IBeaconPacket
    rssi: float
    true_distance_m: float
    payload: bytes = b""


@dataclass(frozen=True)
class AdvertisingWindow:
    """Every advertisement on the air in ``[t_start, t_end)``.

    Samples are beacon-major: each advertiser's schedule in turn.
    ``segments`` holds ``(start, end, advertiser index)`` for every
    advertiser with traffic; ``time_order`` is the stable argsort of
    ``times`` (reception order).  Nothing here depends on the
    receiver, so one window serves every phone that scans it.
    """

    t_start: float
    t_end: float
    times: np.ndarray
    tx_ids: List[str]
    tx_xy: np.ndarray
    tx_power_dbm: np.ndarray
    segments: Tuple[Tuple[int, int, int], ...]
    time_order: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


class AirInterface:
    """Samples the channel for every advertisement in a window.

    Args:
        plan: floor plan with installed beacons (also provides the
            wall oracle unless the channel already has one).
        channel: the statistical channel; if its ``wall_oracle`` is
            unset, the plan's :meth:`~repro.building.floorplan.FloorPlan.wall_losses`
            is installed.

    The interface holds only the latest :class:`AdvertisingWindow`:
    in-step scanners share it, and memory stays bounded.
    """

    def __init__(self, plan: FloorPlan, channel: Optional[ChannelModel] = None) -> None:
        self.plan = plan
        self.channel = channel if channel is not None else ChannelModel()
        if self.channel.wall_oracle is None:
            self.channel.wall_oracle = plan.wall_losses
        beacons = plan.beacons
        self.advertisers: List[Advertiser] = [Advertiser(placement=b) for b in beacons]
        self._ids = [b.beacon_id for b in beacons]
        self._tx_xy = np.array([b.position.as_tuple() for b in beacons]).reshape(-1, 2)
        self._tx_power = np.array([b.effective_radiated_power_dbm for b in beacons])
        self._packets = {b.beacon_id: b.packet for b in beacons}
        # Encode each beacon's payload once; every advertisement of a
        # beacon carries identical bytes.
        self._payloads = {b.beacon_id: b.packet.encode() for b in beacons}
        self._window: Optional[AdvertisingWindow] = None

    def window(self, t_start: float, t_end: float) -> AdvertisingWindow:
        """The advertisements in ``[t_start, t_end)``, built once per window."""
        held = self._window
        if held is not None and (held.t_start, held.t_end) == (t_start, t_end):
            profiling.tick("ble.air.window_hit")
            return held
        profiling.tick("ble.air.window_miss")
        per_adv = [adv.times_in(t_start, t_end) for adv in self.advertisers]
        counts = [len(ts) for ts in per_adv]
        index = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        ends = np.cumsum(counts, dtype=np.int64).tolist()
        times = np.array([t for ts in per_adv for t in ts], dtype=float)
        self._window = AdvertisingWindow(
            t_start=t_start,
            t_end=t_end,
            times=times,
            tx_ids=[self._ids[k] for k in index.tolist()],
            tx_xy=self._tx_xy[index],
            tx_power_dbm=self._tx_power[index],
            segments=tuple(
                (end - c, end, k) for k, (c, end) in enumerate(zip(counts, ends)) if c
            ),
            time_order=np.argsort(times, kind="stable"),
        )
        return self._window

    def observe(
        self,
        position_fn: PositionFn,
        device: DeviceRadioProfile,
        t_start: float,
        t_end: float,
        rng: np.random.Generator,
    ) -> List[Sighting]:
        """All advertisements received in ``[t_start, t_end)``.

        Args:
            position_fn: receiver position as a function of time (the
                receiver may be moving during the window).
            device: receiver radio profile.
            t_start: window start, seconds.
            t_end: window end, seconds.
            rng: random stream for fading/noise/loss draws.

        Returns:
            Sightings sorted by reception time.

        The shared :meth:`window` goes through one
        :meth:`~repro.radio.channel.ChannelModel.link_budget_many`
        call; only the receiver positions and the random draws are
        this phone's own.
        """
        with profiling.measure("ble.air.observe"):
            window = self.window(t_start, t_end)
            if not len(window):
                return []
            times = window.times.tolist()
            rx_positions = [position_fn(t).as_tuple() for t in times]
            batch = self.channel.link_budget_many(
                window.tx_ids,
                window.tx_xy,
                rx_positions,
                window.tx_power_dbm,
                device,
                rng,
            )
            order, ids = window.time_order, window.tx_ids
            rssi, distance = batch.rssi.tolist(), batch.distance_m.tolist()
            return [
                Sighting(
                    time=times[i],
                    beacon_id=ids[i],
                    packet=self._packets[ids[i]],
                    rssi=rssi[i],
                    true_distance_m=distance[i],
                    payload=self._payloads[ids[i]],
                )
                for i in order[batch.received[order]].tolist()
            ]
