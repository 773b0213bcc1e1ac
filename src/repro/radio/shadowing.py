"""Spatially correlated log-normal shadowing.

Obstructions (furniture, people, walls not explicitly modelled) impose
a slowly varying dB-scale offset on top of path loss.  The classic
model is zero-mean Gaussian shadowing with standard deviation sigma and
exponential spatial autocorrelation (Gudmundson's model):

    rho(delta_x) = exp(-|delta_x| / d_corr)

We evaluate the field lazily on a grid of seeded cells so that a given
(position, link) pair always sees the same shadowing value - a static
phone therefore sees a *constant* shadowing offset, with only fast
fading and sampling noise varying scan to scan, which is what the
paper's static traces (Figs 4-6) show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.sim.rng import derive_seed

__all__ = ["ShadowingField"]


@dataclass
class ShadowingField:
    """Deterministic spatial shadowing field for one transmitter.

    Each transmitter gets its own field (keyed by ``link_seed``).  The
    plane is divided into square cells of ``correlation_distance_m``;
    each cell's value is drawn from N(0, sigma^2) using a seed derived
    from the cell coordinates, and bilinear interpolation between cell
    centres yields a continuous field with approximately the desired
    correlation length.

    Attributes:
        sigma_db: shadowing standard deviation in dB.
        correlation_distance_m: Gudmundson correlation distance.
        link_seed: seed namespace for this transmitter's field.
    """

    sigma_db: float = 3.0
    correlation_distance_m: float = 2.0
    link_seed: int = 0
    _cells: Dict[Tuple[int, int], float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.sigma_db < 0.0:
            raise ValueError(f"sigma_db must be >= 0, got {self.sigma_db}")
        if self.correlation_distance_m <= 0.0:
            raise ValueError(
                "correlation_distance_m must be positive, got "
                f"{self.correlation_distance_m}"
            )

    def _cell_value(self, ix: int, iy: int) -> float:
        key = (ix, iy)
        if key not in self._cells:
            seed = derive_seed(self.link_seed, f"shadow:{ix}:{iy}")
            rng = np.random.default_rng(seed)
            self._cells[key] = float(rng.normal(0.0, self.sigma_db))
        return self._cells[key]

    def sample(self, x: float, y: float) -> float:
        """Shadowing offset in dB at position ``(x, y)`` metres.

        Deterministic: the same position always yields the same offset.
        """
        if self.sigma_db == 0.0:
            return 0.0
        gx = x / self.correlation_distance_m
        gy = y / self.correlation_distance_m
        ix, iy = int(np.floor(gx)), int(np.floor(gy))
        fx, fy = gx - ix, gy - iy
        v00 = self._cell_value(ix, iy)
        v10 = self._cell_value(ix + 1, iy)
        v01 = self._cell_value(ix, iy + 1)
        v11 = self._cell_value(ix + 1, iy + 1)
        top = v00 * (1 - fx) + v10 * fx
        bottom = v01 * (1 - fx) + v11 * fx
        return top * (1 - fy) + bottom * fy

    def sample_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`sample` over arrays of positions.

        Cell values come from the same seeded cache as the scalar
        path, so ``sample_many(xs, ys)[i] == sample(xs[i], ys[i])``
        exactly.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self.sigma_db == 0.0:
            return np.zeros(xs.shape)
        gx = xs / self.correlation_distance_m
        gy = ys / self.correlation_distance_m
        ix = np.floor(gx).astype(int)
        iy = np.floor(gy).astype(int)
        fx, fy = gx - ix, gy - iy
        # Distinct corner cells are few (positions cluster within a
        # building), so fill the cache once per unique cell and gather
        # every corner lookup from the deduplicated value table.  Each
        # cell has one integer key, row-major over the corners'
        # bounding box, so the keys sort in (ix, iy) order.
        x0, y0 = ix.min(initial=0), iy.min(initial=0)
        height = iy.max(initial=0) - y0 + 2
        key = (ix - x0) * height + (iy - y0)
        keys = np.concatenate([key, key + height, key + 1, key + height + 1], axis=None)
        uniq, inverse = np.unique(keys, return_inverse=True)
        cells = zip((uniq // height + x0).tolist(), (uniq % height + y0).tolist())
        values = np.array([self._cell_value(a, b) for a, b in cells], dtype=float)
        corners = values[inverse].reshape((4,) + xs.shape)
        v00, v10, v01, v11 = corners
        top = v00 * (1 - fx) + v10 * fx
        bottom = v01 * (1 - fx) + v11 * fx
        return top * (1 - fy) + bottom * fy
