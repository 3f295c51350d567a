"""The Figure 6 access pattern: multi-variable time-series data points.

File layout: ``points`` data-point blocks; each block holds every time
step of that point back to back (``timesteps`` slots of
``elems_per_point * element_size`` bytes).  One collective write per
time step: step ``t`` touches slot ``t`` of *every* point block, and
within a slot the processes interleave elements round-robin (element
``e`` belongs to process ``e % nprocs``) — "four processes access an
element each in every data point".

Note the aggregate access region of every time step spans essentially
the whole file (the slots are strided through all point blocks), which
is why non-persistent realms move only slightly between steps yet still
break cache ownership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datatypes.base import BYTE, Datatype
from repro.datatypes.constructors import contiguous, hindexed, resized
from repro.errors import CollectiveIOError

__all__ = ["TimeSeriesPattern"]


@dataclass(frozen=True)
class TimeSeriesPattern:
    """Figure 6/7 workload configuration (paper defaults)."""

    nprocs: int
    element_size: int = 32
    elems_per_point: int = 100
    points: int = 2048
    timesteps: int = 32

    def __post_init__(self) -> None:
        if min(self.nprocs, self.element_size, self.elems_per_point, self.points, self.timesteps) <= 0:
            raise CollectiveIOError("all time-series parameters must be positive")

    # -- geometry ---------------------------------------------------------
    @property
    def slot_bytes(self) -> int:
        """One time slice of one data point."""
        return self.elems_per_point * self.element_size

    @property
    def point_bytes(self) -> int:
        """One whole data-point block (all time steps)."""
        return self.slot_bytes * self.timesteps

    @property
    def file_bytes(self) -> int:
        return self.point_bytes * self.points

    @property
    def bytes_per_step(self) -> int:
        """Aggregate data written by one collective call."""
        return self.slot_bytes * self.points

    def my_elements(self, rank: int) -> np.ndarray:
        """Element indices within a slot owned by ``rank``."""
        if not 0 <= rank < self.nprocs:
            raise CollectiveIOError(f"rank {rank} out of range")
        return np.arange(rank, self.elems_per_point, self.nprocs, dtype=np.int64)

    def bytes_per_rank_per_step(self, rank: int) -> int:
        return int(self.my_elements(rank).size) * self.element_size

    # -- datatypes -----------------------------------------------------------
    def filetype(self, rank: int, step: int) -> Datatype:
        """Filetype for one rank at one time step (tiles over points)."""
        if not 0 <= step < self.timesteps:
            raise CollectiveIOError(f"step {step} out of range")
        elems = self.my_elements(rank)
        displs = (step * self.slot_bytes + elems * self.element_size).tolist()
        inner = hindexed([1] * len(displs), displs, contiguous(self.element_size, BYTE))
        return resized(inner, 0, self.point_bytes)

    def step_buffer(self, rank: int, step: int, *, seed: int = 0) -> np.ndarray:
        """Deterministic per-(rank, step) payload for verification."""
        n = self.bytes_per_rank_per_step(rank) * self.points
        base = (rank * 131 + step * 17 + seed) % 251
        return ((np.arange(n, dtype=np.int64) + base) % 251).astype(np.uint8)

    def describe(self) -> str:
        return (
            f"TimeSeries[{self.nprocs} procs, {self.element_size}B elems, "
            f"{self.elems_per_point}/point, {self.points} points, "
            f"{self.timesteps} steps, {self.bytes_per_step / 1e6:.2f} MB/step]"
        )

    def ascii_diagram(self, max_points: int = 3, max_steps: int = 3) -> str:
        """Render the access pattern the way the paper's Figure 6 draws
        it: data points across, time-slice slots down, one digit per
        element showing the owning rank."""
        pts = min(self.points, max_points)
        steps = min(self.timesteps, max_steps)
        owner = [e % self.nprocs for e in range(self.elems_per_point)]
        cell = "".join(f"{o % 10}" for o in owner)
        lines = [
            f"file layout ({pts} of {self.points} data points, "
            f"{steps} of {self.timesteps} time slices; digit = owning rank)"
        ]
        header = "          " + " ".join(f"point {p:<{len(cell) - 6}}" for p in range(pts))
        lines.append(header)
        for t in range(steps):
            lines.append(f"slot t{t:<2}:  " + " ".join(cell for _ in range(pts)))
        lines.append(
            f"(each slot = {self.slot_bytes} B; one collective write per slot row)"
        )
        return "\n".join(lines)
