"""HPIO access-pattern builder.

The file layout interleaves clients round-robin over fixed slots: slot
``k`` (of ``region_size + region_spacing`` bytes) belongs to client
``k % nprocs``; each client touches ``region_count`` slots, writing the
first ``region_size`` bytes of each.  Contiguous-file variants pack each
client's regions back to back instead.

Memory is either one contiguous block or regions separated by
``region_spacing`` (HPIO's non-contiguous memory side).

Filetype representations (the Figure 4 axis):

* ``succinct`` — ``resized(contiguous(region), extent=slot*nprocs)``:
  one offset/length pair per tile, so realm routing can skip whole
  tiles ("the very succinct MPI struct datatype");
* ``enumerated`` — the same typemap with all ``region_count`` pairs in
  a single tile ("an MPI vector type explicitly enumerating the entire
  access"), which defeats tile skipping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datatypes.base import BYTE, Datatype, RawFlatType
from repro.datatypes.constructors import contiguous, hvector, resized
from repro.datatypes.flatten import FlatType
from repro.errors import CollectiveIOError

__all__ = ["HPIOPattern"]


@dataclass(frozen=True)
class HPIOPattern:
    """One HPIO workload configuration."""

    nprocs: int
    region_size: int
    region_count: int
    region_spacing: int = 128
    mem_contig: bool = False
    file_contig: bool = False

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise CollectiveIOError("nprocs must be positive")
        if self.region_size <= 0 or self.region_count <= 0:
            raise CollectiveIOError("region size and count must be positive")
        if self.region_spacing < 0:
            raise CollectiveIOError("region spacing must be non-negative")

    # -- geometry -------------------------------------------------------------
    @property
    def slot(self) -> int:
        """One slot: a region plus its trailing spacing."""
        return self.region_size + self.region_spacing

    @property
    def bytes_per_client(self) -> int:
        return self.region_size * self.region_count

    @property
    def total_bytes(self) -> int:
        """Aggregate data bytes across all clients."""
        return self.bytes_per_client * self.nprocs

    @property
    def file_extent(self) -> int:
        """Span of the file region the pattern touches."""
        if self.file_contig:
            return self.total_bytes
        return self.slot * self.nprocs * self.region_count

    # -- file side ----------------------------------------------------------------
    def file_disp(self, rank: int) -> int:
        self._check_rank(rank)
        if self.file_contig:
            return rank * self.bytes_per_client
        return rank * self.slot

    def filetype(self, rank: int, representation: str = "succinct") -> Datatype:
        """The file datatype for ``rank``.

        ``representation``: ``"succinct"`` or ``"enumerated"``."""
        self._check_rank(rank)
        if self.file_contig:
            return contiguous(self.bytes_per_client, BYTE)
        tile_extent = self.slot * self.nprocs
        succinct = resized(contiguous(self.region_size, BYTE), 0, tile_extent)
        if representation == "succinct":
            return succinct
        if representation == "enumerated":
            flat: FlatType = succinct.flatten().replicate(self.region_count)
            return RawFlatType(flat, name="hpio-enumerated")
        raise CollectiveIOError(
            f"unknown filetype representation {representation!r}; "
            "use 'succinct' or 'enumerated'"
        )

    # -- memory side ----------------------------------------------------------------
    def memtype(self) -> Datatype | None:
        """Memory datatype (None means plain contiguous buffer)."""
        if self.mem_contig:
            return None
        return hvector(self.region_count, self.region_size, self.slot, BYTE)

    def buffer_bytes(self) -> int:
        """Required user-buffer size in bytes."""
        if self.mem_contig:
            return self.bytes_per_client
        # Last region needs no trailing spacing.
        return self.slot * (self.region_count - 1) + self.region_size

    # -- helpers ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nprocs:
            raise CollectiveIOError(f"rank {rank} out of range for {self.nprocs} procs")

    def describe(self) -> str:
        mem = "contig" if self.mem_contig else "noncontig"
        fil = "contig" if self.file_contig else "noncontig"
        return (
            f"HPIO[{self.nprocs} procs, region={self.region_size}B x "
            f"{self.region_count}, space={self.region_spacing}B, mem {mem}, file {fil}]"
        )
