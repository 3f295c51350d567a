"""Cost model and tunable parameters for the simulated cluster.

All virtual-time charging in the library is driven by one
:class:`CostModel` instance so that experiments are reproducible and the
model is auditable in a single place.  The defaults are calibrated (see
EXPERIMENTS.md) so simulated bandwidths land in the same magnitude range
as the paper's ASC Vplant / Lustre numbers; the *relative* behaviour —
who wins, where crossovers fall — is what the model is designed to
preserve.

Three cost groups:

* CPU — datatype processing (per offset/length pair evaluated, per
  filetype tile skipped) and memory movement (per byte copied between
  buffers, per byte scattered/gathered non-contiguously).
* Network — LogGP-ish: per message overhead plus per byte time.  The
  collective algorithms in :mod:`repro.mpi.collectives` are built from
  point-to-point messages, so tree/pairwise factors emerge naturally.
* I/O — client-side per-call overhead, per-OST service latency and byte
  time (serialized per OST, which models contention), penalties for
  read-modify-write of partial pages, extent-lock acquisition and
  revocation, and client-cache flushes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
]


@dataclass(frozen=True)
class CostModel:
    """Virtual-time costs (all in simulated seconds / seconds-per-byte)."""

    # --- CPU: datatype processing -------------------------------------
    #: Cost to evaluate one offset/length pair while walking an access.
    cpu_per_flat_pair: float = 1.2e-7
    #: Cost to test-and-skip one whole filetype tile that cannot
    #: intersect the target range (the succinct-datatype optimization).
    cpu_tile_skip: float = 2.0e-8
    #: Cost per byte for a straight memcpy between two buffers
    #: (e.g. collective buffer <-> sieve buffer double buffering).
    cpu_per_byte_copy: float = 2.5e-10
    #: Cost per byte for scatter/gather of non-contiguous regions
    #: (pack/unpack of derived datatypes).
    cpu_per_byte_touch: float = 6.0e-10
    #: Fixed cost per heap push/pop when merging per-aggregator streams.
    cpu_heap_op: float = 8.0e-8
    #: Fixed bookkeeping cost per I/O request record built.
    cpu_request_setup: float = 5.0e-7

    # --- Network (TCP/IP over Myrinet, as in the paper) ----------------
    #: Per-message overhead on each side (latency + software overhead).
    net_latency: float = 5.5e-5
    #: Seconds per byte of payload (~110 MB/s effective TCP as in paper).
    net_byte_time: float = 1.0 / (110.0 * 1024 * 1024)
    #: Extra fixed cost for posting a nonblocking operation.
    net_post_overhead: float = 2.0e-6
    #: Fraction of pack/unpack CPU cost hidden by overlapping
    #: communication with computation in the nonblocking exchange path.
    net_overlap_factor: float = 0.5
    #: Per-message overhead multiplier for messages sent inside
    #: collective operations.  1.0 models a commodity network; values
    #: below 1 model machines whose interconnect is specialized for
    #: collectives (the paper's BG/L discussion in §5.4), which is when
    #: the MPI_Alltoallw exchange pays off.
    net_collective_factor: float = 1.0

    # --- Network topology (two tiers: intra-node vs inter-node) --------
    #: Ranks per simulated node.  1 (the default) means every rank is
    #: its own node: no intra-node tier exists and every message prices
    #: exactly as the flat model above — the fast path pays nothing for
    #: the topology machinery.  Values > 1 arm the two-tier model: node
    #: of world rank ``r`` is ``r // procs_per_node``.
    procs_per_node: int = 1
    #: Per-message overhead between ranks sharing a node (shared-memory
    #: transport: no NIC traversal, no TCP stack).
    net_intra_latency: float = 1.5e-6
    #: Seconds per byte between ranks sharing a node (~6 GB/s memcpy
    #: bandwidth through a shared-memory segment).
    net_intra_byte_time: float = 1.0 / (6.0 * 1024 * 1024 * 1024)
    #: Wire envelope (header + matching metadata) accounted per message
    #: in the inter/intra-node traffic *counters*.  Accounting only —
    #: it never enters transit timing, so arming the topology changes
    #: no virtual timestamp of same-tier traffic.
    net_envelope_bytes: int = 64

    # --- File system (Lustre-like) -------------------------------------
    #: Client-side fixed cost per file-system call issued.
    io_call_overhead: float = 1.1e-4
    #: Per-OST fixed service latency per request.
    ost_op_latency: float = 3.5e-4
    #: Per-OST seconds per byte (~160 MB/s per OST).
    ost_byte_time: float = 1.0 / (160.0 * 1024 * 1024)
    #: Extra service cost when a write touches only part of a page and
    #: the server must read-modify-write it.
    page_rmw_penalty: float = 2.2e-4
    #: Round-trip cost of one lock-manager RPC (enqueue/grant).
    lock_rpc: float = 2.5e-4
    #: Cost charged to the *revoking* client per conflicting extent lock
    #: called back (on top of flushing its dirty pages).
    lock_revoke: float = 6.0e-4
    #: Cost per dirty page flushed from a client cache on revocation
    #: or sync (in addition to the write's normal service time).
    cache_flush_page: float = 3.0e-5
    #: Seconds per byte to compute/verify a CRC32 frame or page checksum
    #: (hardware-assisted CRC is cheaper than a copy, but not free).
    crc_byte_time: float = 4.0e-10
    #: Cost per shadow page published at journal commit (a block remap
    #: in the server's metadata, not a data copy over the wire).
    journal_commit_page: float = 2.0e-5

    # --- Geometry -------------------------------------------------------
    #: File-system page size in bytes (Lustre client page granularity).
    page_size: int = 4096
    #: Stripe size in bytes (Lustre default in the paper's experiments).
    stripe_size: int = 2 * 1024 * 1024
    #: Number of object storage targets the file is striped over.
    num_osts: int = 4

    def replace(self, **kwargs: object) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def validate(self) -> None:
        """Raise ``ValueError`` if any parameter is nonsensical."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, (int, float)) and value < 0:
                raise ValueError(f"CostModel.{field.name} must be >= 0, got {value}")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.stripe_size <= 0 or self.stripe_size % self.page_size:
            raise ValueError("stripe_size must be a positive multiple of page_size")
        if self.num_osts <= 0:
            raise ValueError("num_osts must be positive")
        if self.procs_per_node <= 0:
            raise ValueError("procs_per_node must be positive")


#: Shared default instance; treat as immutable.
DEFAULT_COST_MODEL = CostModel()
DEFAULT_COST_MODEL.validate()
