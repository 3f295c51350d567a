"""End-to-end data integrity (checksums, corruption detection, fsck).

PR 1 hardened the stack against *loud* failures; this package closes
the silent ones.  A collective write crosses four places where a bit
can flip without anyone noticing — the exchange buffers, the wire, the
client page cache, and the page store — so protection is layered the
way real deployments layer it:

* **Page checksums** (:mod:`repro.fs.store`): every allocated page
  carries a CRC32 sidecar, updated on write and verified on read.  A
  mismatch raises :class:`~repro.errors.IntegrityError` with the page
  index and verification site — never a silently wrong byte.
* **Frame checksums** (:mod:`repro.mpi.comm`): data-frame payloads are
  CRC'd at send and verified at receive; a bad frame triggers a bounded
  re-request driven by the existing
  :class:`~repro.io.retry.RetryPolicy` (corruption on the wire is
  transient — the sender's buffered copy is intact).
* **Crash-consistent commits** (:class:`repro.fs.store.Journal` +
  :mod:`repro.core.rounds`): journaled collective writes land in
  shadow pages and publish atomically at collective completion — every
  run verified before any is published — so an aggregator crash or a
  corrupt journal page leaves the file at its pre-collective image
  instead of a torn mix.
* **Scrub/repair** (:mod:`repro.integrity.fsck`): an offline pass that
  verifies every page sidecar and reports — or repairs — bad pages
  (the ``repro fsck`` CLI subcommand).

Everything is gated by hints (``integrity_pages``,
``integrity_network``, ``journal_writes``) so the fault-free fast path
is unchanged when off.  The gates live in one
:class:`IntegrityConfig` installed in the simulator's shared dict under
:data:`INTEGRITY_KEY` when a :class:`~repro.core.file_handle.CollectiveFile`
opens with integrity hints set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DEFAULT_FAULT_CONFIG
from repro.integrity.checksum import (
    corruptible,
    crc32_of,
    flip_payload_bit,
    payload_crc,
)
from repro.integrity.fsck import REPAIR_MODES, FsckReport, fsck, scrub_store

__all__ = [
    "INTEGRITY_KEY",
    "IntegrityConfig",
    "crc32_of",
    "corruptible",
    "payload_crc",
    "flip_payload_bit",
    "FsckReport",
    "scrub_store",
    "fsck",
    "REPAIR_MODES",
]

#: Key under which the active :class:`IntegrityConfig` lives in
#: ``Simulator.shared`` (installed at collective-file open).
INTEGRITY_KEY = "integrity-config"


@dataclass(frozen=True)
class IntegrityConfig:
    """Which integrity layers are armed, plus the re-request policy
    the transport uses when a frame checksum fails."""

    #: Verify page CRC sidecars on every store read.
    pages: bool = False
    #: Checksum data-frame payloads; verify + re-request at receive.
    network: bool = False
    #: Bounded re-requests for a corrupt frame (reuses the I/O retry
    #: budget: the transport and the I/O stack share one patience).
    net_retries: int = DEFAULT_FAULT_CONFIG.io_retries
    net_backoff: float = DEFAULT_FAULT_CONFIG.retry_backoff
    net_backoff_max: float = DEFAULT_FAULT_CONFIG.retry_backoff_max

    @property
    def any_enabled(self) -> bool:
        return self.pages or self.network


def install_integrity(shared: dict, config: IntegrityConfig) -> None:
    """Arm integrity checking for every component of this simulation."""
    shared[INTEGRITY_KEY] = config


def find_integrity(shared: dict):
    """The installed :class:`IntegrityConfig`, if any."""
    return shared.get(INTEGRITY_KEY)


__all__ += ["install_integrity", "find_integrity"]
