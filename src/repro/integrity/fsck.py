"""Offline scrub/repair of checksummed page stores (``repro fsck``).

A scrub walks every allocated page of a store, recomputes its CRC32,
and compares it against the sidecar — the same verification the read
path does online, but exhaustive and without charging virtual time
(fsck models an administrative pass, not a client workload).

Repair strategies for a bad page:

* ``"zero"`` — drop the page back to a hole (data loss, reported);
* ``"accept"`` — recompute the sidecar from the current bytes (the
  corruption becomes the new truth; what a checksum-less system does
  silently on every read);
* ``"reference"`` — rewrite the page from a caller-supplied good copy
  (a replica, a backup, or a test oracle);
* ``"replica"`` — for a :class:`~repro.fs.store.ReplicatedStore` only:
  rewrite the page from the good copy the store names (a fresh replica
  whose copy still verifies: the self-healing mode replication exists
  for — no external image needed).  Pages with *no* good replica stay
  bad and are reported.

On a replicated store the scrub walks every shard, so divergence that
the read path would silently fail over past (one replica corrupt, the
primary fine) is surfaced and healed.  ``fsck(fs)`` runs the scrub over
every file of a :class:`~repro.fs.filesystem.SimFileSystem` and also
finishes any pending re-replication (stale replicas left by an OST
outage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import FileSystemError

__all__ = ["FsckReport", "scrub_store", "fsck", "REPAIR_MODES"]

REPAIR_MODES = ("zero", "accept", "reference", "replica")


@dataclass
class FsckReport:
    """Result of scrubbing one file's page store."""

    path: str
    pages_scanned: int
    bad_pages: List[int] = field(default_factory=list)
    repaired: List[int] = field(default_factory=list)
    repair: Optional[str] = None

    @property
    def clean(self) -> bool:
        """No corruption left behind (none found, or all repaired)."""
        return len(self.bad_pages) == len(self.repaired)

    def format(self) -> str:
        if not self.bad_pages:
            return f"  {self.path}: {self.pages_scanned} pages scanned, all clean"
        action = (
            f"repaired ({self.repair})" if self.repaired else "NOT repaired"
        )
        return (
            f"  {self.path}: {self.pages_scanned} pages scanned, "
            f"{len(self.bad_pages)} BAD {sorted(self.bad_pages)} — {action}"
        )


def scrub_store(
    store,
    path: str = "<store>",
    *,
    repair: Optional[str] = None,
    reference: Optional[np.ndarray] = None,
) -> FsckReport:
    """Scrub one :class:`~repro.fs.store.PageStore`; optionally repair.

    The store must have integrity enabled (there is no sidecar to check
    otherwise).  ``reference`` is the whole-file good image required by
    ``repair="reference"``."""
    if not store.integrity:
        raise FileSystemError(
            f"fsck: {path!r} has no checksum sidecar (integrity disabled)"
        )
    if repair is not None and repair not in REPAIR_MODES:
        raise FileSystemError(
            f"fsck: unknown repair mode {repair!r}; options: {REPAIR_MODES}"
        )
    if repair == "reference" and reference is None:
        raise FileSystemError("fsck: repair='reference' needs a reference image")
    if repair == "replica" and store.factor == 1:
        raise FileSystemError(
            f"fsck: repair='replica' needs a replicated store, {path!r} is plain"
        )
    report = FsckReport(
        path=path,
        pages_scanned=store.allocated_pages,
        bad_pages=store.verify_all(),
        repair=repair,
    )
    if repair is None:
        return report
    ps = store.page_size
    for idx in report.bad_pages:
        if repair == "zero":
            store.zero_page(idx)
        elif repair == "accept":
            store.accept_page(idx)
        elif repair == "replica":
            good = store.good_copy(idx)
            if good is None:
                continue  # no surviving good copy — stays bad, reported
            store.rewrite_page(idx, good)
        else:
            lo = idx * ps
            good = np.zeros(ps, dtype=np.uint8)
            ref = np.asarray(reference, dtype=np.uint8)
            chunk = ref[lo : lo + ps]
            good[: chunk.size] = chunk
            store.rewrite_page(idx, good)
        report.repaired.append(idx)
    return report


def fsck(
    fs,
    path: Optional[str] = None,
    *,
    repair: Optional[str] = None,
    references: Optional[Dict[str, np.ndarray]] = None,
) -> List[FsckReport]:
    """Scrub one file (or every file) of a ``SimFileSystem``.

    Replicated files additionally get any pending re-replication
    finished first (fsck runs after recovery, when every OST is up), so
    the scrub sees fully-redundant files."""
    paths = [path] if path is not None else fs.paths()
    reports = []
    for p in paths:
        fs.rereplicate(p)
        ref = references.get(p) if references else None
        reports.append(
            scrub_store(fs.page_store(p), p, repair=repair, reference=ref)
        )
    return reports
