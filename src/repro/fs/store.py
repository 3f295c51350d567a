"""Sparse paged byte store — the authoritative file contents.

Bytes live in lazily allocated multi-page slabs (:class:`Slabs`), so an
extent moves with one slice copy per slab; unwritten bytes read back as
zero, like a POSIX sparse file.  The store is pure data: no cost
accounting here.

With integrity enabled (:meth:`PageStore.enable_integrity`, gated by
the ``integrity_pages`` hint upstream) every allocated page carries a
CRC32 sidecar word: writes update it, reads verify it, and a mismatch
raises :class:`~repro.errors.IntegrityError` carrying the page index —
silent corruption (e.g. the fault model's ``bit_flip_page`` events,
which mutate page bytes *without* touching the sidecar) becomes a loud,
typed failure at the first read.  :meth:`verify_all` is the offline
scrub used by ``repro fsck``.

:class:`ReplicatedStore` (the ``replication_factor`` hint) composes
``r`` per-OST :class:`PageStore` shards behind the same interface:
each stripe's pages live on ``r`` distinct OSTs, writes land on every
*live* replica (missed ones are tracked as stale byte runs for later
re-replication), and reads serve from the first fresh replica — with
integrity-driven failover to the next when a shard's page fails its
sidecar.  Health/quorum policy stays in
:class:`~repro.fs.filesystem.SimFileSystem`; the store only tracks
bytes and staleness.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import FileSystemError, IntegrityError
from repro.fs.runs import ByteRuns

__all__ = ["PageStore", "ReplicatedStore", "Slabs", "SLAB_PAGES"]


#: Pages per slab: the unit the store and the client cache allocate in
#: (128 KiB at the default 4 KiB page).  Large enough that a sieve
#: window is a handful of slice copies, small enough that a client
#: touching one page does not pin megabytes (measured: 256 KiB slabs
#: raise ``ranks_many``'s peak RSS by ~2 MiB over 128 KiB ones, for no
#: measurable gain in ``fig7_steps``).
SLAB_PAGES = 32


class Slabs:
    """A sparse array in fixed-width slabs allocated on first write.

    Never-written items read as zero.  An extent moves with one slice
    copy per slab it crosses, straight between the slab and the
    caller's buffer: each method walks [lo, lo+n) slab by slab, ``a``
    the offset in slab ``index`` and ``pos`` the offset in the extent."""

    __slots__ = ("width", "dtype", "_slabs")

    def __init__(self, width: int, dtype=np.uint8) -> None:
        self.width = width
        self.dtype = dtype
        self._slabs: Dict[int, np.ndarray] = {}

    def write(self, lo: int, values: np.ndarray) -> None:
        width, slabs, n = self.width, self._slabs, len(values)
        index, a = divmod(lo, width)
        pos = 0
        while pos < n:
            step = min(n - pos, width - a)
            slab = slabs.get(index)
            if slab is None:
                slab = slabs[index] = np.zeros(width, dtype=self.dtype)
            slab[a : a + step] = values[pos : pos + step]
            pos += step
            index, a = index + 1, 0

    def fill(self, lo: int, n: int, value) -> None:
        """Set [lo, lo+n) to one value (zero never allocates)."""
        width, slabs = self.width, self._slabs
        index, a = divmod(lo, width)
        pos = 0
        while pos < n:
            step = min(n - pos, width - a)
            slab = slabs.get(index)
            if slab is None and value:
                slab = slabs[index] = np.zeros(width, dtype=self.dtype)
            if slab is not None:
                slab[a : a + step] = value
            pos += step
            index, a = index + 1, 0

    def read_into(self, lo: int, out: np.ndarray) -> None:
        width, slabs, n = self.width, self._slabs, len(out)
        index, a = divmod(lo, width)
        pos = 0
        while pos < n:
            step = min(n - pos, width - a)
            slab = slabs.get(index)
            out[pos : pos + step] = 0 if slab is None else slab[a : a + step]
            pos += step
            index, a = index + 1, 0

    def read(self, lo: int, n: int) -> np.ndarray:
        out = np.empty(n, dtype=self.dtype)
        self.read_into(lo, out)
        return out

    def get(self, index: int) -> Optional[np.ndarray]:
        return self._slabs.get(index)

    def drop(self, index: int) -> None:
        self._slabs.pop(index, None)

    def drop_empty(self, lo: int, n: int) -> List[int]:
        """Free the slabs under [lo, lo+n) that hold only zeros;
        returns their indices."""
        empty = [
            index
            for index in range(lo // self.width, (lo + n - 1) // self.width + 1)
            if index in self._slabs and not self._slabs[index].any()
        ]
        for index in empty:
            del self._slabs[index]
        return empty

    def items(self) -> List[Tuple[int, np.ndarray]]:
        """(slab index, slab) pairs in index order."""
        return sorted(self._slabs.items())

    def clear(self) -> None:
        self._slabs.clear()


class PageStore:
    """A sparse file: bytes in slabs plus a map of which pages exist.

    A page exists once any byte of it was written; only existing pages
    count in :attr:`allocated_pages`, carry a CRC sidecar, and can be
    corrupted or repaired — a slab's never-written pages stay holes."""

    __slots__ = ("page_size", "_bytes", "_exists", "size", "integrity", "_crcs")

    def __init__(self, page_size: int, *, integrity: bool = False) -> None:
        if page_size <= 0:
            raise FileSystemError(f"page size must be positive, got {page_size}")
        self.page_size = page_size
        self._bytes = Slabs(SLAB_PAGES * page_size)
        self._exists = Slabs(SLAB_PAGES, np.bool_)
        #: Logical file size (highest byte written + 1).
        self.size = 0
        #: When True, a CRC32 sidecar per page is maintained and
        #: verified on read.
        self.integrity = integrity
        self._crcs: Dict[int, int] = {}

    # -- page map -----------------------------------------------------------
    def has_page(self, index: int) -> bool:
        """True when page ``index`` is allocated (not a hole)."""
        slab = self._exists.get(index // SLAB_PAGES)
        return slab is not None and bool(slab[index % SLAB_PAGES])

    def _pages_in(self, first: int, stop: int) -> List[int]:
        """Allocated page indices in [first, stop), ascending."""
        return (np.flatnonzero(self._exists.read(first, stop - first)) + first).tolist()

    def page_indices(self) -> List[int]:
        """Every allocated page index, ascending."""
        return [
            index * SLAB_PAGES + i
            for index, slab in self._exists.items()
            for i in np.flatnonzero(slab).tolist()
        ]

    def _page(self, index: int) -> np.ndarray:
        """View of an allocated page's bytes."""
        off = index % SLAB_PAGES * self.page_size
        return self._bytes.get(index // SLAB_PAGES)[off : off + self.page_size]

    def _put(self, offset: int, data: np.ndarray) -> None:
        """Store bytes, allocate the pages they touch, refresh sidecars."""
        ps = self.page_size
        first, stop = offset // ps, -(-(offset + data.size) // ps)
        self._bytes.write(offset, data)
        self._exists.fill(first, stop - first, True)
        if self.integrity:
            for index in range(first, stop):
                self._crcs[index] = self._crc(index)

    def _release(self, first: int, stop: int) -> None:
        """Turn pages [first, stop) back into holes."""
        for index in self._pages_in(first, stop):
            self._crcs.pop(index, None)
        self._bytes.fill(first * self.page_size, (stop - first) * self.page_size, 0)
        self._exists.fill(first, stop - first, False)
        for slab in self._exists.drop_empty(first, stop - first):
            self._bytes.drop(slab)

    # -- checksum sidecar ---------------------------------------------------
    def _crc(self, index: int) -> int:
        return zlib.crc32(self._page(index)) & 0xFFFFFFFF

    def enable_integrity(self) -> None:
        """Turn on the CRC sidecar, fingerprinting any existing pages.

        Idempotent; existing content is trusted as-is (the sidecar
        protects from here on)."""
        if self.integrity:
            return
        self.integrity = True
        for idx in self.page_indices():
            self._crcs[idx] = self._crc(idx)

    def verify_page(self, index: int) -> bool:
        """True when the page's bytes still match its sidecar (holes
        are vacuously good)."""
        if not self.has_page(index):
            return True
        return self._crcs.get(index) == self._crc(index)

    def verify_all(self) -> List[int]:
        """Page indices whose contents fail their sidecar (a scrub)."""
        if not self.integrity:
            return []
        return [idx for idx in self.page_indices() if not self.verify_page(idx)]

    def flip_bit(self, page_index: int, bit_index: int) -> None:
        """Silently flip one bit of an allocated page — the corruption
        model's entry point.  Deliberately does NOT update the sidecar:
        that mismatch is what detection detects."""
        if not self.has_page(page_index):
            raise FileSystemError(f"cannot corrupt unallocated page {page_index}")
        bit = bit_index % (self.page_size * 8)
        self._page(page_index)[bit >> 3] ^= np.uint8(1 << (bit & 7))

    # -- repair (fsck) ------------------------------------------------------
    def zero_page(self, index: int) -> None:
        """Repair a page by dropping it back to a hole."""
        self._release(index, index + 1)

    def accept_page(self, index: int) -> None:
        """Repair a page by blessing its current bytes (recompute CRC)."""
        if self.integrity and self.has_page(index):
            self._crcs[index] = self._crc(index)

    def rewrite_page(self, index: int, data: np.ndarray) -> None:
        """Repair a page by rewriting it from a known-good copy."""
        data = np.asarray(data, dtype=np.uint8)
        if data.size != self.page_size:
            raise FileSystemError(
                f"rewrite_page needs exactly {self.page_size} bytes, got {data.size}"
            )
        self._put(index * self.page_size, data)

    # -- data plane ---------------------------------------------------------
    def write(self, offset: int, data: np.ndarray) -> None:
        """Write ``data`` (uint8) at ``offset``, extending the file."""
        if offset < 0:
            raise FileSystemError(f"negative file offset {offset}")
        data = np.asarray(data, dtype=np.uint8)
        if data.size == 0:
            return
        self._put(offset, data)
        self.size = max(self.size, offset + int(data.size))

    def read_into(self, offset: int, out: np.ndarray, *, verify: bool = True) -> None:
        """Fill ``out`` with the bytes at ``offset``; holes and EOF read
        as zero.

        With integrity enabled (and ``verify`` true), every allocated
        page touched is checked against its sidecar first; a mismatch
        raises :class:`~repro.errors.IntegrityError`.  ``verify=False``
        is for out-of-band access (verification oracles, fsck itself)."""
        if self.integrity and verify and out.size:
            ps = self.page_size
            for index in self._pages_in(offset // ps, -(-(offset + out.size) // ps)):
                if not self.verify_page(index):
                    raise IntegrityError("page-read", index)
        self._bytes.read_into(offset, out)

    def read(self, offset: int, nbytes: int, *, verify: bool = True) -> np.ndarray:
        """:meth:`read_into` a fresh ``nbytes`` array."""
        if offset < 0 or nbytes < 0:
            raise FileSystemError(f"invalid read range ({offset}, {nbytes})")
        out = np.empty(nbytes, dtype=np.uint8)
        self.read_into(offset, out, verify=verify)
        return out

    def truncate(self, size: int) -> None:
        """Set the logical file size, POSIX-style.

        Shrinking trims whole pages past the new end and zeroes the
        tail of a partially covered boundary page (those bytes must
        read as zero if the file regrows); growing just extends the
        logical size — the new bytes are a hole."""
        if size < 0:
            raise FileSystemError(f"negative truncate size {size}")
        if size < self.size:
            ps = self.page_size
            boundary, keep = divmod(size, ps)
            first = boundary + 1 if keep else boundary
            for slab, _ in self._exists.items():
                if (slab + 1) * SLAB_PAGES > first:
                    self._release(max(first, slab * SLAB_PAGES), (slab + 1) * SLAB_PAGES)
            if keep and self.has_page(boundary):
                self._page(boundary)[keep:] = 0
                if self.integrity:
                    self._crcs[boundary] = self._crc(boundary)
        self.size = size

    @property
    def allocated_pages(self) -> int:
        return sum(int(np.count_nonzero(slab)) for _, slab in self._exists.items())

    def checksum(self) -> int:
        """Cheap content fingerprint for tests.

        All-zero pages are skipped when folding: an explicitly
        allocated page of zeros is logically identical to a hole, and
        two stores with identical logical bytes must hash identically
        regardless of allocation history."""
        acc = self.size
        for slab, data in self._bytes.items():
            rows = data.reshape(SLAB_PAGES, self.page_size)
            live = np.flatnonzero(rows.any(axis=1))
            sums = rows[live].sum(axis=1, dtype=np.uint64)
            for idx, total in zip((live + slab * SLAB_PAGES).tolist(), sums.tolist()):
                acc = (acc * 1000003 + idx) & 0xFFFFFFFFFFFF
                acc = (acc + total) & 0xFFFFFFFFFFFF
        return acc


class ReplicatedStore:
    """``r`` per-OST page-store shards behind the PageStore interface.

    Placement: the pages of stripe ``s`` replicate to OSTs
    ``(s + k) % num_osts`` for ``k < factor`` — the primary is exactly
    where the unreplicated striping formula puts the stripe, so with
    ``factor=1`` the layout degenerates to the seed's.

    The store is *mechanism only*: callers (the file system) decide
    which OSTs are up and whether a write has quorum; the store applies
    a write to the given live subset and records the missed replicas'
    byte ranges as **stale** so reads skip them and
    :meth:`rereplicate` can heal them later.  Each shard stores pages
    at their *logical* file offsets (sparse, so no address translation
    is needed); staleness is the only divergence tracked.
    """

    __slots__ = ("page_size", "stripe_size", "num_osts", "factor", "shards", "stale", "size")

    def __init__(
        self,
        page_size: int,
        stripe_size: int,
        num_osts: int,
        factor: int,
        *,
        integrity: bool = False,
    ) -> None:
        if stripe_size <= 0 or stripe_size % page_size:
            raise FileSystemError(
                f"stripe size must be a positive multiple of page size, got {stripe_size}"
            )
        if not 1 < factor <= num_osts:
            raise FileSystemError(
                f"replication factor must be in (1, num_osts={num_osts}], got {factor}"
            )
        self.page_size = page_size
        self.stripe_size = stripe_size
        self.num_osts = num_osts
        self.factor = factor
        self.shards: List[PageStore] = [
            PageStore(page_size, integrity=integrity) for _ in range(num_osts)
        ]
        #: Per-OST byte ranges whose replica on that OST missed a write
        #: (the OST was down) and must not serve reads until healed.
        self.stale: List[ByteRuns] = [ByteRuns() for _ in range(num_osts)]
        self.size = 0

    # -- geometry -----------------------------------------------------------
    @property
    def quorum(self) -> int:
        """Live replicas a write needs to commit (majority)."""
        return self.factor // 2 + 1

    def replicas_of(self, offset: int) -> List[int]:
        """The OSTs holding the stripe containing ``offset``, primary first."""
        stripe = offset // self.stripe_size
        return [(stripe + k) % self.num_osts for k in range(self.factor)]

    def _pieces(self, offset: int, nbytes: int):
        """Split [offset, offset+nbytes) at stripe boundaries: yields
        (piece offset, piece length, replica OSTs)."""
        pos, end = offset, offset + nbytes
        while pos < end:
            chunk = min(end - pos, self.stripe_size - pos % self.stripe_size)
            yield pos, chunk, self.replicas_of(pos)
            pos += chunk

    # -- data plane ---------------------------------------------------------
    def write(self, offset: int, data: np.ndarray, up: Optional[Set[int]] = None) -> None:
        """Write to every live replica; mark missed ones stale.

        ``up=None`` means all OSTs are live.  Quorum enforcement is the
        caller's job — by the time this runs the write is committed."""
        data = np.asarray(data, dtype=np.uint8)
        n = int(data.size)
        if n == 0:
            return
        if offset < 0:
            raise FileSystemError(f"negative file offset {offset}")
        for pos, chunk, osts in self._pieces(offset, n):
            piece = data[pos - offset : pos - offset + chunk]
            for ost in osts:
                if up is None or ost in up:
                    self.shards[ost].write(pos, piece)
                    self.stale[ost].remove(pos, pos + chunk)
                else:
                    self.stale[ost].add(pos, pos + chunk)
        self.size = max(self.size, offset + n)

    def fresh_replicas(self, offset: int, nbytes: int, up: Optional[Set[int]] = None) -> List[int]:
        """Live replicas of the (single-stripe) range with no stale bytes
        in it, in placement (primary-first) order."""
        return [
            ost
            for ost in self.replicas_of(offset)
            if (up is None or ost in up) and not self.stale[ost].overlaps(offset, offset + nbytes)
        ]

    def readable(self, offset: int, nbytes: int, up: Optional[Set[int]] = None) -> bool:
        """True when every piece of the range has a live fresh replica."""
        return all(
            self.fresh_replicas(pos, chunk, up) for pos, chunk, _ in self._pieces(offset, nbytes)
        )

    def read_into(
        self,
        offset: int,
        out: np.ndarray,
        *,
        verify: bool = True,
        up: Optional[Set[int]] = None,
        served: Optional[List[Tuple[int, int]]] = None,
        failovers: Optional[List[int]] = None,
    ) -> None:
        """Fill ``out`` from the first live *fresh* replica of each piece.

        A replica whose page fails its integrity sidecar is skipped in
        favour of the next fresh candidate (recorded in ``failovers``
        as the bad OST); only when every candidate is corrupt does the
        :class:`~repro.errors.IntegrityError` propagate.  ``served``
        collects ``(ost, nbytes)`` per piece actually read, so the
        caller can charge service time to the OSTs that did the work.
        Raises when a piece has no live fresh replica — callers should
        pre-check with :meth:`readable` to raise a typed error with
        more context."""
        for pos, chunk, _ in self._pieces(offset, int(out.size)):
            candidates = self.fresh_replicas(pos, chunk, up)
            if not candidates:
                raise FileSystemError(
                    f"no live fresh replica for bytes [{pos}, {pos + chunk})"
                )
            error: Optional[IntegrityError] = None
            for ost in candidates:
                try:
                    self.shards[ost].read_into(
                        pos, out[pos - offset : pos - offset + chunk], verify=verify
                    )
                except IntegrityError as exc:
                    if error is None:
                        error = exc
                    if failovers is not None:
                        failovers.append(ost)
                    continue
                if served is not None:
                    served.append((ost, chunk))
                break
            else:
                raise error  # every fresh replica corrupt

    def read(self, offset: int, nbytes: int, **how) -> np.ndarray:
        """:meth:`read_into` a fresh ``nbytes`` array."""
        if offset < 0 or nbytes < 0:
            raise FileSystemError(f"invalid read range ({offset}, {nbytes})")
        out = np.empty(nbytes, dtype=np.uint8)
        self.read_into(offset, out, **how)
        return out

    def truncate(self, size: int) -> None:
        if size < 0:
            raise FileSystemError(f"negative truncate size {size}")
        for shard in self.shards:
            shard.truncate(size)
        for runs in self.stale:
            end = max((hi for _, hi in runs), default=0)
            if end > size:
                runs.remove(size, end)
        self.size = size

    # -- healing ------------------------------------------------------------
    def stale_bytes(self) -> int:
        """Total bytes awaiting re-replication across all OSTs."""
        return sum(runs.total for runs in self.stale)

    def rereplicate(self, up: Optional[Set[int]] = None) -> int:
        """Rebuild stale replicas on live OSTs from fresh copies.

        Returns the number of bytes healed.  Ranges with no live fresh
        source are left stale (healed on a later pass once a holder
        recovers)."""
        healed = 0
        verify = self.integrity  # never launder corrupt bytes into a
        # freshly-checksummed replica: corrupt sources are skipped (the
        # read fails over) or, with none good, the range stays stale.
        for ost, runs in enumerate(self.stale):
            if up is not None and ost not in up:
                continue
            for lo, hi in list(runs):
                try:
                    data = self.read(lo, hi - lo, verify=verify, up=up)
                except (FileSystemError, IntegrityError):
                    continue
                self.shards[ost].write(lo, data)
                runs.remove(lo, hi)
                healed += hi - lo
        return healed

    # -- integrity / repair (fsck) ------------------------------------------
    @property
    def integrity(self) -> bool:
        return self.shards[0].integrity

    def enable_integrity(self) -> None:
        for shard in self.shards:
            shard.enable_integrity()

    def _holders(self, index: int) -> List[int]:
        """Replica OSTs of page ``index``, primary first."""
        return self.replicas_of(index * self.page_size)

    def verify_page(self, index: int) -> bool:
        return all(self.shards[ost].verify_page(index) for ost in self._holders(index))

    def verify_all(self) -> List[int]:
        bad: Set[int] = set()
        for shard in self.shards:
            bad.update(shard.verify_all())
        return sorted(bad)

    def flip_bit(self, page_index: int, bit_index: int) -> None:
        """Corrupt one replica (the primary shard holding the page) —
        divergence between replicas is exactly what the corruption
        model should produce."""
        for ost in self._holders(page_index):
            if self.shards[ost].has_page(page_index):
                self.shards[ost].flip_bit(page_index, bit_index)
                return
        raise FileSystemError(f"cannot corrupt unallocated page {page_index}")

    def zero_page(self, index: int) -> None:
        for ost in self._holders(index):
            self.shards[ost].zero_page(index)

    def accept_page(self, index: int) -> None:
        for ost in self._holders(index):
            self.shards[ost].accept_page(index)

    def rewrite_page(self, index: int, data: np.ndarray) -> None:
        lo = index * self.page_size
        for ost in self._holders(index):
            self.shards[ost].rewrite_page(index, data)
            self.stale[ost].remove(lo, lo + self.page_size)

    # -- fingerprints -------------------------------------------------------
    def page_indices(self) -> List[int]:
        """Every page some shard holds, ascending."""
        pages: Set[int] = set()
        for shard in self.shards:
            pages.update(shard.page_indices())
        return sorted(pages)

    @property
    def allocated_pages(self) -> int:
        return len(self.page_indices())

    def checksum(self) -> int:
        """Logical-content fingerprint, identical to an unreplicated
        :meth:`PageStore.checksum` of the same bytes."""
        ps = self.page_size
        acc = self.size
        for idx in self.page_indices():
            page = self.read(idx * ps, ps, verify=False)
            if not page.any():
                continue
            acc = (acc * 1000003 + idx) & 0xFFFFFFFFFFFF
            acc = (acc + int(page.astype(np.uint64).sum())) & 0xFFFFFFFFFFFF
        return acc
