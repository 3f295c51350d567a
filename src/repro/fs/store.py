"""The store layer: the authoritative file contents, one batch protocol.

A server call's extents are one request (list I/O), and every store
takes them as one batch:

* ``write_extents(offs, lens, data, up=None)`` — ``data`` holds the
  extents' bytes concatenated in batch order (overlaps: later wins),
  or is a :class:`Slabs` payload holding them at their file offsets (a
  cache's flush snapshot: slabs an extent covers whole are taken by
  reference); returns the *kept* pages: pages the batch covers only in
  part whose bytes already failed their sidecar, which keep it
  (integrity on);
* ``read_extents(offs, lens, out, up=None)`` — fills ``out`` the same
  way (a fresh :class:`Slabs` payload takes the store's slabs by
  reference, :meth:`Slabs.share`) and returns what it served,
  ``(demand, failovers)``: the per-OST ``(bytes, fragments)`` the
  answering copies did (``None``: the stripe map's split) and how many
  corrupt replicas it skipped.

``up`` is the live-OST set the caller's policy chose (``None``: all).
Stores are mechanism only; health, breakers, admission, quorum and
healing stay in :class:`~repro.fs.filesystem.SimFileSystem`.

* :class:`PageStore` — bytes in lazily allocated multi-page slabs
  (:class:`Slabs`, shared copy-on-write with client caches and
  payloads), one slice copy per slab; unwritten bytes read as
  zero, like a POSIX sparse file.  A batch is one pass, and each
  touched page's sidecar is refreshed once, after its bytes landed.
* :class:`ReplicatedStore` (the ``replication_factor`` hint) — ``r``
  per-OST :class:`PageStore` shards; stripe pieces, placement and
  stale/fresh replica selection are computed once per batch.  Writes
  land on every live replica (missed ones become stale runs, healed by
  re-replication); reads serve each piece from its first fresh replica,
  failing over past a corrupt one, and report that replica's demand.
* :class:`Journal` — an open shadow-write transaction wrapping either
  store: a shadow :class:`PageStore`, the runs it owns patched over
  main-store reads, staged epoch records, and :meth:`Journal.commit`.

With integrity on (:meth:`PageStore.enable_integrity`, the
``integrity_pages`` hint) every allocated page carries a CRC32 sidecar;
``flip_bit`` corrupts bytes without touching it, and the mismatch
raises :class:`~repro.errors.IntegrityError`.  A read verifies every
page it touches before it copies any and names the first bad page in
extent order; a write re-stamps only what it can vouch for — a page it
covers in part and that already fails keeps its old sidecar, so a flip
that landed before the write still raises on the next read; a
journaled read verifies an extent's main-store pages before its
journal pages; a commit verifies every run before it publishes any.
:meth:`verify_all` is the scrub ``repro fsck`` runs.
"""

from __future__ import annotations

import zlib
from itertools import accumulate
from sys import getrefcount
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import FileSystemError, IntegrityError
from repro.fs.runs import ByteRuns

__all__ = ["Journal", "PageStore", "ReplicatedStore", "Slabs", "SLAB_PAGES", "stripe_pieces"]


#: Pages per slab: the unit the store and the client cache allocate in
#: (128 KiB at the default 4 KiB page).  Large enough that a sieve
#: window is a handful of slice copies, small enough that a client
#: touching one page does not pin megabytes (measured: 256 KiB slabs
#: raise ``ranks_many``'s peak RSS by ~2 MiB over 128 KiB ones, for no
#: measurable gain in ``fig7_steps``).
SLAB_PAGES = 32


def stripe_pieces(offs: np.ndarray, lens: np.ndarray, stripe: int):
    """Cut a batch's extents (int64, none empty) at the stripe edges
    inside them.  Per piece, in batch order: its offset, its length, its
    stripe, and the index of its extent (``None`` when no extent crosses
    an edge: the pieces are the extents)."""
    stripes = offs // stripe
    count = (offs + lens - 1) // stripe - stripes + 1
    total = int(count.sum())
    if total == count.size:
        return offs, lens, stripes, None
    extent = np.repeat(np.arange(count.size), count)
    stripes = np.repeat(stripes - (np.cumsum(count) - count), count) + np.arange(total)
    lo = np.maximum(offs[extent], stripes * stripe)
    return lo, np.minimum((offs + lens)[extent], (stripes + 1) * stripe) - lo, stripes, extent


def _sole_count() -> int:
    """What ``getrefcount`` reports for a slab that its dict alone holds,
    read the way :class:`Slabs` reads it: bound to one local name."""
    slabs = {0: np.zeros(1)}
    slab = slabs.get(0)
    return getrefcount(slab)


#: A slab whose count is above this has a second holder (see
#: :class:`Slabs`).  CPython counts every reference, views included
#: (a view holds its base), so the test is exact, never a guess.
_SOLE = _sole_count()

#: One read-only all-zero slab per width: what a payload holds where
#: its source has no slab (a hole).  Every holder copies before writing.
_ZERO: Dict[int, np.ndarray] = {}

#: Items every :class:`Slabs` copy has moved, copy-on-write copies
#: included (host-copy accounting, read by tests and the micro
#: benchmark).  A module global, not a class attribute: rebinding a
#: class attribute would invalidate the interpreter's attribute caches
#: for every slab access.
copied = 0


def _zero(width: int) -> np.ndarray:
    """Make the read-only zero slab of ``width`` (kept in :data:`_ZERO`)."""
    zero = _ZERO[width] = np.zeros(width, dtype=np.uint8)
    zero.flags.writeable = False
    return zero


class Slabs:
    """A sparse array in fixed-width slabs allocated on first write.

    Never-written items read as zero.  An extent moves with one slice
    copy per slab it crosses, straight between the slab and the
    caller's buffer: each method walks [lo, lo+n) slab by slab, ``a``
    the offset in slab ``index`` and ``pos`` the offset in the extent.

    A slab array may have several holders: the store, a client cache,
    a fetch's in-flight payload or a flush's snapshot (:meth:`share`,
    :meth:`take`).  A holder writes a slab in place only while no other
    holder references it; otherwise it writes into a fresh slab that
    gets only the items the write leaves standing copied in (none when
    the write covers the whole slab).  So a reference handed over reads
    exactly like a copy taken at that instant.  The copy-on-write step
    is written out in each method rather than called: a Python call per
    slab would make a window's host calls grow with its size."""

    __slots__ = ("width", "dtype", "_slabs")

    def __init__(self, width: int, dtype=np.uint8) -> None:
        self.width = width
        self.dtype = dtype
        self._slabs: Dict[int, np.ndarray] = {}

    def write(self, lo: int, values: np.ndarray) -> None:
        global copied
        width, slabs, n = self.width, self._slabs, len(values)
        index, a = divmod(lo, width)
        pos = 0
        while pos < n:
            step = min(n - pos, width - a)
            slab = slabs.get(index)
            if slab is None:
                slab = slabs[index] = (np.empty if step == width else np.zeros)(width, self.dtype)
            elif getrefcount(slab) > _SOLE:
                slab, old = np.empty(width, self.dtype), slab
                slab[:a], slab[a + step :] = old[:a], old[a + step :]
                slabs[index] = slab
                copied += width - step
            slab[a : a + step] = values[pos : pos + step]
            copied += step
            pos += step
            index, a = index + 1, 0

    def fill(self, lo: int, n: int, value) -> None:
        """Set [lo, lo+n) to one value (zero never allocates)."""
        global copied
        width, slabs = self.width, self._slabs
        index, a = divmod(lo, width)
        pos = 0
        while pos < n:
            step = min(n - pos, width - a)
            slab = slabs.get(index)
            if slab is None and value:
                slab = slabs[index] = np.zeros(width, dtype=self.dtype)
            elif slab is not None and getrefcount(slab) > _SOLE:
                slab, old = np.empty(width, self.dtype), slab
                slab[:a], slab[a + step :] = old[:a], old[a + step :]
                slabs[index] = slab
                copied += width - step
            if slab is not None:
                slab[a : a + step] = value
            pos += step
            index, a = index + 1, 0

    def read_into(self, lo: int, out: np.ndarray) -> None:
        global copied
        width, slabs, n = self.width, self._slabs, len(out)
        index, a = divmod(lo, width)
        pos = 0
        while pos < n:
            step = min(n - pos, width - a)
            slab = slabs.get(index)
            out[pos : pos + step] = 0 if slab is None else slab[a : a + step]
            copied += step
            pos += step
            index, a = index + 1, 0

    def read(self, lo: int, n: int) -> np.ndarray:
        out = np.empty(n, dtype=self.dtype)
        self.read_into(lo, out)
        return out

    def share(self, src: "Slabs", lo: int, n: int) -> None:
        """Hand ``src``'s [lo, lo+n) over into this fresh payload (a
        fetch's or a flush's): a slot no earlier extent of the payload
        filled takes ``src``'s slab by reference (the read-only zero
        slab for a hole); a filled one holding another array gets the
        piece copied in."""
        global copied
        width, slabs, srcs = self.width, self._slabs, src._slabs
        zero = _ZERO.get(width)
        if zero is None:
            zero = _zero(width)
        index, a = divmod(lo, width)
        pos = 0
        while pos < n:
            step = min(n - pos, width - a)
            got = srcs.get(index, zero)
            slab = slabs.get(index)
            if slab is None or step == width:
                slabs[index] = got
            elif slab is not got:
                if getrefcount(slab) > _SOLE:
                    slab, old = np.empty(width, self.dtype), slab
                    slab[:a], slab[a + step :] = old[:a], old[a + step :]
                    slabs[index] = slab
                    copied += width - step
                slab[a : a + step] = got[a : a + step]
                copied += step
            pos += step
            index, a = index + 1, 0

    def take(self, src: "Slabs", lo: int, n: int, free: Optional[Tuple[int, int]] = None) -> None:
        """Make [lo, lo+n) hold ``src``'s items there.  A slab lying
        wholly inside ``free`` (default: [lo, lo+n)) holds nothing the
        caller keeps, so it becomes ``src``'s slab by reference; any
        other gets the piece copied in."""
        global copied
        f0, f1 = free or (lo, lo + n)
        width, slabs, srcs = self.width, self._slabs, src._slabs
        zero = _ZERO.get(width)
        if zero is None:
            zero = _zero(width)
        index, a = divmod(lo, width)
        pos = 0
        while pos < n:
            step = min(n - pos, width - a)
            got = srcs.get(index, zero)
            slab = slabs.get(index)
            if slab is got:
                pass
            elif f0 <= index * width and (index + 1) * width <= f1:
                slabs[index] = got
            else:
                if slab is None:
                    slab = slabs[index] = np.zeros(width, dtype=self.dtype)
                elif getrefcount(slab) > _SOLE:
                    slab, old = np.empty(width, self.dtype), slab
                    slab[:a], slab[a + step :] = old[:a], old[a + step :]
                    slabs[index] = slab
                    copied += width - step
                slab[a : a + step] = got[a : a + step]
                copied += step
            pos += step
            index, a = index + 1, 0

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


class _Store:
    """Single-extent conveniences over the batch protocol, for access
    outside a server call (tests, fsck, migration, healing)."""

    __slots__ = ()

    def write(self, offset: int, data: np.ndarray, up: Optional[Set[int]] = None) -> None:
        data = np.asarray(data, dtype=np.uint8)
        if offset < 0:
            raise FileSystemError(f"negative file offset {offset}")
        if data.size:
            self.write_extents(np.array([offset]), np.array([data.size]), data, up)

    def read(self, offset: int, nbytes: int, *, verify=True, up=None) -> np.ndarray:
        """``verify=False`` skips the sidecar check (oracles, fsck)."""
        if offset < 0 or nbytes < 0:
            raise FileSystemError(f"invalid read range ({offset}, {nbytes})")
        out = np.empty(nbytes, dtype=np.uint8)
        self.read_extents(np.array([offset]), np.array([nbytes]), out, up, verify=verify)
        return out

    def verify_all(self) -> List[int]:
        """Page indices whose contents fail their sidecar (a scrub)."""
        if not self.integrity:
            return []
        return [idx for idx in self.page_indices() if not self.verify_page(idx)]

    @property
    def allocated_pages(self) -> int:
        return len(self.page_indices())

    def checksum(self) -> int:
        """Cheap content fingerprint for tests.

        All-zero pages are skipped when folding: an explicitly
        allocated page of zeros is logically identical to a hole, and
        two stores with identical logical bytes must hash identically
        regardless of allocation history (or replication)."""
        ps = self.page_size
        acc = self.size
        for idx in self.page_indices():
            page = self.read(idx * ps, ps, verify=False)
            if page.any():
                acc = (acc * 1000003 + idx) & 0xFFFFFFFFFFFF
                acc = (acc + int(page.astype(np.uint64).sum())) & 0xFFFFFFFFFFFF
        return acc


class PageStore(_Store):
    """A sparse file: bytes in slabs plus a map of which pages exist.

    A page exists once any byte of it was written; only existing pages
    count in :attr:`allocated_pages`, carry a CRC sidecar, and can be
    corrupted or repaired — a slab's never-written pages stay holes."""

    __slots__ = ("page_size", "_bytes", "_exists", "size", "integrity", "_crcs")

    #: Copies of each byte (what ``replication_of`` reports).
    factor = 1

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

    def _write(self, offs: List[int], lens: List[int], data: np.ndarray, at) -> Tuple[int, list]:
        """Store extents (``at``: where each one's bytes start in
        ``data``), allocate the pages they touch and refresh each touched
        page's sidecar once; returns the end of the highest extent and
        the *kept* pages — covered only in part and already failing their
        sidecar, they keep it, so a flip from before the write still
        raises on the next read instead of being blessed."""
        ps, bytes_, exists, top = self.page_size, self._bytes, self._exists, 0
        covered, kept = ByteRuns(), []
        if self.integrity:
            for o, n in zip(offs, lens):
                covered.add(o, o + n)
            edges = {lo // ps for lo, hi in covered if lo % ps}
            edges.update(hi // ps for lo, hi in covered if hi % ps)
            kept = sorted(index for index in edges if not self.verify_page(index))
        packed = not isinstance(data, Slabs)
        for o, n, a in zip(offs, lens, at):
            if packed:
                bytes_.write(o, data[a : a + n])
            else:
                bytes_.take(data, o, n)
            first = o // ps
            exists.fill(first, -(-(o + n) // ps) - first, True)
            if o + n > top:
                top = o + n
        for first, stop in ByteRuns.of_blocks(covered, ps):  # none without integrity
            for index in range(first, stop):
                if index not in kept:
                    self._crcs[index] = self._crc(index)
        return top, kept

    def _verify(self, offs: List[int], lens: List[int]) -> None:
        """Raise for the first page, in extent order, whose bytes fail
        their sidecar."""
        ps = self.page_size
        for o, n in zip(offs, lens):
            for index in self._pages_in(o // ps, -(-(o + n) // ps)):
                if not self.verify_page(index):
                    raise IntegrityError("page-read", index)

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

    def flip_bit(self, page_index: int, bit_index: int) -> None:
        """Silently flip one bit of an allocated page — the corruption
        model's entry point.  Deliberately does NOT update the sidecar:
        that mismatch is what detection detects."""
        if not self.has_page(page_index):
            raise FileSystemError(f"cannot corrupt unallocated page {page_index}")
        bit = bit_index % (self.page_size * 8)
        at = page_index * self.page_size + (bit >> 3)
        self._bytes.write(at, self._bytes.read(at, 1) ^ np.uint8(1 << (bit & 7)))

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
        self._write([index * self.page_size], [self.page_size], data, [0])

    # -- the batch protocol -------------------------------------------------
    def write_extents(self, offs, lens, data, up: Optional[Set[int]] = None) -> List[int]:
        """Write a batch in one pass (``up`` is moot: one copy); returns
        the kept pages (:meth:`_write`)."""
        lens = lens.tolist()
        top, kept = self._write(offs.tolist(), lens, data, accumulate(lens, initial=0))
        if top > self.size:
            self.size = top
        return kept

    def read_extents(self, offs, lens, out, up: Optional[Set[int]] = None, *, verify=True):
        """Fill ``out`` from a batch, every touched page verified before
        any byte is copied; the stripe map's split is the demand."""
        offs, lens = offs.tolist(), lens.tolist()
        if verify and self.integrity:
            self._verify(offs, lens)
        if isinstance(out, Slabs):
            for o, n in zip(offs, lens):
                out.share(self._bytes, o, n)
            return None, 0
        pos = 0
        for o, n in zip(offs, lens):
            self._bytes.read_into(o, out[pos : pos + n])
            pos += n
        return None, 0

    def truncate(self, size: int) -> None:
        """Set the logical file size, POSIX-style.

        Shrinking trims whole pages past the new end and zeroes the
        tail of a partially covered boundary page (those bytes must
        read as zero if the file regrows); growing just extends the
        logical size — the new bytes are a hole.  The boundary page is
        re-stamped only if it verified before the cut: one that already
        failed keeps its sidecar, as :meth:`_write` keeps a partly
        covered page's, so a flip from before the cut still raises."""
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
                good = self.verify_page(boundary)
                self._bytes.fill(boundary * ps + keep, ps - keep, 0)
                if self.integrity and good:
                    self._crcs[boundary] = self._crc(boundary)
        self.size = size


class ReplicatedStore(_Store):
    """``r`` per-OST page-store shards behind the batch protocol.

    Placement: the pages of stripe ``s`` replicate to OSTs
    ``(s + k) % num_osts`` for ``k < factor`` — the primary is exactly
    where the unreplicated striping formula puts the stripe, so with
    ``factor=1`` the layout degenerates to the seed's.

    The caller decides which OSTs are up and whether a write has
    quorum; the store writes the live replicas and records the missed
    ones' byte ranges as **stale**, so reads skip them until
    :meth:`rereplicate` heals them.  Shards store pages at their
    *logical* offsets; staleness is the only divergence tracked."""

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

    # -- placement ----------------------------------------------------------
    @property
    def quorum(self) -> int:
        """Live replicas a write needs to commit (majority)."""
        return self.factor // 2 + 1

    def replicas_of(self, offset: int) -> List[int]:
        """The OSTs holding the stripe containing ``offset``, primary first."""
        stripe = offset // self.stripe_size
        return [(stripe + k) % self.num_osts for k in range(self.factor)]

    def _place(self, offs, lens):
        """Cut a batch at stripe edges.  Per piece, in batch order: its
        offset, its length, where its bytes start in the batch's data,
        and its replica OSTs (one row, primary first)."""
        offs = np.asarray(offs, dtype=np.int64)
        lens = np.asarray(lens, dtype=np.int64)
        if not lens.all():
            offs, lens = offs[lens > 0], lens[lens > 0]
        at = np.cumsum(lens) - lens
        pos, n, stripes, extent = stripe_pieces(offs, lens, self.stripe_size)
        if extent is not None:
            at = at[extent] + pos - offs[extent]
        return pos, n, at, (stripes[:, None] + np.arange(self.factor)) % self.num_osts

    def _live(self, osts: np.ndarray, up: Optional[Set[int]]) -> np.ndarray:
        """Per piece and replica: is its OST live (``up=None``: all are)."""
        return np.isin(osts, list(range(self.num_osts) if up is None else up))

    def _fresh(self, offs, lens, osts, up) -> np.ndarray:
        """Per piece and replica: live, and no stale byte in the piece."""
        fresh = self._live(osts, up)
        for ost, runs in enumerate(self.stale):
            if not runs.empty:
                rows, cols = np.nonzero(osts == ost)
                fresh[rows, cols] &= ~runs.overlaps_each(offs[rows], offs[rows] + lens[rows])
        return fresh

    def _demand(self, osts: np.ndarray, lens: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-OST (bytes, fragments) of the pieces ``osts`` serve."""
        n = self.num_osts
        return np.bincount(osts, lens, n).astype(np.int64), np.bincount(osts, minlength=n)

    def plan(self, offs, lens, up: Optional[Set[int]], *, read: bool = False):
        """``(demand, short)`` for the caller's gate: ``short`` is the
        replicas of the first piece a read finds no live fresh copy of,
        or a write fewer live replicas than the quorum (else ``None``);
        ``demand`` a write's per-OST work on its live replicas."""
        offs, lens, _, osts = self._place(offs, lens)
        if read:
            ok, demand = self._fresh(offs, lens, osts, up).any(axis=1), None
        else:
            live = self._live(osts, up)
            ok = live.sum(axis=1) >= self.quorum
            demand = self._demand(osts[live], np.broadcast_to(lens[:, None], osts.shape)[live])
        short = np.flatnonzero(~ok)
        return demand, (osts[short[0]].tolist() if short.size else None)

    def fresh_replicas(self, offset: int, nbytes: int, up: Optional[Set[int]] = None) -> List[int]:
        """Live replicas of the (single-stripe) range with no stale bytes
        in it, in placement (primary-first) order."""
        offs, lens, _, osts = self._place([offset], [nbytes])
        return osts[0][self._fresh(offs, lens, osts, up)[0]].tolist()

    # -- the batch protocol -------------------------------------------------
    def write_extents(self, offs, lens, data, up: Optional[Set[int]] = None) -> List[int]:
        """Write every live replica, mark missed ones stale (the caller
        enforced the quorum: by now the write is committed); returns
        every shard's kept pages, one entry per corrupt replica."""
        pos, n, at, osts = self._place(offs, lens)
        kept: List[int] = []
        for ost, shard in enumerate(self.shards):
            rows = np.flatnonzero((osts == ost).any(axis=1))
            if not rows.size:
                continue
            lo, hi, runs = pos[rows].tolist(), (pos + n)[rows].tolist(), self.stale[ost]
            if up is None or ost in up:
                top, bad = shard._write(lo, n[rows].tolist(), data, at[rows].tolist())
                shard.size = max(shard.size, top)
                kept += bad
                for a, b in zip(lo, hi):
                    runs.remove(a, b)
            else:
                for a, b in zip(lo, hi):
                    runs.add(a, b)
        self.size = max(self.size, int((pos + n).max(initial=0)))
        return sorted(kept)

    def read_extents(self, offs, lens, out, up: Optional[Set[int]] = None, *, verify=True):
        """Fill ``out`` piece by piece from the first live fresh replica
        whose pages verify (each corrupt one skipped is a failover; the
        first error propagates when all are); returns the servers'
        demand.  A piece with no live fresh replica raises: the caller's
        gate (:meth:`plan`) reports that one typed."""
        pos, n, at, osts = self._place(offs, lens)
        fresh = self._fresh(pos, n, osts, up)
        check = verify and self.integrity
        served: List[int] = []
        failovers = 0
        pieces = zip(pos.tolist(), n.tolist(), at.tolist(), osts.tolist(), fresh.tolist())
        for p, c, a, row, ok in pieces:
            error: Optional[IntegrityError] = None
            for ost, good in zip(row, ok):
                if not good:
                    continue
                shard = self.shards[ost]
                if check:
                    try:
                        shard._verify([p], [c])
                    except IntegrityError as exc:
                        error, failovers = error or exc, failovers + 1
                        continue
                if isinstance(out, Slabs):
                    out.share(shard._bytes, p, c)
                else:
                    shard._bytes.read_into(p, out[a : a + c])
                served.append(ost)
                break
            else:
                if error is None:
                    raise FileSystemError(f"no live fresh replica for bytes [{p}, {p + c})")
                raise error  # every fresh replica corrupt
        return self._demand(np.array(served, dtype=np.int64), n), failovers

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

    def good_copy(self, index: int) -> Optional[np.ndarray]:
        """Page ``index`` from a replica that still verifies, if any
        (fsck's ``replica`` repair).  Stale replicas (pending
        re-replication) are not good sources — they verify but hold
        pre-outage bytes."""
        lo = index * self.page_size
        for ost in self.fresh_replicas(lo, self.page_size):
            shard = self.shards[ost]
            if shard.has_page(index) and shard.verify_page(index):
                return shard.read(lo, self.page_size, verify=False)
        return None

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


class Journal:
    """An open shadow-write transaction over a main store (the
    ``journal_writes`` hint), behind the same batch protocol.

    Writes land in a shadow :class:`PageStore` at their final offsets;
    :attr:`valid` holds the bytes the journal owns, which reads patch
    over the main store's (data sieving's pre-reads need them).  Abort
    — or a crash, which never commits — just drops the journal."""

    __slots__ = ("txid", "main", "store", "valid", "epochs")

    def __init__(self, txid: int, main: "PageStore | ReplicatedStore") -> None:
        self.txid = txid
        self.main = main
        #: The shadow store: journaled bytes, and the bit flips aimed at
        #: them, land here.
        self.store = PageStore(main.page_size, integrity=main.integrity)
        self.valid = ByteRuns()
        #: Epoch commit records staged inside this transaction; they
        #: become durable (join the file's epoch log) only at commit.
        self.epochs: List[dict] = []

    def write_extents(self, offs, lens, data, up: Optional[Set[int]] = None) -> List[int]:
        """Shadow a batch (``up`` matters only when it publishes)."""
        kept = self.store.write_extents(offs, lens, data)
        for lo, hi in zip(offs.tolist(), (offs + lens).tolist()):
            self.valid.add(lo, hi)
        return kept

    def read_extents(self, offs, lens, out, up: Optional[Set[int]] = None):
        """The main store's read with the journal's runs patched over it
        (returns what the main store served).  A bad journal page in
        extent ``i`` surfaces once the main store's extents up to ``i``
        verified, as if read extent by extent."""
        patches = []  # (extent index, journal run, its position in out)
        pos = 0
        for i, (o, n) in enumerate(zip(offs.tolist(), lens.tolist())):
            patches += [(i, lo, hi, pos + lo - o) for lo, hi in self.valid.intersect(o, o + n)]
            pos += n
        if self.store.integrity:
            for i, lo, hi, _ in patches:
                try:
                    self.store._verify([lo], [hi - lo])
                except IntegrityError:
                    self.main.read_extents(offs[: i + 1], lens[: i + 1], out, up)
                    raise
        served = self.main.read_extents(offs, lens, out, up)
        for _, lo, hi, at in patches:
            if isinstance(out, Slabs):
                out.share(self.store._bytes, lo, hi - lo)
            else:
                self.store._bytes.read_into(lo, out[at : at + hi - lo])
        return served

    def flip_bit(self, page_index: int, bit_index: int) -> None:
        self.store.flip_bit(page_index, bit_index)

    def pages(self) -> ByteRuns:
        """The pages the journal's runs touch, as runs of page indices."""
        return ByteRuns.of_blocks(self.valid, self.store.page_size)

    def commit(self, up: Optional[Set[int]] = None) -> List[int]:
        """Publish every run into the main store as one batch, after all
        of them verified: a bad shadow page raises ``journal-commit``
        (the first one in run order) with the main store untouched.
        Returns the main store's kept pages."""
        offs, ends = self.valid.arrays()
        lens = ends - offs
        data = np.empty(int(lens.sum()), dtype=np.uint8)
        try:
            self.store.read_extents(offs, lens, data)
        except IntegrityError as exc:
            raise IntegrityError("journal-commit", exc.page_index) from exc
        return self.main.write_extents(offs, lens, data, up)
