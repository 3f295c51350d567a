"""Verification helpers: oracle file images for HPIO workloads, and the
smoke workload (view, verified write, verified read-back) every CLI
command, the chaos harness and the crash experiment drive through an
open :class:`~repro.core.CollectiveFile`."""

from __future__ import annotations

import numpy as np

from repro.datatypes.packing import gather_segments, scatter_segments
from repro.datatypes.segments import FlatCursor, data_to_file_segments
from repro.fs.filesystem import SimFileSystem
from repro.hpio.patterns import HPIOPattern

__all__ = [
    "fill_pattern",
    "expected_file_bytes",
    "verify_write",
    "gather_expected_read",
    "smoke_pattern",
    "apply_view",
    "write_pattern",
    "read_back_ok",
]


def _rank_data(pattern: HPIOPattern, rank: int, seed: int) -> np.ndarray:
    """One rank's data bytes: a per-rank arithmetic sequence."""
    n = np.arange(pattern.bytes_per_client, dtype=np.int64)
    return ((n * 7 + rank * 13 + seed) % 251).astype(np.uint8)


def fill_pattern(pattern: HPIOPattern, rank: int, *, seed: int = 0) -> np.ndarray:
    """Deterministic user buffer for one rank (sized for the pattern).

    Data bytes are a per-rank arithmetic sequence; with non-contiguous
    memory, gap bytes are 0xEE so tests can detect gap leakage."""
    size = pattern.buffer_bytes()
    buf = np.full(size, 0xEE, dtype=np.uint8)
    n = pattern.bytes_per_client
    data = _rank_data(pattern, rank, seed)
    memtype = pattern.memtype()
    if memtype is None:
        buf[:n] = data
    else:
        memflat = memtype.flatten()
        batch = data_to_file_segments(memflat, 0, 0, n)
        scatter_segments(buf, batch, data)
    return buf


def expected_file_bytes(pattern: HPIOPattern, *, seed: int = 0) -> np.ndarray:
    """Oracle: the file image a correct collective write must produce."""
    out = np.zeros(pattern.file_extent, dtype=np.uint8)
    for rank in range(pattern.nprocs):
        flat = pattern.filetype(rank, "succinct").flatten()
        batch = FlatCursor(flat, pattern.file_disp(rank), pattern.bytes_per_client).all_segments()
        scatter_segments(out, batch, _rank_data(pattern, rank, seed))
    return out


def verify_write(fs: SimFileSystem, path: str, pattern: HPIOPattern, *, seed: int = 0) -> bool:
    """Compare server-side bytes against the oracle image."""
    got = fs.raw_bytes(path, 0, pattern.file_extent)
    return bool(np.array_equal(got, expected_file_bytes(pattern, seed=seed)))


def gather_expected_read(pattern: HPIOPattern, rank: int, file_image: np.ndarray) -> np.ndarray:
    """What a collective read must return for ``rank`` given a file image."""
    flat = pattern.filetype(rank, "succinct").flatten()
    batch = FlatCursor(flat, pattern.file_disp(rank), pattern.bytes_per_client).all_segments()
    return gather_segments(file_image, batch)


def smoke_pattern(nprocs: int, count: int = 16) -> HPIOPattern:
    """The one smoke workload: ``count`` 64-byte tiles per rank,
    interleaved round-robin in the file, contiguous in memory."""
    return HPIOPattern(nprocs, 64, count, region_spacing=0, mem_contig=True)


def apply_view(f, pattern: HPIOPattern, rank: int, representation: str = "succinct") -> None:
    """Set ``rank``'s view of ``pattern`` on the open collective file ``f``."""
    f.set_view(disp=pattern.file_disp(rank), filetype=pattern.filetype(rank, representation))


def write_pattern(f, pattern: HPIOPattern, rank: int, *, async_io: bool = False) -> None:
    """One collective write of ``rank``'s :func:`fill_pattern` buffer at
    the start of its view (``async_io``: ``iwrite_all`` + ``wait()``)."""
    f.seek(0)
    buf = fill_pattern(pattern, rank)
    if async_io:
        f.iwrite_all(buf, pattern.memtype()).wait()
    else:
        f.write_all(buf, pattern.memtype())


def read_back_ok(
    f, pattern: HPIOPattern, rank: int, *, async_io: bool = False, image: np.ndarray | None = None
) -> bool:
    """One collective read of ``rank``'s whole access into contiguous
    memory, compared against its bytes of ``image`` (default: the
    oracle image of a verified write)."""
    f.seek(0)
    out = np.zeros(pattern.bytes_per_client, dtype=np.uint8)
    if async_io:
        f.iread_all(out).wait()
    else:
        f.read_all(out)
    if image is None:
        image = expected_file_bytes(pattern)
    return bool(np.array_equal(out, gather_expected_read(pattern, rank, image)))
