"""Slabs shared copy-on-write between the store, client caches and payloads.

A fetch hands the cache the store's slab arrays by reference, and a
flush hands the store the cache's (``fs.store.Slabs``).  Sharing is only
sound if every holder copies before it writes a slab another holder
references.  These tests first check that the arrays really are shared
(so none of them passes vacuously), then that no mutation on one side
shows through on the other:

* every store-side mutation — ``flip_bit``, ``raw_write``, ``truncate``,
  ``zero_page``, ``rewrite_page``, another client's flush — leaves the
  cache's cached bytes as they were;
* a cache write leaves the store as it was until the cache flushes;
* a replicated flush shares one array across both replicas, and a flip
  on one replica fails the read over to the other, which still verifies;
* an incoherent fetch during whose yield another client rewrites the
  store installs the snapshot taken before that write;
* statically: outside ``Slabs`` no code writes through an array it got
  from ``Slabs.get``, ``Slabs.items`` or ``PageStore._page``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import CostModel
from repro.fs import FSClient, SimFileSystem
from repro.fs.store import SLAB_PAGES, ReplicatedStore
from repro.sim import Simulator

PS = 64
W = SLAB_PAGES * PS  # one slab; the stripe too, so a replicated flush covers slabs whole
PATH = "/s"


def _fs(*, replication: int = 1, integrity: bool = False) -> SimFileSystem:
    fs = SimFileSystem(CostModel(page_size=PS, stripe_size=W, num_osts=2))
    fs.ensure_file(PATH)
    if integrity:
        fs.enable_integrity(PATH)
    fs.enable_replication(PATH, replication)
    return fs


def _bytes(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def _run(body) -> None:
    Simulator(1).run(lambda ctx: body(ctx))


def _open(fs: SimFileSystem, ctx, client: str, mode: str):
    return FSClient(fs, ctx, client_id=client).open(PATH, cache_mode=mode)


def _flushed(fs: SimFileSystem, ctx, mode: str, data: np.ndarray):
    """A client that wrote ``data`` at offset 0 and flushed it, its cache
    and the store now holding the same slab arrays."""
    f = _open(fs, ctx, "mine", mode)
    f.write(0, data)
    f.sync()
    store = fs.page_store(PATH)
    for index in range(data.size // W):
        assert f.cache._buf.get(index) is store._bytes.get(index)
    return f


# -- store-side mutations ---------------------------------------------------------------
def _other_flush(fs, ctx):
    other = _open(fs, ctx, "other", "incoherent")
    other.write(100, np.full(300, 0xEE, dtype=np.uint8))
    other.write(W, np.full(W, 0xDD, dtype=np.uint8))  # a slab whole: taken by reference
    other.sync()


MUTATIONS = {
    "flip_bit": lambda fs, ctx: fs.page_store(PATH).flip_bit(3, 5),
    "raw_write": lambda fs, ctx: fs.raw_write(PATH, 100, np.full(50, 0xAA, dtype=np.uint8)),
    "truncate": lambda fs, ctx: fs.page_store(PATH).truncate(W + 1000),
    "zero_page": lambda fs, ctx: fs.page_store(PATH).zero_page(3),
    "rewrite_page": lambda fs, ctx: fs.page_store(PATH).rewrite_page(
        3, np.full(PS, 7, dtype=np.uint8)
    ),
    "other_flush": _other_flush,
}


@pytest.mark.parametrize(
    "mutation,mode",
    [(m, mode) for m in sorted(MUTATIONS) for mode in ("coherent", "incoherent")
     # another writer revokes a coherent cache's pages instead of leaving them
     if not (m == "other_flush" and mode == "coherent")],
)
def test_a_store_mutation_leaves_the_cached_bytes(mutation, mode):
    fs = _fs()
    data = _bytes(1, 2 * W)

    def body(ctx):
        f = _flushed(fs, ctx, mode, data)
        MUTATIONS[mutation](fs, ctx)
        assert not np.array_equal(fs.raw_bytes(PATH, 0, 2 * W), data)  # the store moved
        assert np.array_equal(f.cache._buf.read(0, 2 * W), data)
        reads = fs.metrics(PATH).value("fs.server.reads")
        assert np.array_equal(f.read(0, 2 * W), data)  # served from the cache
        assert fs.metrics(PATH).value("fs.server.reads") == reads

    _run(body)


def test_a_cache_write_leaves_the_store_until_its_flush():
    fs = _fs()
    data = _bytes(2, 2 * W)
    patch, slab = np.full(20, 9, dtype=np.uint8), np.full(W, 8, dtype=np.uint8)

    def body(ctx):
        f = _flushed(fs, ctx, "incoherent", data)
        f.write(10, patch)  # part of a shared slab: copied first
        f.write(W, slab)  # a shared slab whole: a fresh one
        assert np.array_equal(fs.raw_bytes(PATH, 0, 2 * W), data)
        f.sync()
        want = data.copy()
        want[10:30], want[W:] = patch, slab
        assert np.array_equal(fs.raw_bytes(PATH, 0, 2 * W), want)

    _run(body)


def test_a_replicated_flush_shares_one_array_and_a_flip_fails_over():
    fs = _fs(replication=2, integrity=True)
    data = _bytes(3, W)

    def body(ctx):
        f = _open(fs, ctx, "mine", "incoherent")
        f.write(0, data)
        f.sync()
        store = fs.page_store(PATH)
        assert isinstance(store, ReplicatedStore)
        primary, second = (store.shards[ost] for ost in store.replicas_of(0))
        assert primary._bytes.get(0) is second._bytes.get(0) is f.cache._buf.get(0)
        store.flip_bit(2, 11)  # the primary's copy
        assert not primary.verify_page(2) and second.verify_page(2)
        out = np.empty(W, dtype=np.uint8)
        _, failovers = store.read_extents(np.array([0]), np.array([W]), out)
        assert failovers == 1 and np.array_equal(out, data)
        assert np.array_equal(f.cache._buf.read(0, W), data)

    _run(body)


@pytest.mark.parametrize("mine_first", [False, True], ids=["cold", "merged-under-valid"])
def test_an_incoherent_fetch_installs_the_snapshot_from_before_a_concurrent_write(mine_first):
    """While ``mine``'s fetch yields (store read, pages not installed),
    ``other`` rewrites part of one slab (the store copies: the fetch's
    payload holds it) and all of another, and flushes.  ``mine`` reads
    what the store held when its fetch read it, as a copy would."""
    fs = _fs()
    old = _bytes(4, 2 * W)
    fs.raw_write(PATH, 0, old)
    mine_bytes = np.full(50, 0x11, dtype=np.uint8)
    real_read = fs.server_read

    def body(ctx):
        mine = _open(fs, ctx, "mine", "incoherent")
        if mine_first:
            mine.write(0, mine_bytes)  # valid and dirty: the fetch merges under it

        def server_read(ctx, client_id, *args, **kw):
            out = real_read(ctx, client_id, *args, **kw)
            if client_id == "mine" and fs.server_read is server_read:
                fs.server_read = real_read
                _other_flush(fs, ctx)
            return out

        fs.server_read = server_read
        try:
            got = mine.read(0, 2 * W)
        finally:
            fs.server_read = real_read
        want = old.copy()
        if mine_first:
            want[:50] = mine_bytes
        assert np.array_equal(got, want)
        assert np.array_equal(mine.read(0, 2 * W), want)  # what it installed
        assert fs.raw_bytes(PATH, W, W).tolist() == [0xDD] * W  # the store moved on
        assert fs.raw_bytes(PATH, 100, 300).tolist() == [0xEE] * 300

    _run(body)


# -- nothing writes through a slab outside Slabs ----------------------------------------
_FS = Path(repro.__file__).parent / "fs"
#: Calls that write into an array passed to them or called on.
_IN_PLACE = {"fill", "sort", "put", "itemset", "setfield", "resize", "copyto", "place", "putmask"}


def _slab_attrs(trees) -> set:
    """Attribute names that some ``x.<name> = Slabs(...)`` binds."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if getattr(node.value.func, "id", None) == "Slabs":
                    names.update(t.attr for t in node.targets if isinstance(t, ast.Attribute))
    return names


def _slab_source(node, attrs: set) -> bool:
    """``x.<slab attr>.get(...)`` / ``.items()``, or ``x._page(...)``."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    if node.func.attr == "_page":
        return True
    owner = node.func.value
    return node.func.attr in ("get", "items") and getattr(owner, "attr", None) in attrs


def _writes_through_slabs(tree, attrs: set) -> list:
    """Lines that write into a slab array obtained outside ``Slabs``."""
    bad = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        held = set()  # local names bound to a slab array (or a view of one)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and _slab_source(node.value, attrs):
                held.update(n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name))
            if isinstance(node, (ast.For, ast.comprehension)) and _slab_source(node.iter, attrs):
                held.update(n.id for n in ast.walk(node.target) if isinstance(n, ast.Name))

        def through(expr) -> bool:
            while isinstance(expr, ast.Subscript):
                expr = expr.value
            return _slab_source(expr, attrs) or isinstance(expr, ast.Name) and expr.id in held

        for node in ast.walk(func):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for t in targets:
                for sub in ast.walk(t):
                    if isinstance(sub, ast.Subscript) and through(sub):
                        bad.append(node.lineno)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _IN_PLACE and (
                    through(node.func.value) or any(through(a) for a in node.args[:1])
                ):
                    bad.append(node.lineno)
            if isinstance(node, ast.Call):
                bad += [node.lineno for k in node.keywords if k.arg == "out" and through(k.value)]
    return bad


def _outside_slabs(tree):
    """The module without the body of ``class Slabs``."""
    tree.body = [n for n in tree.body if not (isinstance(n, ast.ClassDef) and n.name == "Slabs")]
    return tree


def test_nothing_outside_slabs_writes_through_a_slab():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(_FS.glob("*.py"))}
    attrs = _slab_attrs(trees.values())
    assert {"_bytes", "_buf", "_stamp", "_exists"} <= attrs
    bad = {
        name: lines
        for name, tree in trees.items()
        if (lines := _writes_through_slabs(_outside_slabs(tree), attrs))
    }
    assert bad == {}


def test_the_slab_write_check_sees_each_way_of_writing():
    """The checker flags each write it is meant to (so its silence above
    means something) and leaves reads alone."""
    attrs = {"_bytes"}
    source = """
def f(self, i):
    self._page(i)[3] ^= 1
    view = self._page(i)
    view[:4] = 0
    slab = self._bytes.get(0)
    slab[1:2][0] = 5
    slab.fill(0)
    np.copyto(slab, 1)
    np.add(slab, 1, out=slab)
    for index, s in self._bytes.items():
        s[0] = 1
    ok = self._bytes.get(0)[:4].copy()
    ok[0] = 1
    return zlib.crc32(self._page(i)) + int(slab.sum())
"""
    lines = _writes_through_slabs(ast.parse(source), attrs)
    assert sorted(set(lines)) == [3, 5, 7, 8, 9, 10, 12], lines
