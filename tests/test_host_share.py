"""What a communicator's ranks share on the host (``Communicator.host``).

All ranks run in one process, one at a time, so a value every rank of a
collective call would derive alike from agreed inputs — realm domains,
their clipped form and round count, round windows, a decoded access
description, the open's compat resolution — is computed by the first
rank that needs it and reused by the others:

* in one ``write_all`` with ``cb_nodes=4``, ``RealmDomain`` is built as
  often at 64 ranks as at 16; every rank's planner holds the same
  domain objects, and their arrays are read-only;
* a ``set_view`` that moves the aggregate access region gets fresh
  geometry, equal to the strategy's realms clipped to the request
  bounds, computed directly;
* the table itself: keyed values, no cached exception or mutable
  value, and room for two calls' keys of its communicator;
* at 64 ranks, each distinct access description is decoded once, and
  a call of many rounds derives its windows and clipped domains once;
* two tenants of one ``Cluster`` (different file sizes) each keep their
  own table and both files hold the right bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BYTE, Cluster, Hints, Session, contiguous, resized
from repro.core import realms, two_phase_new, two_phase_old
from repro.core.realms import RealmDomain, resolve_strategy
from repro.hpio.timeseries import TimeSeriesPattern
from repro.mpi.comm import HostTable

#: Each rank writes 48 of every 64 bytes of its slot: the holes let the
#: request bounds clip the realms.
_REGION, _DATA, _TILES = 64, 48, 8


def _body(shift: int = 0):
    """One strided write_all per call; a second call, with ``shift``,
    moves the view (and so the aggregate access region)."""

    def body(ctx, comm, f):
        tile = resized(contiguous(_DATA, BYTE), 0, _REGION * comm.size)
        data = np.full(_DATA * _TILES, comm.rank + 1, dtype=np.uint8)
        f.set_view(disp=comm.rank * _REGION, filetype=tile)
        f.write_all(data)
        if shift:
            f.set_view(disp=shift + comm.rank * _REGION, filetype=tile)
            f.write_all(data)
        return comm.host

    return body


def _image(nprocs: int, shifts=(0,)) -> np.ndarray:
    """The file the body leaves (later calls overwrite earlier ones)."""
    size = max(shifts) + _REGION * nprocs * _TILES
    out = np.zeros(size, dtype=np.uint8)
    for shift in shifts:
        for rank in range(nprocs):
            for t in range(_TILES):
                at = shift + rank * _REGION + t * _REGION * nprocs
                out[at : at + _DATA] = rank + 1
    return out


def _file_is(fs, path: str, image: np.ndarray) -> bool:
    size = fs.file_size(path)
    return size == int(np.flatnonzero(image)[-1]) + 1 and np.array_equal(
        fs.raw_bytes(path, 0, size), image[:size]
    )


def _spans(nprocs: int, shift: int):
    """Every rank's [first, last + 1) file bytes in one call."""
    last = (_TILES - 1) * _REGION * nprocs + _DATA
    return [(shift + r * _REGION, shift + r * _REGION + last) for r in range(nprocs)]


def _run(nprocs: int, monkeypatch, shift: int = 0, planner=two_phase_new._Plan, hints=None):
    """Run the body; returns (session, RealmDomain constructions,
    planners in construction order)."""
    built = [0]
    init = RealmDomain.__init__

    def counting(self, starts, ends):
        built[0] += 1
        init(self, starts, ends)

    planners = []
    plan_init = planner.__init__

    def recording(self, *args, **kwargs):
        plan_init(self, *args, **kwargs)
        planners.append(self)

    monkeypatch.setattr(RealmDomain, "__init__", counting)
    monkeypatch.setattr(planner, "__init__", recording)
    s = Session("/d", nprocs=nprocs, hints={"cb_nodes": 4, **(hints or {})})
    s.run(_body(shift))
    monkeypatch.undo()
    return s, built[0], planners


@pytest.mark.parametrize("planner, hints", [(two_phase_new._Plan, {}), (two_phase_old._OldPlan, {"coll_impl": "old"})])
def test_realm_domains_are_built_once_per_call_whatever_the_rank_count(monkeypatch, planner, hints):
    counts = {}
    for nprocs in (16, 64):
        s, counts[nprocs], planners = _run(nprocs, monkeypatch, planner=planner, hints=hints)
        assert _file_is(s.fs, "/d", _image(nprocs))
        assert len(planners) == nprocs
        first = planners[0].domains
        assert len(first) == 4
        for p in planners:
            assert p.domains is first
            assert all(a is b for a, b in zip(p.domains, first))
        for d in first:
            for name in ("starts", "ends", "prefix"):
                with pytest.raises(ValueError):
                    getattr(d, name)[0] = 0
    # The realms' domains and their clipped form: four each.
    assert counts[16] == counts[64] == 8, counts


def test_a_moved_view_gets_fresh_geometry_equal_to_the_direct_derivation(monkeypatch):
    nprocs, shift = 16, 5000
    s, _, planners = _run(nprocs, monkeypatch, shift=shift)
    assert _file_is(s.fs, "/d", _image(nprocs, (0, shift)))
    calls = planners[:nprocs], planners[nprocs:]
    assert len(calls[1]) == nprocs
    assert calls[0][0].domains is not calls[1][0].domains
    hints = Hints(cb_nodes=4)
    for moved, plans in zip((0, shift), calls):
        assert all(p.domains is plans[0].domains for p in plans)
        p = plans[0]
        spans = _spans(nprocs, moved)
        lo, hi = p.aar_lo, p.aar_hi
        assert (lo, hi) == (spans[0][0], spans[-1][1])
        want = []
        for realm in resolve_strategy(hints).assign(lo, hi, len(p.aggs)):
            d = realm.domain(lo, hi)
            # The request bounds: each rank's span cut to the realm.
            s, e = int(d.starts[0]), int(d.ends[-1])
            cut = [(max(s, a), min(e, b)) for a, b in spans if max(s, a) < min(e, b)]
            want.append(d.clip(min(a for a, _ in cut), max(b for _, b in cut)))
        for got, exp in zip(p.domains, want):
            assert np.array_equal(got.starts, exp.starts) and np.array_equal(got.ends, exp.ends)
        assert p.nrounds == max(d.nrounds(p.cb) for d in want)


def test_the_table_keys_values_and_never_keeps_an_exception_or_a_mutable_value():
    table = HostTable(4)
    calls = []

    def compute(x):
        calls.append(x)
        return (np.arange(x), x)

    a = table.get(("k", 3), compute, 3)
    assert table.get(("k", 3), compute, 99) is a  # a hit never computes
    assert calls == [3]
    with pytest.raises(ValueError):
        a[0][0] = 7

    def fail():
        calls.append("fail")
        raise KeyError("boom")

    for _ in range(2):
        with pytest.raises(KeyError):
            table.get("bad", fail)
    assert calls.count("fail") == 2
    # A list (or dict, set) could not be made read-only: refused, and
    # never stored.
    for _ in range(2):
        with pytest.raises(TypeError):
            table.get("list", lambda: (np.arange(2), [1, 2]))
    assert "list" not in table._entries


@pytest.mark.parametrize("size", [1, 16, 64])
def test_the_table_holds_two_calls_of_its_communicator(size):
    """A call stores one description per client and KEYS_PER_CALL other
    values; aggregators walk the clients in order, so the table must
    keep a whole call's keys or a cyclic walk never hits."""
    table = HostTable(size)
    per_call = size + HostTable.KEYS_PER_CALL
    assert table.capacity == 2 * per_call
    calls = []
    keys = [("k", i) for i in range(2 * per_call)]
    for _ in range(3):
        for key in keys:
            table.get(key, calls.append, key)
    assert len(calls) == len(keys)  # every later pass hit
    table.get("one more", calls.append, None)
    table.get(keys[0], calls.append, keys[0])
    assert calls[-1] == keys[0]  # the oldest key went first


def _timeseries_body(ts):
    def body(ctx, comm, f):
        for t in range(ts.timesteps):
            f.set_view(disp=0, filetype=ts.filetype(comm.rank, t))
            f.write_all(ts.step_buffer(comm.rank, t))

    return body


def test_each_distinct_description_is_decoded_once_at_64_ranks(monkeypatch):
    """Per-rank filetypes (the Fig. 7 time series): every rank ships a
    different description, and every aggregator still decodes none that
    another aggregator already decoded."""
    ts = TimeSeriesPattern(nprocs=64, element_size=8, elems_per_point=64, points=8, timesteps=2)
    decoded = []
    decode = two_phase_new.decode_flat

    def counting(blob):
        decoded.append(blob)
        return decode(blob)

    monkeypatch.setattr(two_phase_new, "decode_flat", counting)
    s = Session("/t", nprocs=ts.nprocs, hints={"cb_nodes": 8})
    s.run(_timeseries_body(ts))
    assert len(set(decoded)) == ts.nprocs * ts.timesteps
    assert len(decoded) == len(set(decoded))
    want = np.zeros(ts.file_bytes, dtype=np.uint8)
    elem = np.arange(ts.element_size)
    for t in range(ts.timesteps):
        for rank in range(ts.nprocs):
            starts = (
                np.arange(ts.points)[:, None] * ts.point_bytes
                + t * ts.slot_bytes
                + ts.my_elements(rank)[None, :] * ts.element_size
            ).ravel()
            want[(starts[:, None] + elem).ravel()] = ts.step_buffer(rank, t)
    assert _file_is(s.fs, "/t", want)


@pytest.mark.parametrize("planner, hints", [(two_phase_new._Plan, {}), (two_phase_old._OldPlan, {"coll_impl": "old"})])
def test_a_call_of_many_rounds_derives_its_windows_and_clip_once(monkeypatch, planner, hints):
    """64 ranks, more rounds than the table has keys: a client that runs
    every round before its peers start still leaves every round's
    windows for them (they come with the clipped domains, one key per
    call, not one per round)."""
    counts = {"round_windows": 0, "_clip": 0}
    for name in counts:
        real = getattr(realms, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(realms, name, counting)
    nprocs = 64
    s, _, planners = _run(nprocs, monkeypatch, planner=planner, hints={"cb_buffer_size": 48, **hints})
    nrounds = planners[0].nrounds
    assert nrounds > planners[0].env.comm.host.capacity
    assert counts == {"round_windows": nrounds, "_clip": 1}
    assert _file_is(s.fs, "/d", _image(nprocs))


def _tenant_body(count: int):
    def body(ctx, comm, f):
        tile = resized(contiguous(_DATA, BYTE), 0, _REGION * comm.size)
        f.set_view(disp=comm.rank * _REGION, filetype=tile)
        f.write_all(np.full(_DATA * count, comm.rank + 1, dtype=np.uint8))
        return comm.host

    return body


def test_two_tenants_keep_their_own_tables_and_their_own_bytes():
    cl = Cluster()
    cl.add_tenant("big", _tenant_body(_TILES), nprocs=8, path="/big", hints={"cb_nodes": 4})
    cl.add_tenant("small", _tenant_body(3), nprocs=8, path="/small", hints={"cb_nodes": 4})
    out = cl.run()
    tables = {name: set(map(id, out[name].results)) for name in ("big", "small")}
    assert all(len(ids) == 1 for ids in tables.values())
    assert tables["big"] != tables["small"]
    for path, count in (("/big", _TILES), ("/small", 3)):
        want = np.zeros(_REGION * 8 * count, dtype=np.uint8)
        for rank in range(8):
            for t in range(count):
                at = rank * _REGION + t * _REGION * 8
                want[at : at + _DATA] = rank + 1
        assert _file_is(cl.fs, path, want)
