"""Typed metrics instruments and the registry that interns them.

The registry holds every count of a run as a named, typed instrument:

* :class:`Counter` — a monotonically *written* number (plain attribute
  adds; nothing is locked because the engine runs one rank thread at a
  time).
* :class:`Gauge` — a last-written value (``set``); merges by ``max`` so
  cross-rank/cross-run merging stays associative.
* :class:`Histogram` — power-of-two bucketed distribution with count /
  total / min / max, mergeable bucket-wise.

Instruments are interned under ``(name, key)`` where ``name`` is a
stable dotted metric name (``net.inter.bytes``, ``cache.hits``) and
``key`` is an optional discriminator — a rank for per-rank views, a
path for per-file server counters, a client id for caches.  ``key=None``
is the simulation-global series.

The registry supports:

* **per-key views** (:meth:`MetricsRegistry.view`) that pre-bind the
  key so hot paths pay one dict lookup at setup, not per increment;
* **prefix views** (``registry.view(prefix="tenant.a.")``) — a
  :class:`PrefixRegistry` that namespaces every instrument registered
  through it under the prefix, and *reads back* with the prefix
  stripped, so a tenant's slice of a shared registry looks exactly like
  a private registry (the multi-tenant engine's attribution mechanism);
* **cross-rank / cross-run merge** (:meth:`MetricsRegistry.merge`) —
  counters add, gauges max, histograms add, which makes merging
  associative and commutative (tested) — and the inverse
  :meth:`MetricsRegistry.fold`, which extracts one prefix namespace
  into a standalone registry for cross-tenant comparison;
* **snapshot / diff** so harnesses can meter one phase of a run
  (``before = reg.snapshot(); ...; delta = reg.diff(before)``);
  ``snapshot(prefix=...)`` filters to one namespace without folding.

One registry per simulation is interned in ``Simulator.shared`` under
:data:`METRICS_KEY`; :class:`~repro.obs.session.Session` supplies its
own registry so every component of a session reports to one coherent,
exportable source.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterator, Optional, Tuple

__all__ = [
    "METRICS_KEY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsView",
    "PrefixRegistry",
    "metrics_registry",
]

#: Key of the shared per-simulation :class:`MetricsRegistry`.
METRICS_KEY = "metrics-registry"


class Counter:
    """A named cumulative number.  ``inc`` is a plain attribute add."""

    __slots__ = ("name", "key", "value")

    kind = "counter"

    def __init__(self, name: str, key: Hashable = None) -> None:
        self.name = name
        self.key = key
        self.value = 0

    def inc(self, n=1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, key={self.key!r}, value={self.value})"


class Gauge:
    """A named last-written value.  Merges by ``max`` (associative)."""

    __slots__ = ("name", "key", "value")

    kind = "gauge"

    def __init__(self, name: str, key: Hashable = None) -> None:
        self.name = name
        self.key = key
        self.value = 0

    def set(self, v) -> None:
        self.value = v

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name!r}, key={self.key!r}, value={self.value})"


class Histogram:
    """Power-of-two bucketed distribution of non-negative samples.

    Bucket ``e`` counts samples with ``2**(e-1) < v <= 2**e`` (sample
    0 lands in the dedicated zero bucket).  Exact count / total /
    min / max ride along, so summaries stay exact even though the
    shape is quantized."""

    __slots__ = ("name", "key", "count", "total", "min", "max", "buckets")

    kind = "histogram"

    def __init__(self, name: str, key: Hashable = None) -> None:
        self.name = name
        self.key = key
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: bucket exponent -> sample count ("zero" for v == 0).
        self.buckets: Dict[object, int] = {}

    @staticmethod
    def bucket_of(v) -> object:
        if v <= 0:
            return "zero"
        return math.ceil(math.log2(v))

    def record(self, v) -> None:
        self.count += 1
        self.total += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        b = self.bucket_of(v)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        for side in ("min", "max"):
            mine, theirs = getattr(self, side), getattr(other, side)
            if theirs is not None:
                pick = min if side == "min" else max
                setattr(self, side, theirs if mine is None else pick(mine, theirs))
        for b, n in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + n

    def summary(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items(), key=str)},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Histogram({self.name!r}, key={self.key!r}, count={self.count}, "
            f"mean={self.mean:g})"
        )


def _key_text(key: Hashable) -> str:
    if isinstance(key, tuple):
        return ":".join(str(k) for k in key)
    return str(key)


class MetricsRegistry:
    """Interning registry of named, keyed instruments."""

    __slots__ = ("_instruments",)

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Hashable], object] = {}

    # -- interning -------------------------------------------------------
    def _intern(self, cls, name: str, key: Hashable):
        inst = self._instruments.get((name, key))
        if inst is None:
            inst = cls(name, key)
            self._instruments[(name, key)] = inst
        elif type(inst) is not cls:
            raise TypeError(
                f"metric {name!r} (key {key!r}) already registered as "
                f"{inst.kind}, not {cls.kind}"
            )
        return inst

    def counter(self, name: str, key: Hashable = None) -> Counter:
        return self._intern(Counter, name, key)

    def gauge(self, name: str, key: Hashable = None) -> Gauge:
        return self._intern(Gauge, name, key)

    def histogram(self, name: str, key: Hashable = None) -> Histogram:
        return self._intern(Histogram, name, key)

    def view(
        self, key: Hashable = None, *, prefix: Optional[str] = None
    ) -> "MetricsView | PrefixRegistry":
        """A view with ``key`` pre-bound (per-rank, per-path, ...), or —
        with ``prefix`` — a :class:`PrefixRegistry` namespacing every
        instrument under ``prefix``.  Both at once compose: the key view
        is taken over the prefix registry."""
        if prefix is not None:
            reg = PrefixRegistry(self, prefix)
            return reg if key is None else MetricsView(reg, key)
        return MetricsView(self, key)

    # -- reads -----------------------------------------------------------
    def _iter_items(self) -> Iterator[tuple]:
        """((name, key), instrument) pairs — the single read seam that
        :class:`PrefixRegistry` overrides to filter and strip."""
        return iter(self._instruments.items())

    def __iter__(self) -> Iterator[object]:
        return (inst for _, inst in self._iter_items())

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_items())

    def get(self, name: str, key: Hashable = None):
        """The instrument, or ``None`` if never registered."""
        return self._instruments.get((name, key))

    def value(self, name: str, key: Hashable = None):
        """Current value of a counter/gauge (0 if never registered)."""
        inst = self.get(name, key)
        if inst is None:
            return 0
        if isinstance(inst, Histogram):
            return inst.count
        return inst.value

    def total(self, name: str):
        """Sum of a counter's values across every key (gauges: max)."""
        total = 0
        is_gauge = False
        values = []
        for (n, _), inst in self._iter_items():
            if n != name:
                continue
            if isinstance(inst, Histogram):
                values.append(inst.count)
            elif isinstance(inst, Gauge):
                is_gauge = True
                values.append(inst.value)
            else:
                values.append(inst.value)
        if not values:
            return 0
        return max(values) if is_gauge else sum(values)

    def names(self) -> list:
        return sorted({name for (name, _), _ in self._iter_items()})

    def keys_of(self, name: str) -> list:
        return [k for (n, k), _ in self._iter_items() if n == name]

    # -- snapshot / diff --------------------------------------------------
    def snapshot(self, prefix: str = "") -> Dict[str, object]:
        """Flat ``{"name" | "name[key]": value}`` map of every instrument.

        Histograms snapshot as their summary dict; counters and gauges
        as plain numbers.  Deterministically ordered.  ``prefix``
        filters to instruments whose *name* starts with it (per-tenant
        namespaces can be inspected without folding the registry)."""
        out: Dict[str, object] = {}
        for (name, key), inst in sorted(
            self._iter_items(), key=lambda kv: (kv[0][0], _key_text(kv[0][1]))
        ):
            if prefix and not name.startswith(prefix):
                continue
            label = name if key is None else f"{name}[{_key_text(key)}]"
            out[label] = (
                inst.summary() if isinstance(inst, Histogram) else inst.value
            )
        return out

    def diff(self, before: Dict[str, object]) -> Dict[str, object]:
        """Changes since ``before`` (a prior :meth:`snapshot`).

        Numeric series subtract; histogram summaries subtract their
        counts/totals.  Unchanged series are omitted, so the result is
        exactly "what this phase did"."""
        out: Dict[str, object] = {}
        now = self.snapshot()
        for label, value in now.items():
            prev = before.get(label)
            if isinstance(value, dict):
                pcount = prev["count"] if isinstance(prev, dict) else 0
                ptotal = prev["total"] if isinstance(prev, dict) else 0.0
                if value["count"] != pcount:
                    out[label] = {
                        "count": value["count"] - pcount,
                        "total": value["total"] - ptotal,
                    }
            else:
                delta = value - (prev if isinstance(prev, (int, float)) else 0)
                if delta:
                    out[label] = delta
        return out

    # -- merge -----------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (associatively); returns self.

        Counters add, gauges take the max, histograms merge bucket-wise
        — all associative and commutative, so merging rank registries
        (or per-run registries) in any grouping yields the same totals.
        """
        for (name, key), inst in other._iter_items():
            if isinstance(inst, Counter):
                self.counter(name, key).value += inst.value
            elif isinstance(inst, Gauge):
                g = self.gauge(name, key)
                g.value = max(g.value, inst.value)
            else:
                self.histogram(name, key).merge(inst)
        return self

    @classmethod
    def merged(cls, *registries: "MetricsRegistry") -> "MetricsRegistry":
        out = cls()
        for r in registries:
            out.merge(r)
        return out

    def fold(self, prefix: str) -> "MetricsRegistry":
        """Extract one ``prefix`` namespace as a standalone registry.

        The inverse of writing through ``view(prefix=...)``: the result
        holds *copies* of the namespace's instruments under their bare
        names, so a tenant's slice can be compared against a solo run's
        registry (or re-merged across tenants) with plain :meth:`merge`
        arithmetic."""
        return MetricsRegistry().merge(self.view(prefix=prefix))

    # -- rendering -------------------------------------------------------
    def format(self, prefix: str = "") -> str:
        """Human-readable table (optionally filtered by name prefix)."""
        rows = []
        for label, value in self.snapshot().items():
            if prefix and not label.startswith(prefix):
                continue
            if isinstance(value, dict):
                text = (
                    f"count={value['count']} mean={value['mean']:g} "
                    f"max={value['max']}"
                )
            elif isinstance(value, float):
                text = f"{value:.6f}"
            else:
                text = str(value)
            rows.append((label, text))
        if not rows:
            return "(no metrics)"
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {text}" for label, text in rows)


class PrefixRegistry(MetricsRegistry):
    """A namespace slice of a parent registry.

    Writes intern instruments in the *parent* under ``prefix + name``;
    reads (``get``/``value``/``total``/``names``/``snapshot``/iteration)
    see only the namespace, with the prefix stripped — so the slice is
    indistinguishable from a private :class:`MetricsRegistry` to the
    components writing through it.  This is how one shared registry
    serves N tenants: each tenant's components receive
    ``registry.view(prefix=f"tenant.{name}.")`` and report ``coll.*`` /
    ``faults.*`` series that land as ``tenant.<name>.coll.*`` globally.

    Nested prefixes compose (a prefix view of a prefix view flattens to
    the concatenated prefix on the root registry)."""

    __slots__ = ("_parent", "_prefix")

    def __init__(self, parent: MetricsRegistry, prefix: str) -> None:
        if isinstance(parent, PrefixRegistry):
            prefix = parent._prefix + prefix
            parent = parent._parent
        self._parent = parent
        self._prefix = prefix
        # Alias the parent's store: instruments interned through this
        # view are shared state, not copies.
        self._instruments = parent._instruments

    @property
    def prefix(self) -> str:
        return self._prefix

    @property
    def parent(self) -> MetricsRegistry:
        return self._parent

    # -- writes: intern under the prefixed name --------------------------
    def _intern(self, cls, name: str, key: Hashable):
        return self._parent._intern(cls, self._prefix + name, key)

    # -- reads: filter to the namespace, strip the prefix ----------------
    def _iter_items(self) -> Iterator[tuple]:
        p = self._prefix
        n = len(p)
        for (name, key), inst in self._parent._iter_items():
            if name.startswith(p):
                yield (name[n:], key), inst

    def get(self, name: str, key: Hashable = None):
        return self._parent.get(self._prefix + name, key)


class MetricsView:
    """A registry view with the instrument key pre-bound."""

    __slots__ = ("registry", "key")

    def __init__(self, registry: MetricsRegistry, key: Hashable) -> None:
        self.registry = registry
        self.key = key

    def counter(self, name: str) -> Counter:
        return self.registry.counter(name, self.key)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name, self.key)

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(name, self.key)

    def value(self, name: str):
        return self.registry.value(name, self.key)

    def snapshot(self) -> Dict[str, object]:
        """This key's instruments only, under their bare names."""
        out: Dict[str, object] = {}
        for (name, key), inst in sorted(
            self.registry._iter_items(), key=lambda kv: kv[0][0]
        ):
            if key == self.key:
                out[name] = (
                    inst.summary() if isinstance(inst, Histogram) else inst.value
                )
        return out


def metrics_registry(shared: dict) -> MetricsRegistry:
    """The simulation's shared registry (interned on first use).

    :class:`~repro.obs.session.Session` pre-installs its own registry
    under the same key, so components discover the session registry
    transparently."""
    reg = shared.get(METRICS_KEY)
    if reg is None:
        reg = shared.setdefault(METRICS_KEY, MetricsRegistry())
    return reg
