"""Outside-in layer patching for the benchmark's traced runs.

The spans themselves are the program's own (``repro.obs.trace``): a
traced pass installs a ``TraceCollector``, and every wrapped call opens
``trace.span(name, layer=..., request=...)``.  What lives here is only
what the program does not have:

* the patching: a public callable is wrapped at the binding its callers
  actually use.  A function is replaced in every loaded ``repro`` module
  that holds it (``from .arbiter import arbitrate`` copies the binding,
  so patching only the defining module would miss callers), and a
  method is replaced on its class.  Nothing under ``src/`` changes;
* the request id (cell label, curve label or job id), set by the
  benchmark around each unit of work and stamped on each span when it
  closes;
* the self-time index (:class:`SpanIndex`).

The program's own spans (``campaign_cell``, ``uniformization_propagate``
...) land in the same collector.  They are not layers: the index hangs
each benchmark span under its nearest benchmark ancestor, so their time
counts as self time of the layer that encloses them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import trace

#: A span record as ``TraceCollector`` keeps it (``span_id``,
#: ``parent_id``, ``name``, ``t_start``, ``duration_s``, ``attrs`` ...).
Record = Dict[str, Any]


class Tracer:
    """A collector for one traced pass plus the patches that feed it."""

    def __init__(self) -> None:
        self.collector = trace.TraceCollector()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _rid(self) -> Optional[str]:
        return getattr(self._local, "rid", None)

    @contextmanager
    def request(self, rid: str):
        """Tag every span closed on this thread inside the block with ``rid``."""
        previous = self._rid()
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    def set_request(self, rid: Optional[str]) -> None:
        """Re-tag the current thread, e.g. once a job id is known."""
        self._local.rid = rid

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        with trace.span(name, layer=name.partition(".")[0]) as sp:
            try:
                yield
            finally:
                sp.attrs["request"] = self._rid()

    def wrap(
        self,
        fn: Callable,
        name: str,
        observe: Optional[Callable[[Any], Dict[str, Any]]] = None,
        request: Optional[Callable[[tuple, dict], Optional[str]]] = None,
    ) -> Callable:
        """``fn`` opening a span named ``name`` per call.

        ``observe`` maps the return value to span attributes (for
        example the state count of an assembled chain).  ``request``
        maps the call's arguments to a request id that tags this span
        and its children, appended to the enclosing one.
        """
        local = self._local
        layer = name.partition(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = getattr(local, "rid", None)
            if request is not None:
                inner = request(args, kwargs)
                if inner is not None:
                    local.rid = inner if outer is None else f"{outer}/{inner}"
            with trace.span(name, layer=layer) as sp:
                try:
                    result = fn(*args, **kwargs)
                    if observe is not None:
                        sp.attrs.update(observe(result))
                    return result
                finally:
                    sp.attrs["request"] = getattr(local, "rid", None)
                    local.rid = outer

        return traced

    @contextmanager
    def collecting(self):
        """Install this tracer's collector for the traced pass."""
        with trace.use_collector(self.collector):
            yield

    # -- patching ----------------------------------------------------------

    def patch_function(
        self,
        module_name: str,
        attr: str,
        name: str,
        observe: Optional[Callable[[Any], Dict[str, Any]]] = None,
        request: Optional[Callable[[tuple, dict], Optional[str]]] = None,
    ) -> int:
        """Wrap ``module.attr`` in every loaded ``repro`` module bound to it.

        Returns the number of bindings replaced (at least one).
        """
        original = getattr(importlib.import_module(module_name), attr)
        traced = self.wrap(original, name, observe, request)
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, traced)
                    replaced += 1
        return replaced

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap the method ``cls.attr`` (defined on ``cls`` itself)."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def index(self) -> "SpanIndex":
        return SpanIndex(self.collector.spans())

    def write(self, path: Path) -> None:
        """Write every collected record as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        self.collector.export_jsonl(path)


class SpanIndex:
    """Self times and ancestry of the benchmark's spans.

    Only spans carrying a ``layer`` attribute are layers.  Each one's
    parent is its nearest layer ancestor, so the program's own spans in
    between count as self time of the layer around them.
    """

    def __init__(self, records: Iterable[Record]):
        records = [r for r in records if r.get("kind", "span") == "span"]
        by_id = {r["span_id"]: r for r in records}
        self.spans: List[Record] = [r for r in records if "layer" in r["attrs"]]
        self.parent: Dict[int, Optional[Record]] = {}
        child_time: Dict[int, float] = {}
        for r in self.spans:
            node = by_id.get(r["parent_id"])
            while node is not None and "layer" not in node["attrs"]:
                node = by_id.get(node["parent_id"])
            self.parent[r["span_id"]] = node
            if node is not None:
                pid = node["span_id"]
                child_time[pid] = child_time.get(pid, 0.0) + r["duration_s"]
        self.child_time = child_time

    @staticmethod
    def duration(span: Record) -> float:
        return span["duration_s"]

    def self_time(self, span: Record) -> float:
        """Duration minus the time covered by child layer spans.

        Children of one span run on its thread one after another, so
        their durations do not overlap and their sum is the covered time.
        """
        return span["duration_s"] - self.child_time.get(span["span_id"], 0.0)

    def named(self, *names: str) -> List[Record]:
        wanted = set(names)
        return [s for s in self.spans if s["name"] in wanted]

    def parent_name(self, span: Record) -> Optional[str]:
        node = self.parent.get(span["span_id"])
        return None if node is None else node["name"]

    def has_ancestor(self, span: Record, names: Iterable[str]) -> bool:
        wanted = set(names)
        node = self.parent.get(span["span_id"])
        while node is not None:
            if node["name"] in wanted:
                return True
            node = self.parent.get(node["span_id"])
        return False
