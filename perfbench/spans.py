"""Span tracer that wraps the public functions of the ``weakmeas`` modules.

Nothing in ``weakmeas`` is edited: :meth:`Tracer.install` swaps each public
function for a timing wrapper under every name by which a ``weakmeas``
module or the package refers to it (``cli`` imports ``write_csv`` by name,
``protocols`` imports ``moment`` as ``moment`` and ``density`` as
``pointer_density``), and each public method of a class on the class itself.
:meth:`Tracer.uninstall` puts the originals back. Callables held in
dictionaries (``montecarlo.RUNNERS``) keep the originals, so their time
counts in the layer of the calling function.

Each module is a layer. A span is opened, and counted in the layer's
``calls``, only where a call enters a layer from another layer or from the
benchmark. A call inside the running layer passes straight through, so a
layer's self time does not depend on how it is split into functions, and
the counters in ``_HOOKS`` still see it. Spans live in flat arrays until
:meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "core", "pointer", "protocols", "collective", "lindblad", "montecarlo", "serialize")
ROOT = "op"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._layers: list[str] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._swaps: list[tuple[object, str, object, object]] = []
        self._plan_swaps()

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open_span(self, name_id: int, layer: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(idx)
        self._layers.append(layer)
        self.span_start.append(time.perf_counter())
        return idx

    def _close_span(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._open.pop()
        self._layers.pop()

    def op(self, fn):
        """Run one benchmark operation inside a root span."""
        idx = self._open_span(self._name_id(ROOT), ROOT)
        try:
            return fn()
        finally:
            self._close_span(idx)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, layer: str, qualname: str):
        name_id = self._name_id(f"{layer}.{qualname}")
        hook = _HOOKS.get(f"{layer}.{qualname}")
        tracer = self

        layers = self._layers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = bool(layers) and layers[-1] == layer
            if nested and hook is None:
                return fn(*args, **kwargs)
            after = None
            if hook is not None:
                args, kwargs, after = hook(tracer, nested, args, kwargs)
            if nested:
                result = fn(*args, **kwargs)
            else:
                tracer.calls[layer] += 1
                idx = tracer._open_span(name_id, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close_span(idx)
            if after is not None:
                after(result)
            return result

        return traced

    def _plan_swaps(self) -> None:
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        wrappers: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            wrapped = self._wrap(member, layer, f"{name}.{attr}")
                            self._swaps.append((obj, attr, member, wrapped))
        namespaces = [self.package, *modules.values()]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._swaps.append((ns, name, obj, entry[1]))

    def install(self) -> None:
        for owner, name, _, wrapped in self._swaps:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._swaps:
            setattr(owner, name, original)

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (and for the root) net of child spans."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        own = dur.copy()
        has_parent = parents >= 0
        np.subtract.at(own, parents[has_parent], dur[has_parent])
        layer_of = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        out = {}
        for layer in (*LAYERS, ROOT):
            out[layer] = float(own[layer_of[names] == layer].sum()) if names.size else 0.0
        return out

    def top_level_time(self, layer: str) -> float:
        """Inclusive seconds of the spans of ``layer`` not nested in ``layer``."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        if not names.size:
            return 0.0
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        layer_of = np.array([n.split(".", 1)[0] for n in self.names])
        mine = layer_of[names] == layer
        parent_mine = np.zeros_like(mine)
        parent_mine[parents >= 0] = mine[parents[parents >= 0]]
        return float(dur[mine & ~parent_mine].sum())

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# ---------------------------------------------------------------- counters
#
# A hook sees every call of its function, with ``nested`` true when the call
# came from the same layer, and returns (args, kwargs, after); ``after`` is
# None or is called with the result.


def _count_eigendecompose(tracer, nested, args, kwargs):
    tracer.counts["core.eigendecompose_calls"] += 1
    return args, kwargs, None


def _count_branches(tracer, nested, args, kwargs):
    def after(result):
        tracer.counts["protocols.joint_branches"] += len(result.branches)

    return args, kwargs, after


def _count_trials(tracer, nested, args, kwargs):
    if nested:
        return args, kwargs, None

    def after(result):
        stats = result[1]
        tracer.counts["montecarlo.trials"] += stats.n_total
        tracer.counts["montecarlo.postselected"] += stats.n_postselected

    return args, kwargs, after


def _count_csv_rows(tracer, nested, args, kwargs):
    path, header, rows, metadata = args

    def counted(rows):
        n = 0
        for n, row in enumerate(rows, 1):
            yield row
        tracer.counts["serialize.rows"] += n

    def after(result):
        tracer.counts["serialize.bytes"] += os.path.getsize(path)

    return (path, header, counted(rows), metadata), kwargs, after


def _count_json_rows(tracer, nested, args, kwargs):
    path, payload = args

    def after(result):
        tracer.counts["serialize.rows"] += len(payload.get("rows", ()))
        tracer.counts["serialize.bytes"] += os.path.getsize(path)

    return args, kwargs, after


_HOOKS = {
    "core.eigendecompose": _count_eigendecompose,
    "protocols.apply_von_neumann": _count_branches,
    "montecarlo.run_plan": _count_trials,
    "montecarlo.run_single": _count_trials,
    "montecarlo.run_kick": _count_trials,
    "montecarlo.run_sequential": _count_trials,
    "montecarlo.run_threshold": _count_trials,
    "serialize.write_csv": _count_csv_rows,
    "serialize.write_json": _count_json_rows,
}
