"""Span recorder that wraps the public functions of goi's layers from outside.

``Tracer.install`` replaces every binding of every public function defined
in a layer module, wherever a caller can resolve it (the defining module,
modules that imported the name, the package re-exports), plus the
constructors of ``DialectalOperator`` and ``PartialInjectionOp``.
``Tracer.uninstall`` puts every original object back, so untraced runs
measure unwrapped code.

Spans are kept in memory as parallel arrays (name, start, end, parent,
item, failed) and written once, by ``Tracer.save``.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# Layer name -> defining modules.  A function belongs to the layer of the
# module it is defined in.
LAYERS = {
    "logic": (
        "goi.logic.syntax",
        "goi.logic.goi1",
        "goi.logic.locations",
        "goi.logic.matricial",
        "goi.logic.rewrite",
        "goi.logic.corpus",
    ),
    "projects": ("goi.projects",),
    "measurement": ("goi.measurement",),
    "execution": ("goi.execution",),
    "groupoid": ("goi.groupoid",),
    "linalg": ("goi.linalg",),
    "verify": ("goi.verify",),
}

# (module, class, method, span name)
CONSTRUCTORS = (
    ("goi.measurement", "DialectalOperator", "__post_init__", "measurement.DialectalOperator.__init__"),
    ("goi.groupoid", "PartialInjectionOp", "__init__", "groupoid.PartialInjectionOp.__init__"),
)

# Per-function self time reported besides the per-layer totals.
SELF_TIME_SPANS = (
    "linalg.operator_norm",
    "linalg.spectral_radius",
    "measurement.ldet",
    "measurement.meas_mat",
    "execution.feedback_dense",
    "execution.plug_dialectal",
    "groupoid.compose",
    "groupoid.restrict_outside",
    "groupoid.nilpotency",
    "execution.ex_goi1",
    "projects.orthogonal_witness_suite",
    "projects.is_promising",
    "logic.sequent_dual_witnesses",
    "logic.parse_proof",
    "logic.default_basis",
)
CALL_COUNT_SPANS = ("linalg.operator_norm", "groupoid.compose", "logic.sequent_of")
# Constructors report their inclusive time: nested spans (operator_norm
# inside DialectalOperator validation, say) are part of the construction.
INIT_SPANS = {
    "groupoid.PartialInjectionOp.init_s": "groupoid.PartialInjectionOp.__init__",
    "measurement.DialectalOperator.init_s": "measurement.DialectalOperator.__init__",
}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_functions() -> dict:
    """Public functions of every layer module: function object -> span name."""
    targets = {}
    for layer, modules in LAYERS.items():
        for modname in modules:
            mod = sys.modules[modname]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                targets[obj] = f"{layer}.{name}"
    return targets


def goi_namespaces() -> list:
    """Every loaded goi module: the places a caller can resolve a name from."""
    return [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "goi" or n.startswith("goi."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_item = array("i")
        self.span_failed = array("b")
        self.item = -1  # id of the item being run, set by the harness
        self._stack: list[int] = []
        self._patches = Patches()
        self.compose_pairs = 0
        self.compose_links = 0
        self.dialectal_max_dim = 0

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.span_failed.append(0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.span_failed[sid] = 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.span_start[sid] = t0
                tracer.span_end[sid] = t1

        return traced

    def _wrap_compose(self, fn, name: str):
        inner = self._wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def counted(u, v):
            tracer.compose_pairs += len(u.cyls) * len(v.cyls)
            out = inner(u, v)
            tracer.compose_links += len(out.cyls)
            return out

        return counted

    def _wrap_dialectal_init(self, fn, name: str):
        inner = self._wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def sized(obj):
            inner(obj)
            tracer.dialectal_max_dim = max(tracer.dialectal_max_dim, len(obj.carrier) * obj.dialect.dim)

        return sized

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        targets = layer_functions()
        wrapped = {}
        for fn, name in targets.items():
            make = self._wrap_compose if name == "groupoid.compose" else self._wrap
            wrapped[fn] = make(fn, name)
        for mod in goi_namespaces():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.set(mod, attr, wrapped[value])
        for modname, clsname, method, name in CONSTRUCTORS:
            cls = getattr(sys.modules[modname], clsname)
            fn = cls.__dict__[method]
            make = self._wrap_dialectal_init if clsname == "DialectalOperator" else self._wrap
            self._patches.set(cls, method, make(fn, name))

    def uninstall(self) -> None:
        self._patches.restore()

    # -- reporting -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.span_start)

    def _arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
            np.frombuffer(self.span_parent, dtype=np.int64),
            np.frombuffer(self.span_failed, dtype=np.int8),
        )

    def metrics(self) -> dict:
        """Per-layer calls, self seconds and failures, plus the named span metrics: name -> (value, unit)."""
        name, start, end, parent, failed = self._arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_by = np.bincount(name, weights=self_s, minlength=k)
        failed_by = np.bincount(name, weights=failed, minlength=k)
        layer_of = [n.split(".", 1)[0] for n in self.names]
        out: dict[str, tuple] = {}
        for layer in LAYERS:
            idx = [i for i, lay in enumerate(layer_of) if lay == layer]
            out[f"{layer}.calls"] = (int(calls[idx].sum()), "count")
            out[f"{layer}.self_s"] = (float(self_by[idx].sum()), "s")
            out[f"{layer}.failed"] = (int(failed_by[idx].sum()), "count")
        ids = self._name_ids
        for span in CALL_COUNT_SPANS:
            out[f"{span}.calls"] = (int(calls[ids[span]]) if span in ids else 0, "count")
        for span in SELF_TIME_SPANS:
            out[f"{span}.self_s"] = (float(self_by[ids[span]]) if span in ids else 0.0, "s")
        for metric, span in INIT_SPANS.items():
            out[metric] = (float(dur[name == ids[span]].sum()) if span in ids else 0.0, "s")
        pair_yield = self.compose_links / self.compose_pairs if self.compose_pairs else 0.0
        out["groupoid.compose.pair_yield"] = (pair_yield, "ratio")
        out["measurement.DialectalOperator.max_dim"] = (self.dialectal_max_dim, "dim")
        return out

    def save(self, path) -> None:
        name, start, end, parent, failed = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            item=np.frombuffer(self.span_item, dtype=np.int32),
            failed=failed,
        )
