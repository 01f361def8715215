"""Per-layer tracing from outside the package, by rebinding module attributes.

``install`` wraps every public function of each layer module (except the
``UNWRAPPED`` helpers), and the
``__init__``/``__mul__`` methods of ``LaurentOp`` and ``PpuElement``.
It rebinds each wrapped function wherever the package holds it: in its
own module, in the modules that imported it by name (``ppu.kernel``,
``cli.meet``, ...), in the package namespace, and as a value of a
module-level dict (``axioms._ALGEBRA_CHECKS``).  ``undo`` restores the
originals.

A wrapper records a span (name, parent, start, end, status) in flat
in-memory arrays while a root span is open, and passes straight through
otherwise, so oracle work outside the timed region records nothing.  A
span's self time is its duration minus the part of it that its child
spans cover.  An exception is counted as ``raised`` once, at the
innermost wrapped call it left.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("numfield", "star_algebra", "laurent", "ppu", "axioms", "jsonio", "cli")
METHODS = (
    ("LaurentOp", "__init__", "init"),
    ("LaurentOp", "__mul__", "mul"),
    ("PpuElement", "__init__", "init"),
    ("PpuElement", "__mul__", "mul"),
)

# Scalar and coercion helpers called hundreds of thousands of times per run,
# microseconds each: a span would cost more than the call.  Their time
# counts as self time of their callers.
UNWRAPPED = ("numfield.frob", "numfield.as_matrix", "numfield.tolerances")

OK, RAISED, RAISED_HERE = 0, 1, 2
MB = 2**20  # as ru_maxrss / 1024 for peak_rss_mb
_SEEN = "_bench_trace_seen"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.status = array("b")
        self._stack: list[int] = []
        self.kernel_max_rows = 0
        self.kernel_input_bytes = 0
        self.commutant_peak_bytes = 0
        self.exit_codes: dict[int, int] = defaultdict(int)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.status.append(OK)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, status: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.status[idx] = status
        self._stack.pop()

    def _span(self, nid: int, fn, args, kwargs):
        idx = self._open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            first = not getattr(exc, _SEEN, False)
            setattr(exc, _SEEN, True)
            self._close(idx, RAISED_HERE if first else RAISED)
            raise
        self._close(idx, OK)
        return result

    def wrap(self, name: str, fn):
        """A span around ``fn`` while a root span is open."""
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            return self._span(nid, fn, args, kwargs)

        return wrapper

    def root(self, name: str, fn):
        """A top-level span (one per operation) that switches tracing on."""
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(nid, fn, args, kwargs)

        return wrapper

    # ---- probes: extra counts taken inside one layer's span ----

    def probe_kernel(self, fn):
        @functools.wraps(fn)
        def probe(m, *args, **kwargs):
            shape = np.shape(m)
            if len(shape) == 2:
                self.kernel_max_rows = max(self.kernel_max_rows, int(shape[0]))
                # computed from the shape, as complex128 after coercion
                self.kernel_input_bytes += 16 * int(shape[0]) * int(shape[1])
            return fn(m, *args, **kwargs)
        return probe

    def probe_commutant(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.commutant_peak_bytes = max(self.commutant_peak_bytes, peak)
        return probe

    def probe_main(self, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            code = fn(*args, **kwargs)
            self.exit_codes[int(code)] += 1
            return code
        return probe

    # ---- results ----

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, ok and raised counts."""
        own = self_times(self.parent, self.start, self.end)
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "self_s": 0.0, "ok": 0, "raised": 0} for n in self.names
        }
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += own[i] * 1e-9
            row["ok"] += self.status[i] == OK
            row["raised"] += self.status[i] == RAISED_HERE
        return out

    def certify_per_call(self) -> float:
        """certify_member calls made directly by random_projection_in, per call."""
        rp = self._ids.get("star_algebra.random_projection_in")
        cm = self._ids.get("star_algebra.certify_member")
        calls = sum(1 for nid in self.name if nid == rp)
        if not calls:
            return 0.0
        direct = sum(
            1 for i, nid in enumerate(self.name)
            if nid == cm and self.parent[i] >= 0 and self.name[self.parent[i]] == rp
        )
        return direct / calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "status": self.status.tolist(),
            }, fh, separators=(",", ":"))


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    own = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, reach = 0, lo
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        own[p] -= covered
    return own


def _package_namespaces():
    import paraunitary

    return [paraunitary] + [
        m for name, m in sorted(sys.modules.items())
        if name.startswith("paraunitary.") and m is not None
    ]


def install(tracer: Tracer):
    """Wrap the layers' public functions and methods; return ``undo``."""
    mods = {layer: importlib.import_module(f"paraunitary.{layer}") for layer in LAYERS}
    probes = {
        "numfield.kernel": tracer.probe_kernel,
        "star_algebra.commutant": tracer.probe_commutant,
        "cli.main": tracer.probe_main,
    }
    wrapped = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in UNWRAPPED:
                continue
            wrapped[obj] = tracer.wrap(name, probes.get(name, lambda f: f)(obj))

    undo: list = []
    for ns in _package_namespaces():
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(ns, attr, wrapped[obj])
                undo.append((setattr, ns, attr, obj))
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in wrapped:
                        obj[key] = wrapped[val]
                        undo.append((dict.__setitem__, obj, key, val))
    for cls_name, meth, short in METHODS:
        cls = getattr(mods["laurent"], cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(f"laurent.{cls_name}.{short}", original))
        undo.append((setattr, cls, meth, original))

    def restore() -> None:
        for setter, target, key, original in reversed(undo):
            setter(target, key, original)

    return restore


def _stat(agg, name: str, key: str) -> float:
    return agg.get(name, {}).get(key, 0)


def _ok_ratio(agg, name: str) -> float:
    # with no calls nothing was wasted
    calls = _stat(agg, name, "calls")
    return _stat(agg, name, "ok") / calls if calls else 1.0


CHECKS = (
    "axioms.check_commutative_model", "axioms.check_gamma_oml", "axioms.check_gvm",
    "axioms.check_normality", "axioms.check_order_unit", "axioms.check_singularity",
    # the orthomodular check lives with the lattice it tests
    "star_algebra.check_orthomodular",
)


def _calls_self(name: str):
    return [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]


# (metric, unit, better); values come from ``layer_metrics``.
PER_LAYER = [
    *_calls_self("numfield.kernel"),
    ("numfield.kernel.max_rows", "rows", "lower"),
    ("numfield.kernel.input_mb", "MB-computed", "lower"),
    *_calls_self("numfield.orthonormal_basis"),
    ("numfield.meet_subspace.self_s", "s", "lower"),
    ("numfield.join_subspace.self_s", "s", "lower"),
    *_calls_self("star_algebra.generate_algebra"),
    *_calls_self("star_algebra.commutant"),
    ("star_algebra.commutant.peak_mb", "MB", "lower"),
    *_calls_self("star_algebra.certify_member"),
    *_calls_self("star_algebra.random_projection_in"),
    ("star_algebra.random_projection_in.certify_per_call", "count/call", "lower"),
    ("laurent.LaurentOp.init.calls", "count", "lower"),
    *_calls_self("laurent.LaurentOp.mul"),
    *_calls_self("laurent.paraunitarity_residual"),
    *_calls_self("laurent.PpuElement.init"),
    *_calls_self("ppu.omega_window"),
    *_calls_self("ppu.reconstruct"),
    ("ppu.meet.ok_ratio", "ratio", "higher"),
    ("ppu.join.ok_ratio", "ratio", "higher"),
    *_calls_self("ppu.factor_positive"),
    ("ppu.factor_positive.ok_ratio", "ratio", "higher"),
    *_calls_self("ppu.leq"),
    *[(f"{c}.self_s", "s", "lower") for c in CHECKS],
    ("jsonio.algebra_from_json.self_s", "s", "lower"),
    ("jsonio.laurent_from_json.self_s", "s", "lower"),
    ("jsonio.canonical_dumps.self_s", "s", "lower"),
    *_calls_self("cli.main"),
    ("cli.main.exit_1", "count", "lower"),
    ("cli.main.exit_2", "count", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    *[(f"{layer}.raised", "count", "lower") for layer in LAYERS],
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Values of every PER_LAYER metric from the recorded spans."""
    agg = tracer.aggregate()
    values: dict[str, float] = {}
    for metric, _unit, _better in PER_LAYER:
        head, _, stat = metric.rpartition(".")
        if head in LAYERS:
            rows = [v for n, v in agg.items() if n.split(".", 1)[0] == head]
            values[metric] = sum(r[stat] for r in rows)
        elif stat in ("calls", "self_s"):
            values[metric] = _stat(agg, head, stat)
        elif stat == "ok_ratio":
            values[metric] = _ok_ratio(agg, head)
        elif stat.startswith("exit_"):
            values[metric] = tracer.exit_codes.get(int(stat[5:]), 0)
    values["numfield.kernel.max_rows"] = tracer.kernel_max_rows
    values["numfield.kernel.input_mb"] = tracer.kernel_input_bytes / MB
    values["star_algebra.commutant.peak_mb"] = tracer.commutant_peak_bytes / MB
    values["star_algebra.random_projection_in.certify_per_call"] = tracer.certify_per_call()
    return values
