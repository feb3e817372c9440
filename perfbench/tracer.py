"""Span recorder for the traced benchmark run.

``Tracer.install`` replaces every public function of the traced
``gkls_rates`` modules with a wrapper that records one span per call:
name, thread, start, end, parent span and whether it raised.  Copies of
those functions bound by ``from ... import`` in other modules are replaced
as well (``lyapunov.qr``, ``lyapunov.hs_inner``, the ``atomic_write`` and
``fmt17`` imports), and so is ``scipy.linalg.expm`` as called from
``pauli`` and ``lyapunov``; those calls are recorded as ``matcore.expm``.

Spans stay in per-thread column buffers until ``write`` saves them.  The
thread pool of ``cli.cmd_sweep`` is swapped for one that hands the
submitting span to its workers, so worker spans have a parent and a
layer's self time is its span time minus the union of its children's
intervals, in whatever thread they ran.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("cli", "fileio", "generator", "ratelang", "matcore", "spectra", "witness",
          "lyapunov", "pauli")
_SCIPY_EXPM_CALLERS = ("pauli", "lyapunov")


def public_functions(module):
    """Functions a module exports: ``__all__`` if it has one, else non-underscore names."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        n: getattr(module, n)
        for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    }


class _Buffer:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "err", "stack", "inherited")

    def __init__(self):
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.err = array("b")
        self.stack = []
        self.inherited = -1


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []
        self._ids = itertools.count()
        self.names = []
        self._name_index = {}
        self.extra = {}  # span id -> value returned by the function's hook
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def current(self):
        buf = self._buffer()
        return buf.stack[-1] if buf.stack else buf.inherited

    def adopt(self, parent, fn, *args, **kwargs):
        """Run ``fn`` in this thread with ``parent`` as the span that caused it."""
        buf = self._buffer()
        saved, buf.inherited = buf.inherited, parent
        try:
            return fn(*args, **kwargs)
        finally:
            buf.inherited = saved

    def _index(self, name):
        with self._lock:
            if name not in self._name_index:
                self._name_index[name] = len(self.names)
                self.names.append(name)
            return self._name_index[name]

    def wrap(self, fn, name, hook=None):
        index = self._index(name)
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            parent = buf.stack[-1] if buf.stack else buf.inherited
            sid = next(ids)
            buf.stack.append(sid)
            failed = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                t1 = clock()
                buf.stack.pop()
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.name.append(index)
                buf.t0.append(t0)
                buf.t1.append(t1)
                buf.err.append(failed)
            if hook is not None:
                self.extra[sid] = hook(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package, hooks=None):
        """Wrap the public functions of ``package``'s traced layers."""
        hooks = hooks or {}
        modules = {
            name[len(package.__name__) + 1:]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(package.__name__ + ".") and mod is not None
        }
        replaced = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules[layer]
            for fname, fn in public_functions(mod).items():
                full = f"{layer}.{fname}"
                wrapper = self.wrap(fn, full, hooks.get(full))
                replaced[id(fn)] = wrapper
                self._set(mod, fname, wrapper)
        # names bound by "from .x import f" in any module of the package
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    self._set(mod, attr, replaced[id(value)])
        expm = self.wrap(modules["matcore"].scipy.linalg.expm, "matcore.expm",
                         hooks.get("matcore.expm"))
        for layer in _SCIPY_EXPM_CALLERS:
            self._set(modules[layer], "scipy", _scipy_with_expm(modules[layer].scipy, expm))
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

        self._set(modules["cli"], "ThreadPoolExecutor", TracedExecutor)
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def columns(self):
        """All spans as numpy columns, plus the thread index of each."""
        with self._lock:
            bufs = list(self._buffers)
        cols = {k: [] for k in ("sid", "parent", "name", "t0", "t1", "err", "thread")}
        for i, buf in enumerate(bufs):
            for k in ("sid", "parent", "name", "t0", "t1", "err"):
                cols[k].append(np.frombuffer(getattr(buf, k), dtype=getattr(buf, k).typecode))
            cols["thread"].append(np.full(len(buf.sid), i, dtype=np.int32))
        out = {k: (np.concatenate(v) if v else np.empty(0)) for k, v in cols.items()}
        order = np.argsort(out["sid"], kind="stable")
        return {k: v[order] for k, v in out.items()}

    def write(self, path):
        cols = self.columns()
        np.savez_compressed(path, names=np.array(self.names), **cols)


class _Overlay:
    """Attribute access that goes to ``target`` except for the given names."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _scipy_with_expm(scipy_module, expm):
    """Stand-in for a module's ``scipy`` name whose ``linalg.expm`` is traced."""
    return _Overlay(scipy_module, linalg=_Overlay(scipy_module.linalg, expm=expm))


def _parent_positions(cols):
    """Row of each span's parent in ``cols`` (rows are sorted by span id), or -1."""
    parent = cols["parent"]
    pos = np.searchsorted(cols["sid"], parent)
    return np.where(parent >= 0, pos, -1)


def self_times(cols):
    """Per-span self time: duration minus the union of child intervals.

    Children in the parent's own thread run one after another inside it, so
    their durations add up; children in other threads (the sweep pool) may
    overlap each other and are merged interval by interval.
    """
    t0, t1, thread = cols["t0"], cols["t1"], cols["thread"]
    n = len(t0)
    dur = t1 - t0
    ppos = _parent_positions(cols)
    kids = np.flatnonzero(ppos >= 0)
    parents = ppos[kids]
    lo = np.maximum(t0[kids], t0[parents])
    hi = np.minimum(t1[kids], t1[parents])
    clipped = np.maximum(hi - lo, 0.0)
    cross = thread[kids] != thread[parents]
    covered = np.bincount(parents[~cross], weights=clipped[~cross], minlength=n)
    for p in np.unique(parents[cross]):
        mine = parents == p
        total, cur_a, cur_b = 0.0, None, None
        for a, b in sorted(zip(lo[mine], hi[mine])):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    total += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            total += cur_b - cur_a
        covered[p] = total
    return dur - covered


def has_ancestor(cols, name_ids):
    """Boolean per span: some ancestor's name index is in ``name_ids``."""
    ppos = _parent_positions(cols)
    is_target = np.isin(cols["name"], list(name_ids))
    found = np.zeros(len(ppos), dtype=bool)
    cur = ppos.copy()
    live = cur >= 0
    while np.any(live):
        rows = np.flatnonzero(live)
        found[rows] |= is_target[cur[rows]]
        cur[rows] = ppos[cur[rows]]
        live = (cur >= 0) & ~found
    return found
