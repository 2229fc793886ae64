"""Opt-in tracing for the benchmark's traced run.

`Tracer.install()` wraps the public functions and methods of each layer (a
module of chevlab) from outside the program: every module attribute that
refers to one of them is replaced by a wrapper, and `uninstall()` puts the
originals back.

Each wrapped call is counted and timed on a stack, so that self time (a
call's duration minus the time of the wrapped calls it makes) is exact per
function.  A span record (id, parent id, name, start, end) is kept in memory
for every call that crosses into a layer from the benchmark or from another
layer; calls inside one layer only add to their function's statistics.  The
`gf` layer is counted and timed per function but records no spans, because
field arithmetic runs millions of times per round.  `write()` dumps the
spans as JSONL.
"""

from __future__ import annotations

import importlib
import inspect
import json
import resource
import sys
import time

LAYERS = ("gf", "linalg", "groups", "bfs", "growth", "classify", "varieties",
          "degrees", "escape", "torus_lab", "constants", "logscaled", "cli")
_PAGE_MB = resource.getpagesize() / 2 ** 20


def _rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _public_callables(mod):
    """(owner, attribute, function, qualified name, is_static) for each public
    function and method defined in the module; generators are skipped."""
    out = []
    for name, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            out.append((mod, name, obj, name, False))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    out.append((obj, attr, fn, "{}.{}".format(name, attr), static))
    return out


class Tracer:
    def __init__(self):
        self.names = []        # function index -> "layer.qualname"
        self.calls = []
        self.self_s = []
        self.incl_s = {}       # group name -> inclusive seconds, outermost calls
        self.spans = []        # (id, parent id, function index, start, end)
        self.next_id = 1
        self.stack = [[None, 0.0, None, 0]]  # [layer, child seconds, group, span id]
        self.in_gf = False
        self.extra = {"bfs.closure.elements": 0, "bfs.closure.products": 0,
                      "bfs.closure.kept": 0, "bfs.closure.repeat_calls": 0,
                      "bfs.closure.rss_growth_mb": 0.0,
                      "bfs.orbit_closure.elements": 0, "varieties.points": 0}
        self._closed = set()
        self._patches = []

    # --- operations ---

    def begin_operation(self):
        """Closures are 'repeat' calls when their generator list was already
        closed within the same operation."""
        self._closed = set()

    # --- hooks on selected functions ---

    def _closure_pre(self, args, kwargs):
        return _rss_mb(), _maxrss_mb()

    def _closure_post(self, state, args, kwargs, ball):
        rss0, max0 = state
        max1 = _maxrss_mb()
        peak = max1 if max1 > max0 else _rss_mb()
        ex = self.extra
        ex["bfs.closure.rss_growth_mb"] = max(ex["bfs.closure.rss_growth_mb"], peak - rss0)
        gens = args[2] if len(args) > 2 else kwargs["gens"]
        sizes = ball.sizes
        frontier = [1] + [b - a for a, b in zip([1] + sizes[:-1], sizes)]
        ex["bfs.closure.elements"] += len(ball)
        ex["bfs.closure.kept"] += len(ball) - 1
        ex["bfs.closure.products"] += len(gens) * sum(frontier[:len(sizes)])
        key = tuple(tuple(g) for g in gens)
        if key in self._closed:
            ex["bfs.closure.repeat_calls"] += 1
        self._closed.add(key)

    def _orbit_post(self, state, args, kwargs, orbit):
        self.extra["bfs.orbit_closure.elements"] += len(orbit)

    def _points_post(self, state, args, kwargs, report):
        self.extra["varieties.points"] += report["q"] ** report["ambient"]

    # --- wrapping ---

    def _wrap(self, layer, qualname, fn):
        fid = len(self.names)
        self.names.append("{}.{}".format(layer, qualname))
        self.calls.append(0)
        self.self_s.append(0.0)
        group = "growth.GenSet" if qualname.startswith("GenSet.") else self.names[fid]
        self.incl_s.setdefault(group, 0.0)
        calls, self_s, incl_s, spans = self.calls, self.self_s, self.incl_s, self.spans
        perf = time.perf_counter
        tracer = self

        if layer == "gf":
            def wrapper(*args, **kwargs):
                calls[fid] += 1
                if tracer.in_gf:
                    return fn(*args, **kwargs)
                tracer.in_gf = True
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    tracer.in_gf = False
                    self_s[fid] += dur
                    incl_s[group] += dur
                    tracer.stack[-1][1] += dur
            return wrapper

        hooks = {"bfs.closure": (self._closure_pre, self._closure_post),
                 "bfs.orbit_closure": (None, self._orbit_post),
                 "varieties.point_count": (None, self._points_post)}
        pre, post = hooks.get(self.names[fid], (None, None))

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            state = pre(args, kwargs) if pre else None
            stack = tracer.stack
            parent = stack[-1]
            if parent[0] != layer:
                sid = tracer.next_id
                tracer.next_id += 1
            else:
                sid = 0
            frame = [layer, 0.0, group, sid or parent[3]]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self_s[fid] += dur - frame[1]
                parent[1] += dur
                if parent[2] != group:
                    incl_s[group] += dur
                if sid:
                    spans.append((sid, parent[3], fid, t0, t1))
            if post:
                post(state, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module("chevlab." + layer)
            for owner, attr, fn, qualname, static in _public_callables(mod):
                wrapped = self._wrap(layer, qualname, fn)
                originals[fn] = wrapped
                self._patches.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        # names imported into other modules (from .gf import factor_prime_power)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("chevlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, originals[obj])

    def uninstall(self):
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches = []

    # --- results ---

    def _by_name(self, name):
        i = self.names.index(name)
        return self.calls[i], self.self_s[i]

    def _layer_self(self, layer):
        return sum(s for n, s in zip(self.names, self.self_s)
                   if n.split(".")[0] == layer)

    def metrics(self, rounds, overhead_s):
        """Per-layer metrics per traced round (counts repeat exactly)."""
        c = lambda name: self._by_name(name)[0] / rounds
        s = lambda name: self._by_name(name)[1] / rounds
        ex = {k: v / rounds for k, v in self.extra.items()}
        closure_self = s("bfs.closure")
        point_incl = self.incl_s["varieties.point_count"] / rounds
        products = ex["bfs.closure.products"]
        out = {
            "bfs.closure.self_s": (closure_self, "s"),
            "bfs.closure.elements_per_s": (
                ex["bfs.closure.elements"] / closure_self if closure_self else 0.0, "1/s"),
            "bfs.closure.rss_growth_mb": (self.extra["bfs.closure.rss_growth_mb"], "MB"),
            "bfs.closure.calls": (c("bfs.closure"), "count"),
            "bfs.closure.repeat_calls": (ex["bfs.closure.repeat_calls"], "count"),
            "bfs.closure.elements": (ex["bfs.closure.elements"], "count"),
            "bfs.closure.products": (products, "count"),
            "bfs.closure.kept_per_product": (
                ex["bfs.closure.kept"] / products if products else 0.0, "ratio"),
            "bfs.orbit_closure.self_s": (s("bfs.orbit_closure"), "s"),
            "bfs.orbit_closure.elements": (ex["bfs.orbit_closure.elements"], "count"),
            "growth.self_s": (self._layer_self("growth") / rounds, "s"),
            "growth.genset.s": (self.incl_s["growth.GenSet"] / rounds, "s"),
            "groups.random_group_element.calls": (c("groups.random_group_element"), "count"),
            "groups.random_group_element.self_s": (s("groups.random_group_element"), "s"),
            "groups.is_member.self_s": (s("groups.is_member"), "s"),
            "linalg.mat_mul.calls": (c("linalg.mat_mul"), "count"),
            "linalg.inv.calls": (c("linalg.inv"), "count"),
            "linalg.det.calls": (c("linalg.det"), "count"),
            "linalg.self_s": (self._layer_self("linalg") / rounds, "s"),
            "gf.mul.calls": (c("gf.FieldSpec.mul"), "count"),
            "gf.self_s": (self._layer_self("gf") / rounds, "s"),
            "classify.char_poly.calls": (c("classify.char_poly"), "count"),
            "classify.char_poly.self_s": (s("classify.char_poly"), "s"),
            "classify.centralizer.self_s": (s("classify.centralizer"), "s"),
            "varieties.point_count.self_s": (s("varieties.point_count"), "s"),
            "varieties.points_per_s": (
                ex["varieties.points"] / point_incl if point_incl else 0.0, "1/s"),
            "escape.escape_point.self_s": (s("escape.escape_point"), "s"),
            "escape.shitov_escape.self_s": (s("escape.shitov_escape"), "s"),
            "torus_lab.rank_certificate.self_s": (s("torus_lab.rank_certificate"), "s"),
            "constants.proof_inequality_suite.self_s": (
                s("constants.proof_inequality_suite"), "s"),
            "constants.appendix_constants.self_s": (s("constants.appendix_constants"), "s"),
            "logscaled.power.calls": (c("logscaled.LogScaled.power"), "count"),
            "logscaled.self_s": (self._layer_self("logscaled") / rounds, "s"),
            "degrees.self_s": (self._layer_self("degrees") / rounds, "s"),
            "cli.run.calls": (c("cli.run"), "count"),
            "cli.run.self_s": (s("cli.run"), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return {k: {"value": int(v) if u == "count" and float(v).is_integer() else v,
                    "unit": u} for k, (v, u) in out.items()}

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, fid, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": self.names[fid],
                                     "start": t0, "end": t1}) + "\n")
            fh.write(json.dumps({"functions": {
                n: {"calls": c, "self_s": s}
                for n, c, s in zip(self.names, self.calls, self.self_s) if c}}) + "\n")
