"""In-memory spans around gapnet's public functions and methods.

``install`` wraps, from outside the program, every public function and
method of the traced modules and rebinds each wrapped function in every
gapnet module that imported it by name, so a call is recorded whichever
module makes it. ``analyse`` turns the spans into per-layer metrics.

A span is (name, parent, start, end); self time is the span minus its
direct children. Layer roles come from shape and position: a Conv2D
(or conv2d kernel) reading 3 channels is stage ``s1``, the other is
``s2``; a Dense built by ``build_feature_head`` is ``proj``, a Dense with
one output is ``out`` and any other Dense is ``hidden``.

FLOP and byte counts are computed from the shapes of each call (float32,
every operand read once and every result written once), not measured.
"""

import importlib
import inspect
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

MODULES = ("data", "backbone", "kernels", "nn", "pipeline", "train", "tensor", "metrics", "cli")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
F32 = 4


def _conv2d_role(w):
    return "s1" if w.shape[2] == 3 else "s2"


def _conv2d_fwd_work(args, out):
    x, w, b = args[0], args[1], args[2]
    kh, kw, ci, co = w.shape
    flop = 2 * out.shape[0] * out.shape[1] * kh * kw * ci * co
    return flop, F32 * (x.size + w.size + b.size + out.size)


def _conv2d_bwd_work(args, out):
    x, w, g = args[0], args[1], args[2]
    kh, kw, ci, co = w.shape
    flop = 4 * g.shape[0] * g.shape[1] * kh * kw * ci * co  # dw and dx
    return flop, F32 * (x.size + w.size + g.size + sum(a.size for a in out))


def _conv1d_fwd_work(args, out):
    x, w, b = args[0], args[1], args[2]
    return 2 * out.size * w.shape[1], F32 * (x.size + w.size + b.size + out.size)


def _conv1d_bwd_work(args, out):
    x, w, g = args[0], args[1], args[2]
    return 4 * g.size * w.shape[1], F32 * (x.size + w.size + g.size + sum(a.size for a in out))


def _dense_fwd_work(args, out):
    din, dout = args[0].din, args[0].dout
    return 2 * din * dout, F32 * (din * dout + din + 2 * dout)


def _dense_bwd_work(args, out):
    # grad_w += outer(g, x) reads and writes W-sized grads; W.T @ g reads W
    din, dout = args[0].din, args[0].dout
    return 4 * din * dout + dout, F32 * (3 * din * dout + 2 * din + 3 * dout)


def _gap_fwd_work(args, out):
    x = args[1]
    return x.size, F32 * (x.size + out.size)


def _gap_bwd_work(args, out):
    return args[1].size, F32 * (args[1].size + out.size)


def _tensor_bytes(args, out):
    return 0, F32 * np.asarray(args[0]).size


def _result_bytes(args, out):
    return 0, F32 * out.size


# span name -> computed (flop, bytes) from the call's arguments and result
WORK = {
    "kernels.conv2d_forward": _conv2d_fwd_work,
    "kernels.conv2d_backward": _conv2d_bwd_work,
    "kernels.conv1d_forward": _conv1d_fwd_work,
    "kernels.conv1d_backward": _conv1d_bwd_work,
    "nn.Dense.forward": _dense_fwd_work,
    "nn.Dense.backward": _dense_bwd_work,
    "nn.GlobalAvgPool.forward": _gap_fwd_work,
    "nn.GlobalAvgPool.backward": _gap_bwd_work,
    "backbone.save_tensor": _tensor_bytes,
    "backbone.load_feature_map": _result_bytes,
}


class Tracer:
    """Spans in flat arrays; ``stack`` holds the index of each open span."""

    def __init__(self):
        self.ids = {}
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = {}  # span index -> (flop, bytes)
        self.stack = [-1]
        self.roles = weakref.WeakKeyDictionary()  # Dense layer -> "proj"
        self._restore = []

    def _id(self, name):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, nid, work, fn, args, kwargs):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.start[i] = t0
            self.end[i] = t1
        if work is not None:
            self.work[i] = work(args, out)
        return out

    # -------------------------------------------------------------- wrapping

    def _function(self, name, fn):
        tracer = self
        work = WORK.get(name)
        if name in ("kernels.conv2d_forward", "kernels.conv2d_backward"):
            ids = {role: self._id(f"{name}.{role}") for role in ("s1", "s2")}

            def wrapper(*args, **kwargs):
                return tracer._call(ids[_conv2d_role(args[1])], work, fn, args, kwargs)
        elif name == "pipeline.build_feature_head":
            nid = self._id(name)

            def wrapper(*args, **kwargs):
                head = tracer._call(nid, None, fn, args, kwargs)
                for layer in getattr(head, "layers", ()):
                    if type(layer).__name__ == "Dense":
                        tracer.roles[layer] = "proj"
                return head
        else:
            nid = self._id(name)

            def wrapper(*args, **kwargs):
                return tracer._call(nid, work, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _role(self, obj):
        cls = type(obj).__name__
        if cls == "Conv2D":
            return "s1" if obj.cin == 3 else "s2"
        if cls == "Dense":
            return self.roles.get(obj) or ("out" if obj.dout == 1 else "hidden")
        return None

    def _method(self, method, fn):
        tracer = self
        ids = {}

        def wrapper(obj, *args, **kwargs):
            key = (type(obj), tracer._role(obj))
            entry = ids.get(key)
            if entry is None:
                cls, role = key
                base = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}"
                full = f"{base}.{role}.{method}" if role else f"{base}.{method}"
                entry = ids[key] = (tracer._id(full), WORK.get(f"{base}.{method}"))
            return tracer._call(entry[0], entry[1], fn, (obj,) + args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"gapnet.{m}") for m in MODULES}
        wrappers = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            funcs = {}
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    if obj.__module__ == mod.__name__:
                        self._wrap_class(obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    funcs.setdefault(id(obj), []).append((attr, obj))
            for bindings in funcs.values():
                # kernels binds each backend function under its dispatch name
                # as well; the shortest name keeps metrics backend-independent
                attr, obj = min(bindings, key=lambda b: len(b[0]))
                wrappers[id(obj)] = self._function(f"{short}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "gapnet" and not modname.startswith("gapnet."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not attr.startswith("__"):
                    self._set(mod, attr, wrappers[id(obj)])

    def _wrap_class(self, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                span = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.{attr}"
                self._set(cls, attr, type(obj)(self._function(span, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._method(attr, obj))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# ------------------------------------------------------------------ analysis

class Spans:
    """Numpy views of a tracer's spans with the queries the metrics need."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.name = np.asarray(tracer.name, dtype=np.int64)
        parent = np.asarray(tracer.parent, dtype=np.int64)
        self.start = np.asarray(tracer.start)
        self.end = np.asarray(tracer.end)
        self.dur = self.end - self.start
        child = np.zeros_like(self.dur)
        has = parent >= 0
        np.add.at(child, parent[has], self.dur[has])
        self.self_time = self.dur - child
        self.work = tracer.work
        self._by_name = {}
        order = np.argsort(self.name, kind="stable")
        bounds = np.searchsorted(self.name[order], np.arange(len(self.names) + 1))
        for nid, nm in enumerate(self.names):
            self._by_name[nm] = order[bounds[nid]:bounds[nid + 1]]

    def idx(self, name, inside=None, outside=None):
        """Indices of spans called ``name``, optionally only those nested
        (in time, on the one traced thread) in / not in spans ``inside`` /
        ``outside``."""
        idx = self._by_name.get(name, np.empty(0, dtype=np.int64))
        if inside is not None:
            idx = idx[self.within(idx, inside)]
        if outside is not None:
            idx = idx[~self.within(idx, outside)]
        return idx

    def within(self, idx, outer):
        o = self.idx(outer)
        if not len(o) or not len(idx):
            return np.zeros(len(idx), dtype=bool)
        o = o[np.argsort(self.start[o])]
        pos = np.searchsorted(self.start[o], self.start[idx], side="right") - 1
        ok = pos >= 0
        pos = np.maximum(pos, 0)
        return ok & (self.start[idx] >= self.start[o][pos]) & (self.end[idx] <= self.end[o][pos])

    def count_in_windows(self, idx, windows):
        starts = np.sort(self.start[idx])
        return int(sum(np.searchsorted(starts, b, "right") - np.searchsorted(starts, a, "left")
                       for a, b in windows))

    def work_sum(self, idx):
        flop = sum(self.work.get(int(i), (0, 0))[0] for i in idx)
        nbytes = sum(self.work.get(int(i), (0, 0))[1] for i in idx)
        return flop, nbytes


def tail(values):
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, or (None, None) when there are fewer than 20."""
    n = len(values)
    for p in PERCENTILES:
        if n * (1 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return None, None


def span_table(sp):
    """Per span name: calls, median, tail percentile and median self time (s)."""
    out = {}
    for nm in sp.names:
        idx = sp.idx(nm)
        if not len(idx):
            continue
        p, v = tail(sp.dur[idx])
        out[nm] = {"calls": int(len(idx)), "median_s": float(np.median(sp.dur[idx])),
                   "tail_pct": p, "tail_s": v,
                   "self_median_s": float(np.median(sp.self_time[idx])),
                   "total_s": float(sp.dur[idx].sum())}
    return out


SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def _time_metric(sp, span, unit, self_time=False, **scope):
    idx = sp.idx(span, **scope)
    vals = (sp.self_time if self_time else sp.dur)[idx]
    if not len(vals):
        return {"value": 0.0, "unit": unit, "calls": 0}
    p, v = tail(vals)
    return {"value": float(np.median(vals)) * SCALE[unit], "unit": unit, "calls": int(len(vals)),
            "tail_pct": p, "tail": None if v is None else v * SCALE[unit]}


def _rate_mb(sp, span, **scope):
    idx = sp.idx(span, **scope)
    total = float(sp.dur[idx].sum())
    _, nbytes = sp.work_sum(idx)
    return {"value": nbytes / 1e6 / total if total > 0 else 0.0, "unit": "MB/s",
            "calls": int(len(idx))}


def _gflops(sp, span):
    idx = sp.idx(span)
    if not len(idx):
        return {"value": 0.0, "unit": "GFLOP/s", "calls": 0}
    flop, _ = sp.work_sum(idx)
    return {"value": flop / len(idx) / float(np.median(sp.dur[idx])) / 1e9,
            "unit": "GFLOP/s", "calls": int(len(idx)), "computed": True}


def analyse(tracer, passes, scored_images, overhead_pct):
    """Per-layer metrics of ``passes`` traced rounds.

    ``scored_images``: images scored by all traced eval commands.
    ``overhead_pct``: traced vs untraced wall time of the same commands.
    """
    sp = Spans(tracer)
    m = {}

    def t(key, span, unit, **kw):
        m[key] = _time_metric(sp, span, unit, **kw)

    for fn in ("load_pgm", "histogram_equalize", "resize_bilinear", "augment"):
        t(f"data.{fn}_us", f"data.{fn}", "us")
    # prepare writes the image tensors; extract and checkpoints write far
    # smaller ones, which would make one median mix two populations
    t("backbone.save_tensor_us", "backbone.save_tensor", "us", inside="cli.cmd_prepare")
    m["backbone.save_tensor_mb_per_s"] = _rate_mb(sp, "backbone.save_tensor",
                                                  inside="cli.cmd_prepare")
    t("backbone.load_feature_map_us", "backbone.load_feature_map", "us",
      outside="pipeline.load_checkpoint")
    m["backbone.load_feature_map_mb_per_s"] = _rate_mb(sp, "backbone.load_feature_map",
                                                       outside="pipeline.load_checkpoint")
    t("cli.build_dataset_s", "cli.build_dataset", "s")
    for kind in ("forward", "backward"):
        for role in ("s1", "s2"):
            t(f"kernels.conv2d_{kind}.{role}_us", f"kernels.conv2d_{kind}.{role}", "us")
            m[f"kernels.conv2d_{kind}.{role}_gflops"] = _gflops(sp, f"kernels.conv2d_{kind}.{role}")
            t(f"nn.Conv2D.{role}.{kind}_self_us", f"nn.Conv2D.{role}.{kind}", "us",
              self_time=True)
        t(f"nn.GlobalAvgPool.{kind}_us", f"nn.GlobalAvgPool.{kind}", "us")
        for role in ("proj", "hidden", "out"):
            t(f"nn.Dense.{role}.{kind}_us", f"nn.Dense.{role}.{kind}", "us")
        for layer in ("ReLU", "Dropout", "Sigmoid"):
            t(f"nn.{layer}.{kind}_us", f"nn.{layer}.{kind}", "us")
        t(f"nn.Conv1D.{kind}_self_us", f"nn.Conv1D.{kind}", "us", self_time=True)
        t(f"kernels.conv1d_{kind}_us", f"kernels.conv1d_{kind}", "us")
        t(f"pipeline.Model.{kind}_self_us", f"pipeline.Model.{kind}", "us", self_time=True)
    t("train.AdamState.step_us", "train.AdamState.step", "us")
    t("tensor.ensure_finite_us", "tensor.ensure_finite", "us")
    t("metrics.measure_inference_ms", "metrics.measure_inference", "ms")

    # an epoch runs from the lr lookup that opens it to the early-stop
    # update that closes it
    opens = sp.start[sp.idx("train.lr_on_plateau")]
    closes = sp.end[sp.idx("train.early_stop_update")]
    windows = list(zip(np.sort(opens), np.sort(closes)))
    epochs = len(windows)
    for key, span in (("nn.GlobalAvgPool.forward_calls_per_epoch", "nn.GlobalAvgPool.forward"),
                      ("pipeline.Model.forward_calls_per_epoch", "pipeline.Model.forward"),
                      ("train.bce_loss_calls_per_epoch", "train.bce_loss"),
                      ("tensor.ensure_finite_calls_per_epoch", "tensor.ensure_finite"),
                      ("train.AdamState.step_calls_per_epoch", "train.AdamState.step")):
        n = sp.count_in_windows(sp.idx(span), windows)
        m[key] = {"value": n / epochs if epochs else 0.0, "unit": "count", "epochs": epochs}
    loop = sp.idx("train.train_loop")
    m["train.train_loop.self_s_per_epoch"] = {
        "value": float(sp.self_time[loop].sum()) / epochs if epochs else 0.0, "unit": "s"}
    fwd = len(sp.idx("pipeline.Model.forward", inside="cli.cmd_eval"))
    m["pipeline.Model.forward_per_scored_image"] = {
        "value": fwd / scored_images if scored_images else 0.0, "unit": "count",
        "forward_calls": fwd, "scored_images": scored_images}

    families = {"conv2d": ("kernels.conv2d_forward.s1", "kernels.conv2d_forward.s2",
                           "kernels.conv2d_backward.s1", "kernels.conv2d_backward.s2"),
                "conv1d": ("kernels.conv1d_forward", "kernels.conv1d_backward"),
                "dense": tuple(f"nn.Dense.{r}.{k}" for r in ("proj", "hidden", "out")
                               for k in ("forward", "backward")),
                "gap": ("nn.GlobalAvgPool.forward", "nn.GlobalAvgPool.backward")}
    for fam, spans in families.items():
        flop = nbytes = 0
        for span in spans:
            f, b = sp.work_sum(sp.idx(span))
            flop += f
            nbytes += b
        m[f"computed.{fam}_gflop"] = {"value": flop / 1e9 / max(passes, 1), "unit": "GFLOP",
                                      "computed": True, "per": "traced round"}
        m[f"computed.{fam}_gb"] = {"value": nbytes / 1e9 / max(passes, 1), "unit": "GB",
                                   "computed": True, "per": "traced round"}
    m["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return m, span_table(sp)
