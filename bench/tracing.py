"""Per-module tracing of prunekit from outside the package.

``Tracer.install`` rebinds the prunekit functions that its metrics
name (listed in bench/README.md) to timing wrappers through
``Patches``: every name in a loaded ``prunekit*`` module that refers to
a wrapped function is replaced, so ``from .arch import
evaluate_accuracy`` bindings are covered too. Time spent in functions
that are not wrapped counts in the self time of the wrapped caller. ``Model.forward``,
``Tape.backward`` and ``Tape.record`` are wrapped on their classes; the
``Tape.record`` wrapper times each op's backward closure under the op
that recorded it. ``Patches.restore`` puts every original back.

Spans aggregate in memory: total and self time (a span minus the
traced spans directly inside it) per span name, plus counters.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

OPS = ("conv2d_kxk", "conv2d_1x1", "conv2d_dw", "batchnorm", "gate_modulate",
       "relu", "avg_pool2d", "global_avg_pool", "linear", "add",
       "cross_entropy")

# spans whose train-mode samples and optimizer steps are counted
_LOOPS = ("gates.learn", "train.fit")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _conv_kind(args, kwargs) -> str:
    x, w = args[0], args[1]
    cout, _, kh, kw = w.shape
    groups = _arg(args, kwargs, 4, "groups", 1)
    if groups > 1 and groups == cout == x.shape[1]:
        return "conv2d_dw"
    return "conv2d_1x1" if kh == kw == 1 else "conv2d_kxk"


class Patches:
    """Reversible rebinding of prunekit functions and methods."""

    def __init__(self):
        self._undo: list[tuple] = []

    def rebind(self, fn, wrapper) -> None:
        """Point every prunekit module-level name bound to ``fn`` at
        ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "prunekit" and not modname.startswith("prunekit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, fn))

    def method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self._stack: list[list] = []   # [name, t0, child_s, cpu0]
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.cpu: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        for table in (self.total, self.own, self.cpu, self.count):
            table.clear()

    # -- spans ----------------------------------------------------------

    def _enter(self, name: str, cpu: bool = False) -> list:
        frame = [name, time.perf_counter(), 0.0,
                 time.process_time() if cpu else None]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        dur = time.perf_counter() - frame[1]
        self._stack.pop()
        name = frame[0]
        self.total[name] += dur
        self.own[name] += dur - frame[2]
        self.count[name + ".calls"] += 1
        if frame[3] is not None:
            self.cpu[name] += time.process_time() - frame[3]
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def _innermost(self, names) -> str | None:
        for frame in reversed(self._stack):
            if frame[0] in names:
                return frame[0]
        return None

    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def span(self, fn, name, cpu=False, after=None, before=None):
        """Wrapper timing ``fn`` as ``name`` (a string, or a function of
        the call's arguments); ``before(args, kwargs)`` runs inside the
        span first, ``after(args, kwargs, result, parent, seconds)`` after
        it, with the enclosing span's name and this span's duration."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            parent = self._parent()
            frame = self._enter(label, cpu)
            try:
                if before is not None:
                    before(args, kwargs)
                out = fn(*args, **kwargs)
            finally:
                dur = self._exit(frame)
            if after is not None:
                after(args, kwargs, out, parent, dur)
            return out
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, patches: Patches) -> None:
        from prunekit import analysis, arch, cli, data, gates, search
        from prunekit import tensor, train
        count = self.count
        rebind = patches.rebind

        for op in OPS[3:]:
            rebind(getattr(tensor, op), self.span(
                getattr(tensor, op), f"tensor.{op}.fwd"))

        def conv_macs(args, kwargs, out, *_):
            if _conv_kind(args, kwargs) == "conv2d_kxk":
                n, cout, ho, wo = out.shape
                _, cin_g, kh, kw = args[1].shape
                count["tensor.conv2d_kxk.macs"] += n * cout * ho * wo \
                    * cin_g * kh * kw
        rebind(tensor.conv2d, self.span(
            tensor.conv2d, lambda a, k: f"tensor.{_conv_kind(a, k)}.fwd",
            after=conv_macs))

        record = tensor.Tape.record

        def traced_record(tape, op, inputs, output, backward):
            # called from inside the op's forward span
            top = self._parent() or ""
            label = (top[:-len("fwd")] + "bwd" if top.endswith(".fwd")
                     else f"tensor.{op}.bwd")

            def timed(gout, needs):
                frame = self._enter(label)
                try:
                    return backward(gout, needs)
                finally:
                    self._exit(frame)
            return record(tape, op, inputs, output, timed)
        patches.method(tensor.Tape, "record", traced_record)

        def step(args, kwargs):
            loop = self._innermost(_LOOPS)
            if loop:
                count[loop + ".steps"] += 1
        patches.method(tensor.Tape, "backward", self.span(
            tensor.Tape.backward, "tensor.backward", before=step))

        def train_samples(args, kwargs):
            loop = self._innermost(_LOOPS)
            if loop and _arg(args, kwargs, 2, "train", False):
                count[loop + ".samples"] += args[1].shape[0]
        patches.method(arch.Model, "forward", self.span(
            arch.Model.forward, "arch.forward", before=train_samples))

        def evaluated(args, kwargs, out, *_):
            count["arch.evaluate.samples"] += args[1].shape[0]
        rebind(arch.evaluate_accuracy, self.span(
            arch.evaluate_accuracy, "arch.evaluate", after=evaluated))

        def snapshots(args, kwargs, out, *_):
            r = _arg(args, kwargs, 3, "cfg").target_sparsity
            count["gates.snapshots"] += len(out)
            count["gates.qualified_snapshots"] += sum(
                s.sparsity <= r for s in out)
        rebind(gates.learn_channel_importance, self.span(
            gates.learn_channel_importance, "gates.learn", cpu=True,
            after=snapshots))

        def searched(args, kwargs, out, *_):
            count["search.iterations"] += out.iterations
            count["search.converged"] += out.converged
        rebind(search.search_structure, self.span(
            search.search_structure, "search", after=searched))

        def baseline(args, kwargs, out, parent, dur):
            if parent == "analysis.study":
                count["analysis.baseline.s"] += dur
        rebind(train.fit, self.span(train.fit, "train.fit", cpu=True,
                                    after=baseline))
        rebind(train.train_from_scratch, self.span(
            train.train_from_scratch, "train.from_scratch"))

        def units(args, kwargs, out, *_):
            count["analysis.units"] += len(out.features)
        rebind(analysis.run_pretrain_effect_study, self.span(
            analysis.run_pretrain_effect_study, "analysis.study",
            after=units))
        rebind(analysis.emit_report, self.span(
            analysis.emit_report, "analysis.report"))

        rebind(data.synth_suite, self.span(data.synth_suite, "data.synth"))

        def written(args, kwargs, out, *_):
            count["data.bytes_written"] += os.path.getsize(args[0])
        rebind(data.write_container, self.span(
            data.write_container, "data.save", after=written))

        rebind(cli.main, self.span(cli.main, "cli.main"))

    # -- report ---------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-module figures for the spans recorded since ``reset``."""
        t, own, cpu, c = self.total, self.own, self.cpu, self.count

        def rate(n, s):
            return n / s if s else 0.0

        m: dict[str, tuple[float, str]] = {}
        for op in OPS:
            m[f"tensor.{op}.fwd_s"] = (t[f"tensor.{op}.fwd"], "s")
            m[f"tensor.{op}.bwd_s"] = (t[f"tensor.{op}.bwd"], "s")
            m[f"tensor.{op}.calls"] = (c[f"tensor.{op}.fwd.calls"], "count")
        m["tensor.conv2d_kxk.gmac_per_s"] = (
            rate(c["tensor.conv2d_kxk.macs"] / 1e9,
                 t["tensor.conv2d_kxk.fwd"]), "GMAC/s")
        m["tensor.backward.self_s"] = (own["tensor.backward"], "s")
        m["arch.forward.self_s"] = (own["arch.forward"], "s")
        m["arch.evaluate.s"] = (t["arch.evaluate"], "s")
        m["arch.evaluate.calls"] = (c["arch.evaluate.calls"], "count")
        m["arch.evaluate.samples_per_s"] = (
            rate(c["arch.evaluate.samples"], t["arch.evaluate"]), "1/s")
        for loop in _LOOPS:
            m[f"{loop}.s"] = (t[loop], "s")
            m[f"{loop}.cpu_s"] = (cpu[loop], "s")
            m[f"{loop}.steps"] = (c[f"{loop}.steps"], "count")
            m[f"{loop}.self_s"] = (own[loop], "s")
        m["gates.snapshots"] = (c["gates.snapshots"], "count")
        m["gates.qualified_snapshots"] = (c["gates.qualified_snapshots"],
                                          "count")
        m["train.fit.samples_per_s"] = (
            rate(c["train.fit.samples"], t["train.fit"]), "1/s")
        m["search.s"] = (t["search"], "s")
        m["search.searches"] = (c["search.calls"], "count")
        m["search.iterations"] = (c["search.iterations"], "count")
        m["search.converged"] = (c["search.converged"], "count")
        m["analysis.study.s"] = (t["analysis.study"], "s")
        m["analysis.baseline.s"] = (c["analysis.baseline.s"], "s")
        m["analysis.units"] = (c["analysis.units"], "count")
        m["analysis.report.s"] = (t["analysis.report"], "s")
        m["data.synth.s"] = (t["data.synth"], "s")
        m["data.save.s"] = (t["data.save"], "s")
        m["data.bytes_written"] = (c["data.bytes_written"], "B")
        m["cli.main.s"] = (t["cli.main"], "s")
        m["cli.self_s"] = (own["cli.main"], "s")
        m["traced.run_s"] = (wall_s, "s")
        return m
