"""Per-layer spans for the traced run, recorded entirely from outside the
package: nothing under ``src/`` knows it is being traced.

`daanet.models` and `daanet.training` bind layer and loss functions into
their own namespaces at import, so each name is patched in the module
that looks it up at call time. `autodiff.Tape.record` is patched so that
every pullback closure is timed and charged to the layer whose span was
innermost when the node was recorded: a layer's ``bwd`` time is the sum
of its pullbacks, its ``fwd`` time is its span's self time. The backward
sweep's own time is what `backward` spends outside the pullbacks, less
the calibrated cost of the timing wrapper around each pullback.

Spans are kept in memory as tuples and written out once, at the end.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np

from daanet import autodiff, data, models, training

VALIDATE = "training.validate"
# Calls per calibration round, and rounds whose median is taken.
CALIBRATION_CALLS = 2000
CALIBRATION_ROUNDS = 9

# (owner, attribute, span name); span names are the layer-metric prefixes.
PATCHES = (
    (models, "embed", "layers.embed"),
    (models, "bilstm", "layers.bilstm"),
    (models, "attention_head", "layers.attention_head"),
    (models, "dense", "layers.dense"),
    (models, "dropout", "layers.dropout"),
    (models, "bce_loss", "models.loss"),
    (models, "domain_cce_loss", "models.loss"),
    (models, "mt_daan_loss", "models.loss"),
    (models, "build_model", "models.build_model"),
    (models, "load_model", "models.load_model"),
    (training, "make_batches", "data.make_batches"),
    (training, "bce_loss", "models.loss"),
    (training, "domain_cce_loss", "models.loss"),
    (training, "mt_daan_loss", "models.loss"),
    (training, "_validation_losses", VALIDATE),
    (autodiff, "gradient_reversal", "models.domain_branch"),
    (autodiff, "backward", "autodiff.backward"),
    (training.Adam, "step", "training.adam"),
    (data, "read_corpus", "data.read_corpus"),
    (data, "build_vocab", "data.build_vocab"),
    (data, "load_embeddings", "data.load_embeddings"),
)


@contextmanager
def patched(owner, attr, make):
    """Replace owner.attr by make(original) for the duration of the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class _Frame:
    __slots__ = ("sid", "name", "t0", "child", "validating")

    def __init__(self, sid, name, t0, validating):
        self.sid = sid
        self.name = name
        self.t0 = t0
        self.child = 0.0
        self.validating = validating


class Tracer:
    """Span recorder plus per-layer counters.

    Every span is (id, parent id, name, start, end, self seconds, root),
    where root is the name of the outermost open span. Spans opened under
    a `training.validate` span are renamed ``validate:<name>`` so that
    validation forwards are not charged to the layers' per-step time.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next = 0
        self.domain_params = set()  # ids of the DenseParams in model.domain
        self.node_cost = self._calibrate()
        self.reset_counters()

    def reset_counters(self):
        self.pullback_s = defaultdict(float)
        self.pullback_total = 0.0
        self.nodes = defaultdict(int)
        self.taped_nodes = 0
        self.backward_calls = 0
        self.sweep_s = 0.0
        self.pad = [0.0, 0.0]  # masked positions, positions seen by bilstm
        self.adam_bytes = 0
        self.useful_rows = [0, 0]  # unlocked rows with a gradient, rows updated

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        validating = name == VALIDATE or (parent is not None and parent.validating)
        if validating and name != VALIDATE:
            name = "validate:" + name
        frame = _Frame(self._next, name, perf_counter(), validating)
        self._next += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        t1 = perf_counter()
        self._stack.pop()
        dur = t1 - frame.t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += dur
        root = self._stack[0].name if self._stack else frame.name
        self.spans.append(
            (
                frame.sid,
                parent.sid if parent is not None else None,
                frame.name,
                frame.t0,
                t1,
                dur - frame.child,
                root,
            )
        )
        return dur

    @contextmanager
    def span(self, name):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def current_layer(self):
        return self._stack[-1].name if self._stack else "other"

    # -- patching --------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        if name == "layers.dense":

            def wrapper(params, *args, **kwargs):
                frame = tracer._open(
                    "models.domain_branch" if id(params) in tracer.domain_params else name
                )
                try:
                    return fn(params, *args, **kwargs)
                finally:
                    tracer._close(frame)

            return wrapper

        if name == "layers.bilstm":

            def wrapper(params, x, mask):
                validating = bool(tracer._stack) and tracer._stack[-1].validating
                if not validating:
                    m = np.asarray(mask)
                    tracer.pad[0] += m.size - np.count_nonzero(m)
                    tracer.pad[1] += m.size
                frame = tracer._open(name)
                try:
                    return fn(params, x, mask)
                finally:
                    tracer._close(frame)

            return wrapper

        if name == "autodiff.backward":

            def wrapper(tape, loss):
                nodes = len(tape.nodes)
                p0 = tracer.pullback_total
                frame = tracer._open(name)
                try:
                    return fn(tape, loss)
                finally:
                    dur = tracer._close(frame)
                    tracer.backward_calls += 1
                    tracer.taped_nodes += nodes
                    tracer.sweep_s += (
                        dur - (tracer.pullback_total - p0) - nodes * tracer.node_cost
                    )

            return wrapper

        if name == "training.adam":

            def wrapper(opt):
                tracer._count_adam(opt)
                frame = tracer._open(name)
                try:
                    return fn(opt)
                finally:
                    tracer._close(frame)

            return wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return wrapper

    def _count_adam(self, opt):
        """Bytes of parameters swept per step, and how many embedding rows
        the step could usefully change (unlocked, non-zero gradient)."""
        for slot in opt.slots:
            self.adam_bytes += slot.var.value.nbytes
            if slot.name == "embedding.table":
                rows = slot.var.value.shape[0]
                g = slot.var._grad
                if g is not None:
                    unlocked = slot.update_mask[:, 0] > 0
                    self.useful_rows[0] += int(np.count_nonzero(unlocked & g.any(axis=1)))
                self.useful_rows[1] += rows

    def _timed(self, layer, pullback):
        tracer = self

        def timed(g):
            t0 = perf_counter()
            pullback(g)
            dt = perf_counter() - t0
            tracer.pullback_s[layer] += dt
            tracer.pullback_total += dt

        return timed

    def _record(self, original):
        tracer = self

        def record(tape, out, parents, pullback):
            layer = tracer.current_layer()
            tracer.nodes[layer] += 1
            original(tape, out, parents, tracer._timed(layer, pullback))

        return record

    def _calibrate(self):
        """Seconds per node that `_timed` adds to a backward sweep outside
        the interval it measures: the median over rounds of a loop calling a
        wrapped no-op, less the time the wrapper reports, less an empty loop."""

        def noop(g):
            pass

        samples = []
        for _ in range(CALIBRATION_ROUNDS):
            self.reset_counters()
            timed = self._timed("calibration", noop)
            t0 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                timed(None)
            wrapped = perf_counter() - t0 - self.pullback_total
            t0 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                pass
            empty = perf_counter() - t0
            samples.append((wrapped - empty) / CALIBRATION_CALLS)
        return max(0.0, float(np.median(samples)))

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for owner, attr, name in PATCHES:
                stack.enter_context(patched(owner, attr, lambda fn, n=name: self._wrap(fn, n)))
            stack.enter_context(patched(autodiff.Tape, "record", self._record))
            yield self

    # -- results ---------------------------------------------------------

    def self_times(self, root):
        """Summed self seconds per span name over spans under `root`."""
        out = defaultdict(float)
        for _sid, _parent, name, _t0, _t1, self_s, span_root in self.spans:
            if span_root == root:
                out[name] += self_s
        return out

    def inclusive_times(self, root, name):
        return sum(t1 - t0 for _, _, n, t0, t1, _, r in self.spans if r == root and n == name)

    def per_root_self_times(self, root):
        """One {name: self seconds} dict per span named `root`."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[1]].append(span)
        out = []
        for span in self.spans:
            if span[2] != root:
                continue
            acc = defaultdict(float)
            todo = [span]
            while todo:
                s = todo.pop()
                acc[s[2]] += s[5]
                todo.extend(children[s[0]])
            out.append(acc)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, self_s, root in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1,
                         "self_s": self_s, "root": root}
                    )
                    + "\n"
                )
