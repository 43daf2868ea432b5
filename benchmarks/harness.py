"""Measurement and correctness gates for the three workloads.

`run` takes a workload whose input files are already generated, sets the
program up several times, drives the measured loop for a time budget
from this one process, checks every output it gets back, and returns the
end-to-end metrics (untraced) or the per-layer metrics (traced).

Train workloads repeat whole `training.train` rounds on a freshly set-up
model until the budget is spent; the rounds are identical, which the
gates check. The eval workload is one closed-loop client: it sends the
next 256-example request to `training.evaluate` when the previous one
has returned, cycling over the held-out event.
"""

from __future__ import annotations

import gc
import json
import math
import resource
from pathlib import Path
from time import perf_counter

import numpy as np

from daanet import data, models, training
from tracing import Tracer, patched
from workloads import (
    ARCHIVE,
    CORPUS,
    EMBEDDINGS,
    EPOCHS,
    EXPECTED,
    config_for,
    heldout_event,
    locked_rows_digest,
    model_digests,
    spec_for,
)

END_TO_END = {
    "setup_s": "s",
    "examples_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "heldout_f1": "F1",
    "peak_rss_mb": "MB",
}

LAYERS = ("bilstm", "attention_head", "embed", "dense", "dropout")
SETUP_PIECES = (
    "data.read_corpus",
    "data.build_vocab",
    "data.load_embeddings",
    "models.build_model",
    "models.load_model",
)
PER_LAYER = {
    **{f"layers.{layer}.{d}_ms": "ms" for layer in LAYERS for d in ("fwd", "bwd")},
    "layers.bilstm.nodes": "count",
    "layers.bilstm.pad_frac": "ratio",
    "layers.attention_head.nodes": "count",
    "autodiff.tape.nodes": "count",
    "autodiff.backward.ms": "ms",
    "autodiff.backward.sweep_ms": "ms",
    "training.adam.ms": "ms",
    "training.adam.param_bytes": "B",
    "training.adam.useful_rows_frac": "ratio",
    "models.loss.fwd_ms": "ms",
    "models.loss.bwd_ms": "ms",
    "models.domain_branch.fwd_ms": "ms",
    "models.domain_branch.bwd_ms": "ms",
    "training.validate.ms": "ms",
    "data.make_batches.ms": "ms",
    **{f"{piece}.s": "s" for piece in SETUP_PIECES},
    "tracing.overhead_frac": "ratio",
}

# Set-up runs before the measured loop until it has SETUP_MIN_RUNS samples
# and SETUP_SECONDS of set-up time, so that a set-up of a few milliseconds
# still gets a steady median; then again before every train round or eval
# pass, so that the median also samples the rest of the run.
SETUP_MIN_RUNS = 3
SETUP_SECONDS = 1.5
F1_FLOOR = 0.8  # an all-positive classifier scores 2/3 on balanced labels


class Gates:
    """Correctness checks, grouped by the unit of work (train round or
    eval request) they belong to."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self._unit_ok = True

    def begin(self):
        self.attempted += 1
        self._unit_ok = True

    def check(self, ok, message):
        if not ok:
            if self._unit_ok:
                self.failed += 1
            self._unit_ok = False
            if len(self.messages) < 20:
                self.messages.append(message)

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def _step_stamps(stamps):
    """One timestamp per return of `Adam.step`: the untraced run's only
    instrumentation."""

    def make(step):
        def stamped(self):
            step(self)
            stamps.append(perf_counter())

        return stamped

    return patched(training.Adam, "step", make)


# ---------------------------------------------------------------------------
# set-up: everything the program does before it can train or serve


def setup_train(workload, work, seed):
    examples, task_names = data.read_corpus(work / CORPUS)
    vocab = data.build_vocab(examples)
    embedding = None
    if workload.embedded_share:
        embedding = data.load_embeddings(work / EMBEDDINGS, vocab, workload.d, seed=seed)
    split = data.leave_one_out_split(examples, heldout_event(workload.corpus))
    spec = spec_for(workload, task_names, split.n_domains)
    model = models.build_model(spec, vocab, embedding=embedding, seed=seed)
    return split, model


def setup_eval(workload, work, seed):
    examples, _ = data.read_corpus(work / CORPUS)
    split = data.leave_one_out_split(examples, heldout_event(workload.corpus))
    return split, models.load_model(work / ARCHIVE)


# ---------------------------------------------------------------------------
# measured units of work


class _Measure:
    """Accumulated wall time, examples and latency samples of measured units."""

    def __init__(self):
        self.wall = 0.0
        self.examples = 0
        self.units = 0
        self.latencies = []


class _Session:
    """One run's program state: set-up results, gates and reference outputs."""

    def __init__(self, workload, work, seed, gates):
        self.workload = workload
        self.work = Path(work)
        self.seed = seed
        self.gates = gates
        self.cfg = config_for(workload, seed)
        self.setup_times = []
        self.ready = None  # (split, model) from the latest set-up
        self.history = None  # round 1's History, which later rounds must repeat
        self.f1 = None
        self.first_pass = {}  # eval: request index -> round-1 Metrics
        self.expected = None  # eval: {parameter name: digest} of the saved model
        if workload.archive:
            self.expected = json.loads((self.work / EXPECTED).read_text())

    def setup(self, tracer=None):
        fn = setup_eval if self.workload.archive else setup_train
        gc.collect()  # garbage left by the previous round is not set-up work
        if tracer is None:
            self.ready, dt = _timed(fn, self.workload, self.work, self.seed)
        else:
            with tracer.span("setup"):
                self.ready, dt = _timed(fn, self.workload, self.work, self.seed)
        self.setup_times.append(dt)
        if self.expected is not None:
            self._check_loaded(self.ready[1])

    def _check_loaded(self, model):
        """The archive must reopen to exactly the parameters that were saved."""
        gates = self.gates
        gates.begin()
        got = model_digests(model)
        for name in sorted(got.keys() | self.expected.keys()):
            gates.check(
                got.get(name) == self.expected.get(name),
                f"load_model: {name} differs from the saved one",
            )

    def train_round(self, m, tracer=None):
        """One `training.train` call on a freshly set-up model."""
        cfg, gates = self.cfg, self.gates
        self.setup(tracer)
        split, model = self.ready
        if tracer is not None:
            tracer.domain_params = (
                {id(model.domain.hidden), id(model.domain.out)} if model.domain else set()
            )
        # The validation share of each label group is fixed by the group
        # sizes alone, so any generator gives train()'s training-set size.
        train_ex, _ = training.stratified_val_split(
            split.train_labeled, cfg.val_split, np.random.default_rng(0)
        )
        steps_per_epoch = math.ceil(len(train_ex) / cfg.batch_size)
        locked_before = locked_rows_digest(model.embedding)

        gates.begin()
        stamps = []
        if tracer is None:
            with _step_stamps(stamps):
                history, dt = _timed(training.train, model, split, cfg)
        else:
            with tracer.span("train"):
                history, dt = _timed(training.train, model, split, cfg)
        m.wall += dt
        m.units += 1
        m.examples += EPOCHS * len(train_ex)

        what = f"train round {m.units}"
        gates.check(
            len(history.train_loss) == EPOCHS,
            f"{what}: ran {len(history.train_loss)} of {EPOCHS} epochs",
        )
        losses = history.train_loss + history.val_loss + history.domain_loss
        gates.check(all(math.isfinite(x) for x in losses), f"{what}: non-finite loss")
        gates.check(
            locked_rows_digest(model.embedding) == locked_before,
            f"{what}: locked embedding rows changed",
        )
        if tracer is None:
            gates.check(
                len(stamps) == EPOCHS * steps_per_epoch,
                f"{what}: {len(stamps)} optimizer steps, expected {EPOCHS * steps_per_epoch}",
            )
            # Intervals within an epoch only: the first step of an epoch
            # follows the previous epoch's validation pass.
            for e in range(EPOCHS):
                epoch = stamps[e * steps_per_epoch : (e + 1) * steps_per_epoch]
                m.latencies.extend(np.diff(epoch) * 1e3)
        if self.history is None:
            self.history = history
            self.f1 = training.evaluate(model, split.test).mean_f1()
            gates.check(self.f1 >= F1_FLOOR, f"held-out F1 {self.f1:.4f} < {F1_FLOOR}")
        else:
            gates.check(history == self.history, f"{what}: losses differ from round 1")

    def requests(self):
        split, _ = self.ready
        size = self.workload.request
        return [split.test[i : i + size] for i in range(0, len(split.test), size)]

    def eval_request(self, m, tracer=None):
        """One closed-loop `training.evaluate` request, cycling over the
        held-out event."""
        gates = self.gates
        chunks = self.requests()
        k = m.units % len(chunks)
        if k == 0 and m.units:
            self.setup(tracer)
        _, model = self.ready
        gates.begin()
        if tracer is None:
            metrics, dt = _timed(training.evaluate, model, chunks[k], self.workload.request)
        else:
            with tracer.span("request"):
                metrics, dt = _timed(training.evaluate, model, chunks[k], self.workload.request)
        m.wall += dt
        m.units += 1
        m.examples += len(chunks[k])
        m.latencies.append(dt * 1e3)
        labeled = {t: sum(t in ex.labels for ex in chunks[k]) for t in model.spec.task_names}
        got = {t: tm.n for t, tm in metrics.per_task.items()}
        gates.check(got == labeled, f"request {m.units}: TaskMetrics.n {got} != {labeled}")
        first = self.first_pass.setdefault(k, metrics)
        gates.check(metrics == first, f"request {m.units}: results differ from the first pass")

    def verify_heldout(self):
        """Eval: F1 and labeled counts over the whole held-out event."""
        gates = self.gates
        split, model = self.ready
        gates.begin()
        full = training.evaluate(model, split.test, batch_size=self.workload.request)
        self.f1 = full.mean_f1()
        gates.check(self.f1 >= F1_FLOOR, f"held-out F1 {self.f1:.4f} < {F1_FLOOR}")
        got = {t: tm.n for t, tm in full.per_task.items()}
        want = {t: sum(t in ex.labels for ex in split.test) for t in model.spec.task_names}
        gates.check(got == want, f"held-out TaskMetrics.n {got} != {want}")


# ---------------------------------------------------------------------------
# one run


def run(workload, work, seed, seconds, trace):
    """Measure `workload` on the inputs in directory `work` for `seconds`.

    Returns (gates, metrics, detail, tracer); tracer is None when untraced.
    The traced run alternates untraced and traced units of work, so the
    two halves see the same warm-up and the same machine load.
    """
    gates = Gates()
    session = _Session(workload, work, seed, gates)
    tracer = Tracer() if trace else None
    times = session.setup_times
    while len(times) < SETUP_MIN_RUNS or sum(times) < SETUP_SECONDS:
        if tracer is None:
            session.setup()
        else:
            with tracer.installed():
                session.setup(tracer)

    # Whole passes only, so that per-request averages and counts repeat
    # exactly; two at least, so the repeat gates always have a reference.
    if workload.archive:
        unit, per_pass = session.eval_request, len(session.requests())
    else:
        unit, per_pass = session.train_round, 1

    def more(m, wall):
        return m.units < 2 * per_pass or wall < seconds or m.units % per_pass

    if tracer is None:
        m = _Measure()
        while more(m, m.wall):
            unit(m)
    else:
        plain, m = _Measure(), _Measure()
        tracer.reset_counters()
        while more(m, plain.wall + m.wall):
            unit(plain)
            with tracer.installed():
                unit(m, tracer)
    if workload.archive:
        session.verify_heldout()

    detail = {
        "units": m.units,
        "examples": m.examples,
        "measured_s": m.wall,
        "setup_samples": len(session.setup_times),
        "gate_messages": gates.messages,
        **_sizes(workload, Path(work), session.ready[1]),
    }
    if tracer is None:
        lat = np.asarray(m.latencies)
        p90 = float(np.percentile(lat, 90))
        detail["latency_samples"] = int(lat.size)
        detail["latency_samples_above_p90"] = int(np.count_nonzero(lat > p90))
        metrics = {
            "setup_s": float(np.median(session.setup_times)),
            "examples_per_s": m.examples / m.wall,
            "latency_ms_p50": float(np.percentile(lat, 50)),
            "latency_ms_p90": p90,
            "heldout_f1": session.f1,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return gates, _with_units(metrics, END_TO_END), detail, None

    detail["untraced_units"] = plain.units
    metrics = _layer_metrics(tracer, "request" if workload.archive else "train", m)
    metrics["tracing.overhead_frac"] = (m.wall / m.examples) / (plain.wall / plain.examples) - 1.0
    return gates, _with_units(metrics, PER_LAYER), detail, tracer


def _sizes(workload, work, model):
    """Vocabulary rows, locked rows and embedding-file vectors of the run."""
    out = {
        "vocab_rows": int(model.embedding.table.value.shape[0]),
        "locked_rows": int(np.count_nonzero(model.embedding.locked)),
    }
    if workload.embedded_share:
        with open(work / EMBEDDINGS, encoding="utf-8") as fh:
            out["embedding_vectors"] = sum(1 for _ in fh) - 1  # minus the header
    return out


def _layer_metrics(tracer, root, m):
    """Per-step (train) or per-request (eval) layer figures from the spans."""
    units = tracer.backward_calls if root == "train" else m.units
    self_s = tracer.self_times(root)

    def ms(seconds):
        return seconds / units * 1e3

    out = {}
    for layer in LAYERS:
        name = f"layers.{layer}"
        out[f"{name}.fwd_ms"] = ms(self_s[name])
        out[f"{name}.bwd_ms"] = ms(tracer.pullback_s[name])
    for name in ("models.loss", "models.domain_branch"):
        out[f"{name}.fwd_ms"] = ms(self_s[name])
        out[f"{name}.bwd_ms"] = ms(tracer.pullback_s[name])
    out["layers.bilstm.nodes"] = tracer.nodes["layers.bilstm"] / units
    out["layers.attention_head.nodes"] = tracer.nodes["layers.attention_head"] / units
    out["layers.bilstm.pad_frac"] = tracer.pad[0] / tracer.pad[1] if tracer.pad[1] else 0.0
    out["autodiff.tape.nodes"] = tracer.taped_nodes / units
    out["autodiff.backward.ms"] = ms(self_s["autodiff.backward"])
    out["autodiff.backward.sweep_ms"] = ms(tracer.sweep_s)
    out["training.adam.ms"] = ms(self_s["training.adam"])
    out["training.adam.param_bytes"] = tracer.adam_bytes / units
    rows = tracer.useful_rows
    out["training.adam.useful_rows_frac"] = rows[0] / rows[1] if rows[1] else 0.0
    out["training.validate.ms"] = ms(tracer.inclusive_times(root, "training.validate"))
    out["data.make_batches.ms"] = ms(self_s["data.make_batches"])
    per_setup = tracer.per_root_self_times("setup")
    for piece in SETUP_PIECES:
        out[f"{piece}.s"] = float(np.median([s[piece] for s in per_setup]))
    return out


def _with_units(values, units):
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
