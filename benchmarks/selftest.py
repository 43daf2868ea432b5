"""Smoke-sized self-test of the benchmark harness (not part of the repo's
test suite; the file name keeps pytest from collecting it).

    python3 benchmarks/selftest.py

It runs tiny versions of the three workloads through the same harness,
checks that every metric named in BENCHMARK.json is emitted with its
unit, and checks that each correctness gate trips when the program is
made to return a deliberately wrong output.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from daanet import models, training  # noqa: E402
from tracing import patched  # noqa: E402
from workloads import CorpusShape, Workload  # noqa: E402

SMOKE_SHAPE = CorpusShape(
    n_events=3, n_source=120, n_heldout=64, n_tasks=2, min_len=4, max_len=8,
    nuisance_per_event=10, signal_per_class=2, label_noise=0.0,
)
SMOKE = {
    "mtdaan_train": Workload(
        "mtdaan_train", SMOKE_SHAPE, t_x=8, adversarial=True, learning_rate=3e-2, d=12, h=8
    ),
    "st_bigvocab_train": Workload(
        "st_bigvocab_train",
        replace(SMOKE_SHAPE, n_tasks=1, nuisance_per_event=200),
        t_x=8, adversarial=False, learning_rate=3e-2, embedded_share=0.9, d=12, h=8,
    ),
    "eval_heldout": Workload(
        "eval_heldout", SMOKE_SHAPE, t_x=8, adversarial=True, learning_rate=3e-2,
        archive=True, d=12, h=8, request=16,
    ),
}
SEED = 5
REQUESTS_PER_PASS = math.ceil(SMOKE_SHAPE.n_heldout / SMOKE["eval_heldout"].request)
WORK = ROOT / ".bench_work" / "selftest"


def setUpModule():
    harness.SETUP_SECONDS = 0.0  # smoke set-ups take milliseconds: SETUP_MIN_RUNS is enough
    WORK.mkdir(parents=True, exist_ok=True)
    for w in SMOKE.values():
        (WORK / w.name).mkdir(exist_ok=True)
        workloads.generate(w, SEED, WORK / w.name)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


def smoke_run(name, trace=False):
    return harness.run(SMOKE[name], WORK / name, SEED, 0.05, trace)


class MetricsEmitted(unittest.TestCase):
    def setUp(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        self.per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(SMOKE))

    def check(self, name, trace, declared):
        gates, metrics, _, _ = smoke_run(name, trace)
        self.assertTrue(gates.correct, gates.messages)
        self.assertGreater(gates.attempted, 0)
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
        for key, v in metrics.items():
            self.assertTrue(math.isfinite(v["value"]), key)
        return metrics

    def test_end_to_end(self):
        for name in SMOKE:
            with self.subTest(name):
                metrics = self.check(name, False, self.end_to_end)
                for key, v in metrics.items():
                    self.assertGreater(v["value"], 0.0, key)

    def test_per_layer(self):
        for name in SMOKE:
            with self.subTest(name):
                metrics = self.check(name, True, self.per_layer)
                self.assertGreater(metrics["layers.bilstm.fwd_ms"]["value"], 0.0)
                trains = not SMOKE[name].archive
                self.assertEqual(metrics["autodiff.tape.nodes"]["value"] > 0, trains)

    def test_counts_repeat(self):
        for name in SMOKE:
            with self.subTest(name):
                counts = [
                    {k: v["value"] for k, v in smoke_run(name, True)[1].items()
                     if k.endswith((".nodes", ".pad_frac", ".param_bytes"))}
                    for _ in range(2)
                ]
                self.assertEqual(counts[0], counts[1])


class GatesTrip(unittest.TestCase):
    def assertTrips(self, name, owner, attr, make, words):
        with patched(owner, attr, make):
            gates, _, _, _ = smoke_run(name)
        self.assertFalse(gates.correct)
        self.assertGreater(gates.failed, 0)
        self.assertTrue(any(words in m for m in gates.messages), gates.messages)

    def test_heldout_f1_floor(self):
        def make(train):
            def wrong(model, split, cfg):
                history = train(model, split, cfg)
                for head in model.heads:  # every example scores p = 0.5: all positive
                    head.out.w.value = np.zeros_like(head.out.w.value)
                    head.out.b.value = np.zeros_like(head.out.b.value)
                return history
            return wrong

        self.assertTrips("mtdaan_train", training, "train", make, "held-out F1")

    def test_finite_losses(self):
        def make(train):
            def wrong(model, split, cfg):
                history = train(model, split, cfg)
                history.val_loss[-1] = float("nan")
                return history
            return wrong

        self.assertTrips("mtdaan_train", training, "train", make, "non-finite loss")

    def test_locked_rows_unchanged(self):
        def make(train):
            def wrong(model, split, cfg):
                history = train(model, split, cfg)
                emb = model.embedding
                row = int(np.flatnonzero(emb.locked)[-1])
                emb.table.value[row] += 1e-12
                return history
            return wrong

        self.assertTrips("st_bigvocab_train", training, "train", make, "locked embedding rows")

    def test_rounds_repeat(self):
        calls = []

        def make(train):
            def wrong(model, split, cfg):
                history = train(model, split, cfg)
                calls.append(1)
                if len(calls) > 1:
                    history.train_loss[0] += 1e-12
                return history
            return wrong

        self.assertTrips("mtdaan_train", training, "train", make, "differ from round 1")

    def test_every_batch_steps(self):
        def make(make_batches):
            def wrong(*args, **kwargs):
                batches = make_batches(*args, **kwargs)
                return batches[:-1] if kwargs.get("rng") is not None else batches
            return wrong

        self.assertTrips("mtdaan_train", training, "make_batches", make, "optimizer steps")

    def test_archive_reopens_exactly(self):
        def make(load_model):
            def wrong(path):
                model = load_model(path)
                w = model.heads[0].out.w
                w.value = np.nextafter(w.value, np.inf)
                return model
            return wrong

        self.assertTrips("eval_heldout", models, "load_model", make, "load_model")

    def test_request_counts(self):
        def make(evaluate):
            def wrong(model, examples, *args, **kwargs):
                metrics = evaluate(model, examples, *args, **kwargs)
                first = next(iter(metrics.per_task.values()))
                first.n -= 1
                return metrics
            return wrong

        self.assertTrips("eval_heldout", training, "evaluate", make, "TaskMetrics.n")

    def test_predictions_repeat(self):
        calls = []

        def make(evaluate):
            def wrong(model, examples, *args, **kwargs):
                metrics = evaluate(model, examples, *args, **kwargs)
                calls.append(1)
                if len(calls) > REQUESTS_PER_PASS:
                    first = next(iter(metrics.per_task.values()))
                    first.accuracy = 1.0 - first.accuracy + 1e-9
                return metrics
            return wrong

        self.assertTrips("eval_heldout", training, "evaluate", make, "differ from the first pass")


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_package(self):
        bare = WORK / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "mtdaan_train",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
