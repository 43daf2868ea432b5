"""Workload definitions and seeded, vectorized generation of their input files.

The program under test only ever sees what this module writes: a corpus
TSV (through `daanet.data.write_corpus`), a ``token v1 ... v_d`` text
embedding file, and a saved model archive. Generation runs in its own
process (``python3 benchmarks/workloads.py --workload W --seed N --out DIR``)
so that neither its time nor its memory lands in a measured figure.

Corpus model (close to `daanet.synth.synth_domains`, but drawn with array
operations instead of one `rng.choice` per token, which is what makes a
10k-token vocabulary affordable): every example draws a fair-coin label
per task and plants one or two of that task's positive or negative signal
tokens, shared by all events; two or three shared filler words; and
per-event nuisance tokens up to its length. Token order is shuffled.
A small share of labels is flipped after the text is drawn, so held-out
F1 is below 1 and a broken model shows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from daanet import data, models, training
from daanet.data import Example, tokenize

FILLERS = ("the", "and", "of", "in", "on", "at", "for", "with", "this", "near")
# Every train round runs exactly this many epochs: patience = EPOCHS - 1,
# so early stopping never shortens a round.
EPOCHS = 2


@dataclass(frozen=True)
class CorpusShape:
    n_events: int  # the last event is the held-out one
    n_source: int  # examples per source event
    n_heldout: int  # examples in the held-out event
    n_tasks: int
    min_len: int
    max_len: int
    nuisance_per_event: int
    signal_per_class: int = 6
    label_noise: float = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusShape
    t_x: int
    adversarial: bool
    learning_rate: float = 5e-3
    embedded_share: float = 0.0  # share of vocabulary tokens in the embedding file
    archive: bool = False  # eval: train once at generation, save, and reload
    d: int = 100
    h: int = 64
    request: int = 256  # examples per evaluate() request


CORPUS = "corpus.tsv"
EMBEDDINGS = "embeddings.txt"
ARCHIVE = "model.npz"
EXPECTED = "expected_digests.json"
DIGEST_ROWS = 1024  # table rows hashed at a time by locked_rows_digest

WORKLOADS = {
    w.name: w
    for w in (
        # Paper scale: 5 source events + 1 held out, 2 tasks, long texts,
        # a ~200-row vocabulary. The BiLSTM and the tape dominate each step.
        Workload(
            "mtdaan_train",
            CorpusShape(
                n_events=6, n_source=200, n_heldout=1000, n_tasks=2,
                min_len=12, max_len=30, nuisance_per_event=30,
            ),
            t_x=30,
            adversarial=True,
        ),
        # Short texts and a >=10k-row, mostly pretrained (locked) vocabulary.
        # The held-out event is large and lexically new, so most rows are
        # only ever seen through the embedding file: the dense vocab x d
        # gradient buffer and Adam over the whole table dominate each step.
        Workload(
            "st_bigvocab_train",
            CorpusShape(
                n_events=6, n_source=300, n_heldout=5000, n_tasks=1,
                min_len=6, max_len=12, nuisance_per_event=10000,
            ),
            t_x=12,
            adversarial=False,
            embedded_share=0.9,
        ),
        # Forward only, batched 256 at a time, on an archive trained at
        # generation time and reopened with load_model.
        Workload(
            "eval_heldout",
            CorpusShape(
                n_events=6, n_source=200, n_heldout=2048, n_tasks=2,
                min_len=12, max_len=30, nuisance_per_event=30,
            ),
            t_x=30,
            adversarial=True,
            archive=True,
        ),
    )
}


def event_name(e):
    return f"event{e}"


def heldout_event(shape):
    return event_name(shape.n_events - 1)


def token_names(shape):
    """Global token list: signal tokens, fillers, then per-event nuisance."""
    signal = [
        f"t{k}{pol}{j}"
        for k in range(shape.n_tasks)
        for pol in ("pos", "neg")
        for j in range(shape.signal_per_class)
    ]
    nuisance = [
        f"e{e}w{j}" for e in range(shape.n_events) for j in range(shape.nuisance_per_event)
    ]
    return signal + list(FILLERS) + nuisance


def generate_corpus(shape, seed):
    """Returns (rows, task_names); each row is (event_id, text, labels)."""
    rng = np.random.default_rng([seed, 7])
    names = np.array(token_names(shape))
    s = shape.signal_per_class
    filler0 = 2 * shape.n_tasks * s
    nuis0 = filler0 + len(FILLERS)
    sizes = [shape.n_source] * (shape.n_events - 1) + [shape.n_heldout]
    event = np.repeat(np.arange(shape.n_events), sizes)
    n = event.size
    length = rng.integers(shape.min_len, shape.max_len + 1, size=n)

    # Token slots, filled left to right and shuffled per row afterwards.
    ids = rng.integers(0, shape.nuisance_per_event, size=(n, shape.max_len))
    ids += nuis0 + event[:, None] * shape.nuisance_per_event
    labels = rng.integers(0, 2, size=(n, shape.n_tasks))
    col = 0
    for k in range(shape.n_tasks):
        base = (2 * k + (1 - labels[:, k])) * s  # positive block first, then negative
        for occurrence in range(2):
            planted = base + rng.integers(0, s, size=n)
            keep = np.ones(n, dtype=bool) if occurrence == 0 else rng.random(n) < 0.5
            ids[keep, col] = planted[keep]
            col += 1
        # rows that skipped their second occurrence keep nuisance there
    n_fill = rng.integers(2, 4, size=n)
    fill = filler0 + rng.integers(0, len(FILLERS), size=(n, 3))
    for j in range(3):
        put = j < n_fill
        ids[put, col + j] = fill[put, j]

    # Shuffle the first `length` slots of each row; padding sorts last.
    keys = rng.random((n, shape.max_len))
    keys[np.arange(shape.max_len)[None, :] >= length[:, None]] = 2.0
    ids = np.take_along_axis(ids, np.argsort(keys, axis=1), axis=1)

    flip = rng.random(labels.shape) < shape.label_noise
    labels = np.where(flip, 1 - labels, labels)
    task_names = [f"task{k}" for k in range(shape.n_tasks)]
    rows = []
    for r in range(n):
        text = " ".join(names[ids[r, : length[r]]])
        lab = {t: int(labels[r, k]) for k, t in enumerate(task_names)}
        rows.append((event_name(int(event[r])), text, lab))
    return rows, task_names


def write_embeddings(path, tokens, dim, share, seed):
    """Write a ``<count> <dim>`` header and vectors for a seeded `share` of
    `tokens`; the rest are left for `load_embeddings` to initialise."""
    rng = np.random.default_rng([seed, 8])
    tokens = list(tokens)
    chosen = np.sort(rng.choice(len(tokens), size=int(round(share * len(tokens))), replace=False))
    vectors = rng.normal(0.0, 0.3, size=(chosen.size, dim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{chosen.size} {dim}\n")
        for i, vec in zip(chosen, vectors):
            fh.write(tokens[i] + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")


def spec_for(workload, task_names, n_domains):
    return models.ModelSpec(
        t_x=workload.t_x,
        d=workload.d,
        h=workload.h,
        task_names=tuple(task_names),
        adversarial=workload.adversarial,
        n_domains=n_domains if workload.adversarial else 0,
    )


def config_for(workload, seed):
    return training.TrainConfig(
        max_epochs=EPOCHS,
        patience=EPOCHS - 1,
        learning_rate=workload.learning_rate,
        seed=seed,
    )


def digest(array):
    """SHA-256 over an array's dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.data)
    return h.hexdigest()


def locked_rows_digest(embedding):
    """Digest of the locked-row mask and of every locked row of the table,
    hashed a chunk of rows at a time so that no copy of the table is made."""
    table, locked = embedding.table.value, embedding.locked
    h = hashlib.sha256(digest(locked).encode())
    for i in range(0, table.shape[0], DIGEST_ROWS):
        rows = slice(i, i + DIGEST_ROWS)
        h.update(table[rows][locked[rows]].data)  # boolean indexing copies
    return h.hexdigest()


def model_digests(model):
    """{parameter name: digest} of a model, plus its locked-row mask."""
    out = {slot.name: digest(slot.var.value) for slot in model.parameters()}
    out["embedding.locked"] = digest(model.embedding.locked)
    return out


def generate(workload, seed, out):
    """Write the workload's input files into directory `out`."""
    out = Path(out)
    rows, task_names = generate_corpus(workload.corpus, seed)
    examples = [Example(e, text, tokenize(text), labels) for e, text, labels in rows]
    data.write_corpus(out / CORPUS, examples, task_names)
    if workload.embedded_share:
        vocab = data.build_vocab(examples)
        write_embeddings(
            out / EMBEDDINGS, vocab.tokens[2:], workload.d, workload.embedded_share, seed
        )
    if workload.archive:
        examples, task_names = data.read_corpus(out / CORPUS)
        split = data.leave_one_out_split(examples, heldout_event(workload.corpus))
        spec = spec_for(workload, task_names, split.n_domains)
        model = models.build_model(spec, data.build_vocab(examples), seed=seed)
        training.train(model, split, config_for(workload, seed))
        models.save_model(model, out / ARCHIVE)
        (out / EXPECTED).write_text(json.dumps(model_digests(model), indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
