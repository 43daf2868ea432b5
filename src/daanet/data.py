"""Corpus ingestion: tokenization, vocabulary, pretrained embeddings,
label binarization, leave-one-event-out splitting, and batching.

Corpus files are UTF-8 TSV with a header line::

    event_id<TAB>text<TAB><task-1><TAB><task-2>...

followed by one record per line; task cells are ``0``, ``1``, or ``-``
(label absent). Embedding files are text lines ``token v1 ... v_dim``
with an optional leading ``<count> <dim>`` header.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, LabelError, SplitError
from .layers import EmbeddingMatrix
from . import autodiff as ad

log = logging.getLogger(__name__)

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1
ABSENT = "-"

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"#?\w+")
_PLACEHOLDERS = ("<url>", "<user>")


def tokenize(text):
    """Lowercase, map URLs to ``<url>`` and @mentions to ``<user>``, then
    split on whitespace/punctuation keeping ``#tags`` intact."""
    t = text.lower()
    t = _URL_RE.sub(" <url> ", t)
    t = _MENTION_RE.sub(" <user> ", t)
    tokens = []
    for piece in t.split():
        if piece in _PLACEHOLDERS:
            tokens.append(piece)
        else:
            tokens.extend(_TOKEN_RE.findall(piece))
    return tokens


@dataclass
class Example:
    event_id: str
    text: str
    tokens: list
    labels: dict  # task -> {0, 1}; tasks without a label are absent, so unlabeled is {}
    domain_idx: int | None = None


class Vocab:
    """Token-to-index map; index 0 is padding, index 1 unknown."""

    def __init__(self, tokens):
        self.tokens = [PAD_TOKEN, UNK_TOKEN] + list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self.index

    def id_of(self, token):
        return self.index.get(token, UNK_ID)

    def encode(self, tokens, t_x):
        """Truncate to t_x, map to ids, right-pad with 0. Returns (ids, length)."""
        kept = tokens[:t_x]
        ids = np.zeros(t_x, dtype=np.int64)
        for j, tok in enumerate(kept):
            ids[j] = self.index.get(tok, UNK_ID)
        return ids, len(kept)

    def decode(self, ids):
        return [self.tokens[i] for i in ids if i != PAD_ID]

    def sha256(self):
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()


def build_vocab(examples, min_freq=1):
    """Frequency-thresholded vocabulary, ordered by (-freq, token) so the
    index assignment is deterministic for a given corpus."""
    counts = {}
    for ex in examples:
        for tok in ex.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocab(kept)


def load_embeddings(path, vocab, dim, seed=0):
    """Load pretrained vectors for `vocab`.

    In-vocabulary tokens found in the file get their file vector and are
    locked; missing tokens get a seeded uniform(-0.25, 0.25) row and stay
    tunable. Row 0 (padding) is zero and locked.
    """
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if lineno == 1 and len(parts) == 2:
                continue  # "<count> <dim>" header
            if len(parts) < 2 or not parts[0]:
                continue
            token, values = parts[0], parts[1:]
            if token not in vocab.index:
                continue
            if len(values) != dim:
                raise DataError(
                    f"expected {dim} components, found {len(values)}", path=str(path), line=lineno
                )
            try:
                vectors[token] = np.array([float(v) for v in values])
            except ValueError as exc:
                raise DataError(f"bad float: {exc}", path=str(path), line=lineno) from None

    v = len(vocab)
    table = np.zeros((v, dim))
    locked = np.zeros(v, dtype=bool)
    locked[PAD_ID] = True
    rng = np.random.default_rng(seed)
    matched = 0
    # row 0 stays zero/locked; the reserved <unk> row 1 stays zero but tunable
    for idx in range(2, v):
        token = vocab.tokens[idx]
        vec = vectors.get(token)
        if vec is None:
            table[idx] = rng.uniform(-0.25, 0.25, size=dim)
        else:
            table[idx] = vec
            locked[idx] = True
            matched += 1
    real_tokens = max(v - 2, 1)
    coverage = matched / real_tokens if v > 2 else 0.0
    return EmbeddingMatrix(table=ad.Var(table), locked=locked, coverage=coverage)


_PRIORITY_MAP = {"low": 0, "medium": 1, "high": 1, "critical": 1}


def binarize_priority(level):
    """Collapse the four priority levels onto {0, 1}: only 'low' maps to 0."""
    try:
        return _PRIORITY_MAP[level.strip().lower()]
    except (KeyError, AttributeError):
        raise LabelError(f"unknown priority level {level!r}") from None


# ---------------------------------------------------------------------------
# corpus I/O


def read_corpus(path):
    """Read a corpus TSV; returns (examples, task_names).

    Examples whose text tokenizes to nothing are dropped (count logged).
    """
    examples = []
    dropped = 0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split("\t")
        if len(cols) < 3 or cols[0] != "event_id" or cols[1] != "text":
            raise DataError(
                "header must be 'event_id<TAB>text<TAB><task>...'", path=str(path), line=1
            )
        task_names = cols[2:]
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != len(cols):
                raise DataError(
                    f"expected {len(cols)} columns, found {len(fields)}",
                    path=str(path),
                    line=lineno,
                )
            event_id, text = fields[0], fields[1]
            labels = {}
            for task, cell in zip(task_names, fields[2:]):
                if cell == ABSENT:
                    continue
                if cell not in ("0", "1"):
                    raise DataError(
                        f"label for {task} must be 0, 1 or '-', found {cell!r}",
                        path=str(path),
                        line=lineno,
                    )
                labels[task] = int(cell)
            tokens = tokenize(text)
            if not tokens:
                dropped += 1
                continue
            examples.append(Example(event_id, text, tokens, labels))
    if dropped:
        log.info("dropped %d examples with empty tokenization from %s", dropped, path)
    return examples, task_names


def write_corpus(path, examples, task_names):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("event_id\ttext\t" + "\t".join(task_names) + "\n")
        for ex in examples:
            cells = [str(ex.labels[t]) if t in ex.labels else ABSENT for t in task_names]
            fh.write(f"{ex.event_id}\t{ex.text}\t" + "\t".join(cells) + "\n")


# ---------------------------------------------------------------------------
# splitting


@dataclass
class SplitData:
    target_event: str
    train_labeled: list
    domain_examples: list  # label-stripped source examples carrying domain_idx
    domain_index: dict  # event_id -> 0..n_domains-1
    test: list

    @property
    def n_domains(self):
        return len(self.domain_index)


def leave_one_out_split(examples, target_event):
    """Hold out `target_event` entirely: its labeled examples become the
    test set; every other event supplies labeled training data plus
    label-stripped domain examples indexed 0..n_domains-1."""
    events = sorted({ex.event_id for ex in examples})
    if target_event not in events:
        raise SplitError(f"unknown event {target_event!r}; corpus has {events}")
    source_events = [e for e in events if e != target_event]
    if not source_events:
        raise SplitError("corpus has a single event; no source domains remain")
    domain_index = {e: i for i, e in enumerate(source_events)}

    test = [ex for ex in examples if ex.event_id == target_event and ex.labels]
    train_labeled = [ex for ex in examples if ex.event_id != target_event and ex.labels]
    domain_examples = [
        replace(ex, labels={}, domain_idx=domain_index[ex.event_id])
        for ex in examples
        if ex.event_id != target_event
    ]
    return SplitData(
        target_event=target_event,
        train_labeled=train_labeled,
        domain_examples=domain_examples,
        domain_index=domain_index,
        test=test,
    )


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    ids: np.ndarray  # [N x T_x] int
    mask: np.ndarray  # [N x T_x] float, prefix-of-ones rows; mask.sum(1) is the lengths
    labels: dict  # task -> (y [N], present [N]) float arrays
    domain_onehot: np.ndarray | None = None  # [N x n_domains]

    @property
    def size(self):
        return self.ids.shape[0]


def make_batches(examples, vocab, t_x, batch_size=32, rng=None, tasks=None, n_domains=0):
    """Encode and batch `examples`; shuffled when `rng` is given, with the
    last partial batch kept."""
    if tasks is None:
        tasks = sorted({t for ex in examples for t in ex.labels})
    order = np.arange(len(examples))
    if rng is not None:
        order = rng.permutation(len(examples))
    batches = []
    for start in range(0, len(examples), batch_size):
        chunk = [examples[i] for i in order[start : start + batch_size]]
        n = len(chunk)
        ids = np.zeros((n, t_x), dtype=np.int64)
        mask = np.zeros((n, t_x))
        for r, ex in enumerate(chunk):
            row, length = vocab.encode(ex.tokens, t_x)
            ids[r] = row
            mask[r, :length] = 1.0
        labels = {}
        for task in tasks:
            y = np.zeros(n)
            present = np.zeros(n)
            for r, ex in enumerate(chunk):
                if task in ex.labels:
                    y[r] = ex.labels[task]
                    present[r] = 1.0
            labels[task] = (y, present)
        onehot = None
        if n_domains > 0:
            onehot = np.zeros((n, n_domains))
            for r, ex in enumerate(chunk):
                if ex.domain_idx is not None:
                    onehot[r, ex.domain_idx] = 1.0
        batches.append(Batch(ids=ids, mask=mask, labels=labels, domain_onehot=onehot))
    return batches
