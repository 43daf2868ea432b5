"""Corpus ingestion: tokenization, vocabulary, pretrained embeddings,
corpus I/O, leave-one-event-out splitting, and batching.

Corpus files are UTF-8 TSV, with or without a byte-order mark, and a
header line::

    event_id<TAB>text<TAB><task-1><TAB><task-2>...

followed by one record per line; task cells are ``0``, ``1``, or ``-``
(label absent). Embedding files are UTF-8 text lines ``token v1 ... v_dim``,
also with or without a byte-order mark, with an optional leading
``<count> <dim>`` header.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DataError,
    LabelError,
    ParameterError,
    SplitError,
    require_counts,
)
from .layers import EMBEDDING_INIT_SCALE, MODEL_DTYPE, EmbeddingMatrix, uniform_init
from . import autodiff as ad

__all__ = [
    "PAD_ID",
    "UNK_ID",
    "Batch",
    "Example",
    "SplitData",
    "Vocab",
    "build_vocab",
    "leave_one_out_split",
    "load_embeddings",
    "make_batches",
    "read_corpus",
    "tokenize",
    "write_corpus",
]

log = logging.getLogger(__name__)

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1
ABSENT = "-"

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_WORD_RE = re.compile(r"#?\w+")
_PLACEHOLDERS = ("<url>", "<user>")

EMBEDDING_CHUNK = 256  # in-vocabulary embedding lines parsed per np.loadtxt call
# np.loadtxt strips these ASCII separators around a number as whitespace; float() rejects them
_FLOAT_REJECTS = "\x1c\x1d\x1e\x1f"


def tokenize(text):
    r"""The tokens of `text`, in order.

    The text is lowercased. Each run ``(?:https?://|www\.)\S+`` is replaced
    by `` <url> ``, and then each run ``@\w+`` by `` <user> ``. The result is
    split on whitespace (``str.split()``). A piece that is all letters and
    digits (``str.isalnum()``), or is exactly ``<url>`` or ``<user>``, is one
    token; any other piece gives its ``#?\w+`` runs, so ``#tags`` stay whole
    and punctuation separates tokens.

    Since regex ``\w`` is ``str.isalnum()`` or ``_`` and regex ``\s`` is
    ``str.isspace()``, this is ``#?\w+`` run over the whole substituted text,
    with a placeholder kept only where it stands as a whole piece.
    """
    return _tokenize(text, {})


def _tokenize(text, memo):
    r"""`tokenize(text)`, with each token taken from `memo` when it is there.

    `memo` maps to itself each piece seen that is its own one token: an
    all-alphanumeric piece, a placeholder, or a ``#?\w+`` word found in
    another piece. Other pieces run the regex again. So texts tokenized
    with one memo share one `str` per distinct token.
    """
    t = text.lower()
    # each pattern needs this substring to match, and the regex call costs more than the test
    if "://" in t or "www." in t:
        t = _URL_RE.sub(" <url> ", t)
    if "@" in t:
        t = _MENTION_RE.sub(" <user> ", t)
    tokens = []
    for piece in t.split():
        token = memo.get(piece)
        if token is not None:
            tokens.append(token)
        elif piece.isalnum() or piece in _PLACEHOLDERS:
            memo[piece] = piece  # no setdefault: first sightings are common in a large vocabulary
            tokens.append(piece)
        else:
            tokens += [memo.setdefault(w, w) for w in _WORD_RE.findall(piece)]
    return tokens


@dataclass
class Example:
    """One record. In the examples of one `read_corpus` call, equal tokens
    and equal event ids are one shared `str` object each."""

    event_id: str
    text: str
    tokens: list
    labels: dict  # task -> {0, 1}; tasks without a label are absent, so unlabeled is {}


class Vocab:
    """Token-to-index map; index 0 is padding, index 1 unknown."""

    def __init__(self, tokens):
        self.tokens = [PAD_TOKEN, UNK_TOKEN] + list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.tokens)

    def encode(self, tokens, t_x):
        """Ids of the first t_x tokens, unknown ones as UNK_ID, as an unpadded list."""
        index = self.index
        return [index.get(tok, UNK_ID) for tok in tokens[:t_x]]

    def sha256(self):
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()


def build_vocab(examples, min_freq=1):
    """Frequency-thresholded vocabulary, ordered by (-freq, token) so the
    index assignment is deterministic for a given corpus. A `min_freq`
    that is not an integer of at least 1 raises ParameterError."""
    require_counts("min_freq", min_freq=min_freq)
    counts = Counter(itertools.chain.from_iterable(ex.tokens for ex in examples))
    kept = sorted(tok for tok, c in counts.items() if c >= min_freq)
    kept.sort(key=counts.__getitem__, reverse=True)  # stable, so ties stay alphabetical
    return Vocab(kept)


def _line_floats(rest, dim, path, lineno):
    """The `dim` space-separated components of one line, parsed with float()."""
    fields = rest.split(" ")
    if len(fields) != dim:
        raise DataError(
            f"expected {dim} components, found {len(fields)}", path=str(path), line=lineno
        )
    try:
        return [float(c) for c in fields]
    except ValueError as exc:
        raise DataError(f"bad float: {exc}", path=str(path), line=lineno) from None


def _parse_components(rests, linenos, dim, path):
    """Float64 [len(rests) x dim] components of the given lines' text.

    One np.loadtxt call parses them all, and it reads what it accepts
    exactly as float() does. A chunk it rejects, strips differently or
    returns in another shape is parsed again line by line with float(),
    which accepts ``1_0`` or ``１`` as before, or raises DataError for the
    first line with the wrong component count or a bad float.
    """
    text = "".join(rests)
    # loadtxt skips an empty line, and warns when no line is left
    if "" not in rests and not any(c in text for c in _FLOAT_REJECTS):
        try:
            values = np.loadtxt(rests, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(rests), dim):
                return values
    return np.array([_line_floats(rest, dim, path, n) for rest, n in zip(rests, linenos)])


def load_embeddings(path, vocab, dim, seed=0):
    """Load pretrained vectors for `vocab`.

    In-vocabulary tokens found in the file get their file vector and are
    locked; missing tokens get a seeded uniform(-EMBEDDING_INIT_SCALE,
    EMBEDDING_INIT_SCALE) row, as `layers.random_embedding` draws, and stay
    tunable. Row 0 (padding) is zero and locked. The table is float32, so a
    component that is not finite in float32 (nan, inf, or beyond float32's
    range) raises DataError naming it and the line of its row's last vector.

    Line 1 is a ``<count> <dim>`` header when both its fields are integers;
    a header whose dim is not `dim` raises DataError. Lines outside the
    vocabulary are skipped unread. A token on several lines takes the last
    line's vector, but every one of its lines is validated. Components are
    parsed `EMBEDDING_CHUNK` lines at a time with np.loadtxt, with a
    per-line float() fallback, and errors are raised in file order. A
    leading UTF-8 byte-order mark is skipped. A `dim` that is not an
    integer of at least 1 raises ParameterError before the file is opened.
    """
    require_counts("embedding dim", dim=dim)
    v = len(vocab)
    table = np.zeros((v, dim), dtype=MODEL_DTYPE)
    last_line = {}  # table row -> line number of its last vector
    rows, rests, linenos = [], [], []  # the chunk of lines not parsed yet

    def flush():
        values = _parse_components(rests, linenos, dim, path)
        with np.errstate(over="ignore"):  # a component beyond float32's range turns inf here
            table[rows] = values
        rows.clear()
        rests.clear()
        linenos.clear()

    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            token, sep, rest = line.rstrip("\n").partition(" ")
            if lineno == 1 and token.isdecimal() and rest.isdecimal():
                if int(rest) != dim:
                    raise DataError(
                        f"header gives dim {rest}, expected {dim}", path=str(path), line=lineno
                    )
                continue
            row = vocab.index.get(token)
            if row is None or not token or not sep:
                continue
            if rows and last_line.get(row, 0) >= linenos[0]:
                flush()  # numpy leaves the order of repeated writes to one row unspecified
            last_line[row] = lineno
            rows.append(row)
            rests.append(rest)
            linenos.append(lineno)
            if len(rows) >= EMBEDDING_CHUNK:
                flush()
    if rows:
        flush()

    # row 0 stays zero/locked; the reserved <unk> row 1 stays zero but tunable
    table[: UNK_ID + 1] = 0.0
    locked = np.zeros(v, dtype=bool)
    locked[list(last_line)] = True
    locked[: UNK_ID + 1] = False
    matched = int(locked.sum())
    missing = np.flatnonzero(~locked[UNK_ID + 1 :]) + UNK_ID + 1
    # one draw in row order is the same stream as one draw per row
    rng = np.random.default_rng(seed)
    table[missing] = uniform_init(rng, (missing.size, dim), EMBEDDING_INIT_SCALE)
    locked[PAD_ID] = True
    # checked once over the table: a check per line cost a tenth of the parse
    finite = np.isfinite(table)
    if not finite.all():
        row = np.flatnonzero(~finite.all(axis=1))[0]
        lineno = last_line[row]
        with open(path, encoding="utf-8-sig") as fh:
            line = next(itertools.islice(fh, lineno - 1, None))
        vec = np.array(_line_floats(line.rstrip("\n").partition(" ")[2], dim, path, lineno))
        raise DataError(
            f"component {vec[~finite[row]][0]} is not a finite float32", path=str(path), line=lineno
        )
    real_tokens = max(v - 2, 1)
    coverage = matched / real_tokens if v > 2 else 0.0
    return EmbeddingMatrix(table=ad.Var(table), locked=locked, coverage=coverage)


# ---------------------------------------------------------------------------
# corpus I/O


_LABEL_OF_CELL = {"0": 0, "1": 1}
_FIELD_BREAKS = ("\t", "\n", "\r")  # a tab ends a cell; text-mode reading ends a line at \n or \r


def _check_task_names(task_names, path):
    """Raise DataError at the header line for a task name that is empty,
    repeated, or holds a tab or line break."""
    seen = set()
    for column, name in enumerate(task_names, start=3):
        if not name:
            raise DataError(f"empty task name in header column {column}", path=str(path), line=1)
        if name in seen:
            raise DataError(f"duplicate task name {name!r} in header", path=str(path), line=1)
        if any(c in name for c in _FIELD_BREAKS):
            raise DataError(
                f"task name {name!r} holds a tab or line break", path=str(path), line=1
            )
        seen.add(name)


def read_corpus(path):
    """Read a corpus TSV; returns (examples, task_names).

    A leading UTF-8 byte-order mark, blank lines and whitespace-only lines
    are skipped. Examples whose text tokenizes to nothing are dropped
    (count logged). A malformed header, an empty or repeated task name, a
    wrong column count or a label cell other than ``0``, ``1`` or ``-``
    raises DataError naming its line.

    Equal tokens across the file are one `str` object, and so are equal
    event ids, so the examples hold one string per distinct token and not
    one per occurrence.
    """
    examples = []
    dropped = 0
    memo = {}  # piece -> its one token; see _tokenize
    event_ids = {}  # apart from `memo`: the event id "@" is not the token of the piece "@"
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split("\t")
        if len(cols) < 3 or cols[0] != "event_id" or cols[1] != "text":
            raise DataError(
                "header must be 'event_id<TAB>text<TAB><task>...'", path=str(path), line=1
            )
        task_names = cols[2:]
        _check_task_names(task_names, path)
        n_cols = len(cols)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != n_cols:
                raise DataError(
                    f"expected {n_cols} columns, found {len(fields)}",
                    path=str(path),
                    line=lineno,
                )
            labels = {}
            for task, cell in zip(task_names, fields[2:]):
                if cell == ABSENT:
                    continue
                label = _LABEL_OF_CELL.get(cell)
                if label is None:
                    raise DataError(
                        f"label for {task} must be 0, 1 or '-', found {cell!r}",
                        path=str(path),
                        line=lineno,
                    )
                labels[task] = label
            text = fields[1]
            tokens = _tokenize(text, memo)
            if not tokens:
                dropped += 1
                continue
            event_id = event_ids.setdefault(fields[0], fields[0])
            examples.append(Example(event_id, text, tokens, labels))
    if dropped:
        log.info("dropped %d examples with empty tokenization from %s", dropped, path)
    return examples, task_names


def write_corpus(path, examples, task_names):
    """Write `examples` as a corpus TSV that `read_corpus` reads back as the
    same records (an example whose text tokenizes to nothing is still
    dropped on reading).

    Every example is checked before the file is opened: a tab, newline or
    carriage return in an event id, a text or a task name, or an empty or
    repeated task name, raises DataError; a label other than 0 or 1 raises
    LabelError.
    """
    _check_task_names(task_names, path)
    lines = ["event_id\ttext\t" + "\t".join(task_names) + "\n"]
    for i, ex in enumerate(examples):
        event_id = str(ex.event_id)
        for what, value in (("event id", event_id), ("text", ex.text)):
            if any(c in value for c in _FIELD_BREAKS):
                raise DataError(
                    f"example {i}: {what} {value!r} holds a tab or line break", path=str(path)
                )
        cells = []
        for task in task_names:
            if task not in ex.labels:
                cells.append(ABSENT)
                continue
            label = ex.labels[task]
            if label not in (0, 1):
                raise LabelError(f"example {i}: label for {task} must be 0 or 1, found {label!r}")
            cells.append(str(int(label)))
        lines.append(f"{event_id}\t{ex.text}\t" + "\t".join(cells) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


# ---------------------------------------------------------------------------
# splitting


@dataclass
class SplitData:
    target_event: str
    train_labeled: list
    domain_examples: list  # every source example, in corpus order
    domain_index: dict  # source event_id -> its domain label 0..n_domains-1, in sorted order
    test: list

    @property
    def n_domains(self):
        return len(self.domain_index)


def leave_one_out_split(examples, target_event):
    """Hold out `target_event` entirely: its labeled examples become the
    test set; every other event supplies its labeled examples for training
    and all of its examples, labeled or not, to the domain branch. The
    lists hold the given `Example` objects in corpus order, and the source
    events, sorted, are the domains 0..n_domains-1."""
    events = set()
    test, train_labeled, domain_examples = [], [], []
    for ex in examples:
        events.add(ex.event_id)
        if ex.event_id == target_event:
            if ex.labels:
                test.append(ex)
        else:
            domain_examples.append(ex)
            if ex.labels:
                train_labeled.append(ex)
    if target_event not in events:
        raise SplitError(f"unknown event {target_event!r}; corpus has {sorted(events)}")
    source_events = sorted(events - {target_event})
    if not source_events:
        raise SplitError("corpus has a single event; no source domains remain")
    domain_index = {e: i for i, e in enumerate(source_events)}
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
    domain: np.ndarray | None = None  # [N] int, each row's domain index; None without `domains`

    @property
    def size(self):
        return self.ids.shape[0]


def make_batches(examples, vocab, t_x, batch_size=32, rng=None, *, tasks, domains=None):
    """Encode and batch `examples`; shuffled when `rng` is given, with the
    last partial batch kept.

    Each batch carries the labels of `tasks` (none for ``tasks=()``) and,
    when `domains` maps event ids to domain indices (a split's
    `domain_index`), `Batch.domain`: each row's ``domains[ex.event_id]``.
    An event outside `domains` raises ContractError naming it, and a label
    other than 0 or 1 raises LabelError naming the example's position in
    `examples` and the task. A `t_x` or `batch_size` that is not an integer
    of at least 1, or a bare string for `tasks`, raises ParameterError.
    """
    require_counts("t_x and batch size", t_x=t_x, batch_size=batch_size)
    if isinstance(tasks, str):
        raise ParameterError(f"tasks must be a sequence of task names, got {tasks!r}")
    tasks = tuple(tasks)  # read once per batch: a one-shot iterator would label only the first
    order = np.arange(len(examples))
    if rng is not None:
        order = rng.permutation(len(examples))
    batches = []
    for start in range(0, len(examples), batch_size):
        positions = order[start : start + batch_size]
        chunk = [examples[i] for i in positions]
        n = len(chunk)
        ids = np.zeros((n, t_x), dtype=np.int64)
        lengths = np.zeros(n, dtype=np.int64)
        for r, ex in enumerate(chunk):
            row = vocab.encode(ex.tokens, t_x)
            ids[r, : len(row)] = row
            lengths[r] = len(row)
        mask = (np.arange(t_x) < lengths[:, None]).astype(np.float64)
        labels = {}
        for task in tasks:
            # write_corpus's rule: True and 1.0 pass, "1" and NaN do not
            present = [task in ex.labels for ex in chunk]
            cells = [ex.labels.get(task, 0) for ex in chunk]
            for r, cell in enumerate(cells):
                if cell not in (0, 1):
                    raise LabelError(
                        f"example {positions[r]}: label for {task!r} must be 0 or 1, "
                        f"found {cell!r}"
                    )
            labels[task] = (np.array(cells, dtype=np.float64), np.array(present, dtype=np.float64))
        domain = None
        if domains is not None:
            try:
                domain = np.array([domains[ex.event_id] for ex in chunk], dtype=np.int64)
            except KeyError as exc:
                raise ContractError(
                    f"event {exc.args[0]!r} has no domain index; domains are {sorted(domains)}"
                ) from None
        batches.append(Batch(ids=ids, mask=mask, labels=labels, domain=domain))
    return batches
