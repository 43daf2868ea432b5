"""Claims about what the model can learn, as paired tests: the model and a
baseline are fitted on the same split at each seed, and each seed must pass
the stated win rule. A claim that fails is recorded, not re-seeded."""

import pytest

from daanet.data import build_vocab, leave_one_out_split
from daanet.models import ModelSpec, build_model
from daanet.synth import synth_order_corpus
from daanet.training import TrainConfig, evaluate, lr_baseline, train


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bilstm_reads_order_that_mean_embeddings_cannot(seed):
    # the label is which of two marker tokens comes first, so the texts of
    # both classes hold the same tokens: mean embeddings carry no signal
    examples, tasks = synth_order_corpus(n_events=3, n_per_event=150, seed=seed)
    split = leave_one_out_split(examples, "event2")
    vocab = build_vocab(split.train_labeled + split.domain_examples)
    spec = ModelSpec(t_x=12, d=16, h=16, task_names=tuple(tasks), dropout_rate=0.1)
    model = build_model(spec, vocab, seed=seed)
    train(model, split, TrainConfig(max_epochs=20, patience=5, learning_rate=5e-3, seed=seed))

    bilstm = evaluate(model, split.test).per_task["order"].accuracy
    baseline = lr_baseline(
        split.train_labeled, split.test, vocab, model.embedding, "order", t_x=spec.t_x
    ).per_task["order"].accuracy
    assert bilstm >= 0.95 and bilstm - baseline >= 0.3, (bilstm, baseline)
