"""Shared fixtures.

Heavy artifacts (tokenizers, trained models) are session-scoped so the
acceptance suite and unit tests share one build.
"""

from __future__ import annotations

import numpy as np
import pytest

from codepretrain import bpe, corpus, synth
from codepretrain import lexer as lx
from codepretrain import objectives as obj
from codepretrain import training as tr
from codepretrain.model import ModelConfig, Seq2SeqModel


@pytest.fixture(scope="session")
def lexers():
    return lx.load_lexers()


@pytest.fixture(scope="session")
def mini_lexer(lexers):
    return lexers["mini"]


@pytest.fixture(scope="session")
def bundled_records():
    return list(corpus.ingest(corpus.bundled_corpus_path()))


@pytest.fixture(scope="session")
def bundled_docs(bundled_records, lexers):
    return list(corpus.normalize_corpus(bundled_records, lexers))


@pytest.fixture(scope="session")
def tokenizer(bundled_records):
    """Pipeline tokenizer trained on both code and docstrings."""
    texts = [r.code for r in bundled_records]
    texts += [r.docstring for r in bundled_records if r.docstring]
    return bpe.train(texts, vocab_size=800, min_freq=2)


@pytest.fixture(scope="session")
def code_tokenizer(bundled_records):
    return bpe.train([r.code for r in bundled_records], vocab_size=1000, min_freq=2)


@pytest.fixture(scope="session")
def nl_tokenizer(bundled_records):
    return bpe.train(
        [r.docstring for r in bundled_records if r.docstring], vocab_size=1000, min_freq=2
    )


@pytest.fixture
def astype_copies(monkeypatch) -> list[Seq2SeqModel]:
    """The copies ``Seq2SeqModel.astype`` makes while the test runs."""
    copies = []
    astype = Seq2SeqModel.astype

    def spy_astype(self, dtype):
        out = astype(self, dtype)
        if out is not self:
            copies.append(out)
        return out

    monkeypatch.setattr(Seq2SeqModel, "astype", spy_astype)
    return copies


@pytest.fixture(scope="session")
def tiny_config(tokenizer):
    return ModelConfig(
        vocab_size=tokenizer.vocab_size,
        d_model=32,
        num_heads=2,
        encoder_layers=1,
        decoder_layers=1,
        feedforward_dim=64,
        max_src_len=160,
        max_tgt_len=64,
    )


@pytest.fixture(scope="session")
def small_config(tokenizer):
    return ModelConfig(
        vocab_size=tokenizer.vocab_size,
        d_model=64,
        num_heads=4,
        encoder_layers=2,
        decoder_layers=2,
        feedforward_dim=128,
        max_src_len=160,
        max_tgt_len=64,
    )


@pytest.fixture(scope="session")
def mask_protocol(tokenizer, lexers, small_config):
    """Two pre-trained toy models (span-only vs span+identifier) plus held-out
    evaluation instances for both mask tasks, for the interaction protocol
    acceptance test."""
    rng = np.random.default_rng(9)
    docs = [synth.random_document(rng, lexers, "mini") for _ in range(120)]
    train_docs, eval_docs = docs[:100], docs[100:]

    def span_pool(ds, seed):
        out = []
        for i, d in enumerate(ds):
            words = len(d.nl_tokens) + len(d.code_tokens)
            plan = obj.sample_spans(words, 0.15, obj.document_rng(seed, i))
            out.append(obj.build_msp(d, tokenizer, plan))
        return out

    def ident_pool(ds):
        return [obj.build_mip(d, tokenizer) for d in ds if any(d.identifier_labels)]

    msp_train = span_pool(train_docs, 3)
    mip_train = ident_pool(train_docs)
    msp_eval = span_pool(eval_docs, 4)
    mip_eval = ident_pool(eval_docs)

    schedule = tr.TrainSchedule(steps=400, batch_size=8, peak_lr=1e-3, seed=0)
    msp_only = Seq2SeqModel(small_config, seed=2)
    tr.pretrain(msp_only, msp_train, schedule)
    joint = Seq2SeqModel(small_config, seed=2)
    tr.pretrain(joint, msp_train + mip_train, schedule)
    return {
        "msp_only": msp_only,
        "joint": joint,
        "msp_eval": msp_eval,
        "mip_eval": mip_eval,
    }
