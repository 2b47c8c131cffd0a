"""Span masking vs identifier masking: do the two sentinel tasks interfere?

Pre-trains one model on span masking only and one on both mask tasks, then
scores each on held-out instances of both tasks.  The single-task model
produces the wrong number of sentinel predictions when asked to do the task
it never saw; joint training fixes that.  Takes a few minutes on one core.
"""

import numpy as np

from codepretrain import (
    ModelConfig,
    Seq2SeqModel,
    TrainSchedule,
    build_mip,
    build_msp,
    evaluate_mask_instances,
    pretrain,
    sample_spans,
    train_tokenizer,
)
from codepretrain.lexer import load_lexers
from codepretrain.objectives import document_rng
from codepretrain.synth import random_document


def main():
    lexers = load_lexers()
    rng = np.random.default_rng(9)
    docs = [random_document(rng, lexers, "mini") for _ in range(120)]
    train_docs, eval_docs = docs[:100], docs[100:]

    tokenizer = train_tokenizer(
        [" ".join(d.code_tokens) for d in docs], vocab_size=800, min_freq=2
    )

    def span_instances(ds, seed):
        out = []
        for i, d in enumerate(ds):
            words = len(d.nl_tokens) + len(d.code_tokens)
            out.append(build_msp(d, tokenizer, sample_spans(words, 0.15, document_rng(seed, i))))
        return out

    def ident_instances(ds):
        return [build_mip(d, tokenizer) for d in ds if any(d.identifier_labels)]

    config = ModelConfig(vocab_size=tokenizer.vocab_size, d_model=64, num_heads=4,
                         encoder_layers=2, decoder_layers=2, feedforward_dim=128,
                         max_src_len=160, max_tgt_len=64)
    schedule = TrainSchedule(steps=400, batch_size=8, peak_lr=1e-3, seed=0)

    span_only = Seq2SeqModel(config, seed=2)
    pretrain(span_only, span_instances(train_docs, 3), schedule)
    joint = Seq2SeqModel(config, seed=2)
    pretrain(joint, span_instances(train_docs, 3) + ident_instances(train_docs), schedule)

    msp_eval = span_instances(eval_docs, 4)
    mip_eval = ident_instances(eval_docs)
    print(f"{'model':<12} {'span acc':>9} {'span #Pred-M':>13} {'ident acc':>10} {'ident #Pred-M':>14}")
    for name, model in (("span-only", span_only), ("joint", joint)):
        span_scores = evaluate_mask_instances(model, msp_eval, tokenizer)
        ident_scores = evaluate_mask_instances(model, mip_eval, tokenizer)
        print(
            f"{name:<12} {span_scores['accuracy']:>9.2f} {span_scores['pred_count_match']:>13.2f} "
            f"{ident_scores['accuracy']:>10.2f} {ident_scores['pred_count_match']:>14.2f}"
        )
    print("\ntraining on one mask task alone biases the model toward that task's")
    print("sentinel layout; the joint model keeps the prediction counts right on both.")


if __name__ == "__main__":
    main()
