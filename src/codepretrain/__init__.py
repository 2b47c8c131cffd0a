"""Identifier-aware denoising pre-training pipeline for source code, desk scale.

The package covers the full path from raw code corpora to a trained
encoder-decoder model: rule-table lexing with binary identifier labels,
byte-level BPE with reserved sentinel tokens, builders for the span-mask /
identifier-tag / identifier-mask / dual-generation objectives, balanced
multi-task sampling, a numpy transformer with verified gradients, and the
evaluation metrics used by the task suite.
"""

from .bpe import SubwordTokenizer, compression_ratio, default_specials, train as train_tokenizer
from .corpus import (
    CodeDocument,
    CorpusStats,
    RawRecord,
    compute_stats,
    ingest,
    normalize,
    normalize_corpus,
)
from .lexer import LanguageLexer, LexToken, label_identifiers, lex, load_lexers
from .metrics import EvalReport, accuracy, exact_match, f1_binary, pred_count_match, smoothed_bleu4
from .mixture import TaskMixture, TaskSpec, apply_control_code, mixture_probs, sample_task
from .model import ModelConfig, Seq2SeqModel, forward_lm
from .objectives import (
    SpanPlan,
    TrainingInstance,
    build_denoising_instances,
    build_dual_instances,
    build_dual_pair,
    build_it,
    build_mip,
    build_msp,
    pick_denoising_task,
    sample_spans,
)
from .training import (
    TrainSchedule,
    evaluate_mask_instances,
    finetune,
    generate,
    grad_check,
    pretrain,
)

__version__ = "0.1.0"

__all__ = [
    "CodeDocument",
    "CorpusStats",
    "EvalReport",
    "LanguageLexer",
    "LexToken",
    "ModelConfig",
    "RawRecord",
    "Seq2SeqModel",
    "SpanPlan",
    "SubwordTokenizer",
    "TaskMixture",
    "TaskSpec",
    "TrainSchedule",
    "TrainingInstance",
    "accuracy",
    "apply_control_code",
    "build_denoising_instances",
    "build_dual_instances",
    "build_dual_pair",
    "build_it",
    "build_mip",
    "build_msp",
    "compression_ratio",
    "compute_stats",
    "default_specials",
    "evaluate_mask_instances",
    "exact_match",
    "f1_binary",
    "finetune",
    "forward_lm",
    "generate",
    "grad_check",
    "ingest",
    "label_identifiers",
    "lex",
    "load_lexers",
    "mixture_probs",
    "normalize",
    "normalize_corpus",
    "pick_denoising_task",
    "pred_count_match",
    "pretrain",
    "sample_spans",
    "sample_task",
    "smoothed_bleu4",
    "train_tokenizer",
]
