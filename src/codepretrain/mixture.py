"""Balanced multi-task sampling and control-code prompts.

Task sampling probabilities follow a size-tempered multinomial: with dataset
fractions r_i = n_i / sum(n), tasks are drawn with q_i proportional to
r_i ** alpha.  Exponents below 1 up-weight small datasets; alpha = 1 is
proportional sampling and alpha = 0 is uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bpe import SubwordTokenizer
from .objectives import TrainingInstance

DEFAULT_ALPHA = 0.7


def mixture_probs(sizes: list[int], alpha: float) -> list[float]:
    """Sampling probabilities from dataset sizes, tempered by ``alpha``."""
    if any(n <= 0 for n in sizes):
        raise ValueError(f"all task sizes must be positive, got {sizes}")
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be a finite non-negative number, got {alpha!r}")
    if not sizes:
        raise ValueError("a mixture needs at least one task")
    n = np.asarray(sizes, dtype=np.float64)
    r = n / n.sum()
    w = r**alpha
    return list(w / w.sum())


@dataclass(frozen=True)
class TaskSpec:
    name: str
    size: int
    control_code: str = ""


@dataclass(frozen=True)
class TaskMixture:
    tasks: tuple[TaskSpec, ...]
    alpha: float = DEFAULT_ALPHA
    _probs: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        probs = mixture_probs([t.size for t in self.tasks], self.alpha)
        object.__setattr__(self, "_probs", tuple(probs))

    @property
    def probs(self) -> list[float]:
        return list(self._probs)


def sample_task(mixture: TaskMixture, rng: np.random.Generator) -> str:
    """Draw one task name according to the mixture probabilities."""
    i = rng.choice(len(mixture.tasks), p=np.asarray(mixture._probs))
    return mixture.tasks[int(i)].name


def apply_control_code(
    instance: TrainingInstance, task: TaskSpec, tokenizer: SubwordTokenizer
) -> TrainingInstance:
    """Prepend the task's prompt ids right after [CLS]; the target is untouched."""
    if not task.control_code:
        return instance
    if instance.control_code is not None:
        raise ValueError(f"instance already carries control code {instance.control_code!r}")
    prompt_ids = tokenizer.encode(task.control_code, use_specials=False)
    if not instance.source_ids or instance.source_ids[0] != tokenizer.cls_id:
        raise ValueError("instance source does not start with [CLS]")
    return TrainingInstance(
        source_ids=(instance.source_ids[0], *prompt_ids, *instance.source_ids[1:]),
        target_ids=instance.target_ids,
        objective=instance.objective,
        tag_labels=instance.tag_labels,
        control_code=task.control_code,
    )
