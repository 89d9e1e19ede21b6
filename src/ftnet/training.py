"""Training loop: seeded epochs, MAE on the final stage, Adam, scheduling.

The schedule: learning rate 2e-4, halved after
three consecutive validation-loss increases, early stop after ten increase
events in total, hard cap of 50 epochs. An increase means strictly greater
than the immediately preceding epoch's validation loss.

Every source of randomness derives from (state.rng_state, epoch), so an
interrupted run resumed from a checkpoint walks the identical trajectory.
"""

import math
from dataclasses import dataclass, field
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from .audio import frame_signal
from .errors import ConfigError, DegenerateSignalError, UsageError
from .model import forward_blocks
from .tensor import Tensor, adam_step, mae_loss, mul, no_grad

__all__ = [
    "TrainState",
    "EpochLog",
    "train_epoch",
    "validate",
    "schedule_update",
    "fit",
    "format_log_row",
    "LOG_HEADER",
]

LOG_HEADER = "epoch,train_mae,val_mae,lr,action"
LR = 2e-4  # learning rate a run starts at
BATCH_SIZE = 2  # utterances per minibatch
MAX_EPOCHS = 50  # epochs after which a run stops in any case
HALVE_AFTER = 3  # consecutive validation increases that halve the learning rate
STOP_AFTER = 10  # validation increase events in total that stop the run
# The JSON types a stored train state's scalars may have (checked with type(),
# so a bool is none of them); val_history holds numbers.
_NUMBER = (int, float)
_STATE_TYPES = {"epoch": (int,), "rng_state": (int,), "sample_rate": (int, type(None)), "lr": _NUMBER}


@dataclass
class TrainState:
    """Progress of one training run.

    rng_state is the run's master seed; epoch e draws its shuffle from the
    stream (rng_state, e). epoch counts completed epochs (0-based while
    running). sample_rate is the training audio's rate in Hz, or None
    where it is unknown. The schedule's counts and best_val are derived
    from val_history; to_dict records them and from_dict checks them.
    """

    epoch: int = 0
    lr: float = LR
    val_history: list = field(default_factory=list)
    rng_state: int = 0
    sample_rate: int | None = None

    @property
    def total_increase_events(self):
        return sum(after > before for before, after in pairwise(self.val_history))

    @property
    def consec_increase(self):
        """Increases in a row at the end of val_history, since the last halving."""
        streak = 0
        for before, after in pairwise(self.val_history):
            streak = (streak + 1) % HALVE_AFTER if after > before else 0
        return streak

    @property
    def best_val(self):
        return min(self.val_history, default=math.inf)

    def validate_invariants(self):
        if self.epoch != len(self.val_history):
            raise ConfigError(f"epoch {self.epoch} but {len(self.val_history)} validation losses")
        if not all(map(math.isfinite, self.val_history)):
            raise ConfigError(f"val_history must hold finite losses, got {self.val_history}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must stay positive and finite, got {self.lr}")
        if self.rng_state < 0:
            raise ConfigError(f"rng_state must be >= 0, got {self.rng_state}")
        if self.sample_rate is not None and self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")

    def to_dict(self):
        return {
            "epoch": self.epoch,
            "lr": self.lr,
            "val_history": list(self.val_history),
            "consec_increase": self.consec_increase,
            "total_increase_events": self.total_increase_events,
            "best_val": None if math.isinf(self.best_val) else self.best_val,
            "rng_state": self.rng_state,
            "sample_rate": self.sample_rate,
        }

    @classmethod
    def from_dict(cls, d):
        """Rebuild a state. A value of another JSON type than the field's is not
        coerced but fails, and so do stored counts or a best_val that
        val_history contradicts."""
        for key, kinds in _STATE_TYPES.items():
            if type(d[key]) not in kinds:
                names = " or ".join(kind.__name__ for kind in kinds)
                raise ConfigError(f"{key} {d[key]!r} is not of type {names}")
        history = d["val_history"]
        if type(history) is not list or any(type(v) not in _NUMBER for v in history):
            raise ConfigError(f"val_history {history!r} is not a list of numbers")
        state = cls(epoch=d["epoch"], lr=float(d["lr"]), val_history=[float(v) for v in history],
                    rng_state=d["rng_state"], sample_rate=d["sample_rate"])
        state.validate_invariants()
        implied = state.to_dict()
        wrong = [f"{key} {d[key]} (val_history implies {implied[key]})"
                 for key in ("consec_increase", "total_increase_events", "best_val")
                 if d[key] != implied[key]]
        if wrong:
            raise ConfigError("; ".join(wrong))
        return state


class EpochLog(NamedTuple):
    epoch: int
    train_mae: float
    val_mae: float
    lr: float
    action: str


def format_log_row(row):
    return f"{row.epoch},{row.train_mae:.10g},{row.val_mae:.10g},{row.lr:.10g},{row.action}"


def _stacked_frames(pairs, config):
    """Frame every utterance in the batch and stack along the batch axis: (noisy, clean)."""
    return tuple(
        np.concatenate([frame_signal(clip, config.frame_len, config.hop) for clip in clips])
        for clips in ([p.noisy for p in pairs], [p.clean for p in pairs])
    )


def _block_losses(params, noisy, clean):
    """Final-stage MAE of each ``forward_blocks`` block of the frames.

    Each block's MAE is weighted by its share of the frames, so the block
    losses sum to the MAE over all frames, and so do their gradients.
    """
    for lo, final, _, _ in forward_blocks(params, noisy):
        n = len(final.data)
        yield mul(mae_loss(final, Tensor(clean[lo : lo + n])), Tensor(n / len(noisy)))


def _require_finite(value, what):
    if not math.isfinite(value):
        raise DegenerateSignalError(f"{what} is not finite ({value})")
    return value


def train_epoch(params, state, train_pairs, *, batch_size=BATCH_SIZE):
    """One pass over the pairs in seeded shuffled minibatches; returns mean MAE.

    Each minibatch frames its utterances, runs the configured number of
    stages, takes MAE against the clean frames on the final output only,
    and applies one Adam step at the state's current learning rate. The
    frames run in ``forward_blocks`` blocks, each backpropagated before the
    next is formed, so memory is bounded by one block's graph. A
    non-finite block loss raises DegenerateSignalError before its backward
    pass, after clearing the gradients of the blocks before it, so no
    weight, gradient or Adam moment sees it.
    """
    pairs = list(train_pairs)
    if not pairs:
        raise UsageError("train_epoch needs a non-empty dataset")
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng((state.rng_state, state.epoch))
    order = rng.permutation(len(pairs))
    losses = []
    for lo in range(0, len(order), batch_size):
        batch = [pairs[i] for i in order[lo : lo + batch_size]]
        total = 0.0
        for loss in _block_losses(params, *_stacked_frames(batch, params.config)):
            try:
                total += _require_finite(loss.item(), "minibatch training loss")
            except DegenerateSignalError:
                params.zero_grad()
                raise
            loss.backward()
        losses.append(total)
        adam_step(params.values(), lr=state.lr)
    return float(np.mean(losses))


def validate(params, val_pairs):
    """Mean of per-utterance MAEs, computed without touching any parameter.

    Each utterance runs in ``forward_blocks`` blocks. A non-finite mean
    raises DegenerateSignalError.
    """
    pairs = list(val_pairs)
    if not pairs:
        raise UsageError("validate needs a non-empty dataset")
    losses = []
    with no_grad():
        for pair in pairs:
            blocks = _block_losses(params, *_stacked_frames([pair], params.config))
            losses.append(sum(loss.item() for loss in blocks))
    return _require_finite(float(np.mean(losses)), "validation loss")


def _stopped(state, max_epochs):
    """The stop rule: STOP_AFTER increase events in total, or max_epochs epochs."""
    return state.total_increase_events >= STOP_AFTER or state.epoch >= max_epochs


def schedule_update(state, new_val_loss, *, max_epochs=MAX_EPOCHS):
    """Record an epoch's validation loss; returns continue | halve_lr | stop.

    An increase event is new_val_loss strictly above the previous epoch's.
    HALVE_AFTER consecutive events halve the learning rate and reset the
    streak; STOP_AFTER cumulative events, or reaching max_epochs, stop the
    run (stop wins over halve when both fire). A non-finite loss raises
    DegenerateSignalError before the state changes.
    """
    _require_finite(new_val_loss, "validation loss")
    previous = state.val_history[-1] if state.val_history else math.inf
    state.val_history.append(float(new_val_loss))
    state.epoch += 1
    action = "continue"
    if new_val_loss > previous and state.consec_increase == 0:  # this increase completed a streak
        state.lr *= 0.5
        action = "halve_lr"
    if _stopped(state, max_epochs):
        action = "stop"
    return action


def fit(params, state, train_pairs, val_pairs, *, max_epochs=MAX_EPOCHS, batch_size=BATCH_SIZE,
        log_fn=None):
    """Run epochs until the schedule stops; returns (state, epoch log rows).

    log_fn(row) runs after every epoch, once params and state hold that
    epoch's result. Saving a checkpoint there, as ``ftnet train`` does,
    lets the run be killed and resumed without changing a single bit of
    the trajectory. A state the schedule has already stopped runs no epoch.
    """
    train_pairs = list(train_pairs)
    val_pairs = list(val_pairs)
    rows = []
    while not _stopped(state, max_epochs):
        train_mae = train_epoch(params, state, train_pairs, batch_size=batch_size)
        val_mae = validate(params, val_pairs)
        lr_used = state.lr
        action = schedule_update(state, val_mae, max_epochs=max_epochs)
        row = EpochLog(state.epoch, train_mae, val_mae, lr_used, action)
        rows.append(row)
        if log_fn is not None:
            log_fn(row)
        if action == "stop":
            break
    return state, rows
