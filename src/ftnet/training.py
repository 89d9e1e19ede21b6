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
from typing import NamedTuple

import numpy as np

from .audio import frame_signal
from .errors import ConfigError, DegenerateSignalError, UsageError
from .model import multistage_forward
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


@dataclass
class TrainState:
    """Progress of one training run.

    rng_state is the run's master seed; epoch e draws its shuffle from the
    stream (rng_state, e). epoch counts completed epochs (0-based while
    running). sample_rate is the training audio's rate in Hz, or None
    where it is unknown.
    """

    epoch: int = 0
    lr: float = LR
    val_history: list = field(default_factory=list)
    consec_increase: int = 0
    total_increase_events: int = 0
    best_val: float = math.inf
    rng_state: int = 0
    sample_rate: int | None = None

    def validate_invariants(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must stay positive, got {self.lr}")
        if self.consec_increase > self.total_increase_events:
            raise ConfigError("consecutive increases exceed total increase events")
        if self.val_history and self.best_val != min(self.val_history):
            raise ConfigError("best_val out of sync with val_history")
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
        state = cls(
            epoch=int(d["epoch"]),
            lr=float(d["lr"]),
            val_history=[float(v) for v in d["val_history"]],
            consec_increase=int(d["consec_increase"]),
            total_increase_events=int(d["total_increase_events"]),
            best_val=math.inf if d["best_val"] is None else float(d["best_val"]),
            rng_state=int(d["rng_state"]),
            sample_rate=None if d["sample_rate"] is None else int(d["sample_rate"]),
        )
        state.validate_invariants()
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
    """Frame every utterance in the batch and stack along the batch axis."""
    noisy = np.concatenate(
        [frame_signal(p.noisy, config.frame_len, config.hop).frames for p in pairs]
    )
    clean = np.concatenate(
        [frame_signal(p.clean, config.frame_len, config.hop).frames for p in pairs]
    )
    return noisy, clean


def _block_losses(params, noisy, clean):
    """Final-stage MAE of each ``block_frames`` block of the frames.

    Each block's MAE is weighted by its share of the frames, so the block
    losses sum to the MAE over all frames, and so do their gradients.
    """
    n = len(noisy)
    size = params.config.block_frames
    for lo in range(0, n, size):
        final, _, _ = multistage_forward(params, Tensor(noisy[lo : lo + size]))
        share = Tensor(len(final.data) / n)
        yield mul(mae_loss(final, Tensor(clean[lo : lo + size])), share)


def _require_finite(value, what):
    if not math.isfinite(value):
        raise DegenerateSignalError(f"{what} is not finite ({value})")
    return value


def train_epoch(params, state, train_pairs, *, batch_size=BATCH_SIZE):
    """One pass over the pairs in seeded shuffled minibatches; returns mean MAE.

    Each minibatch frames its utterances, runs the configured number of
    stages, takes MAE against the clean frames on the final output only,
    and applies one Adam step at the state's current learning rate. The
    frames run in ``block_frames`` blocks, each backpropagated before the
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

    Each utterance runs in ``block_frames`` blocks. A non-finite mean
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


def schedule_update(state, new_val_loss, *, max_epochs=MAX_EPOCHS):
    """Record an epoch's validation loss; returns continue | halve_lr | stop.

    An increase event is new_val_loss strictly above the previous epoch's.
    HALVE_AFTER consecutive events halve the learning rate and reset the
    streak; STOP_AFTER cumulative events, or reaching max_epochs, stop the
    run (stop wins over halve when both fire). A non-finite loss raises
    DegenerateSignalError before the state changes.
    """
    _require_finite(new_val_loss, "validation loss")
    previous = state.val_history[-1] if state.val_history else None
    if previous is not None and new_val_loss > previous:
        state.consec_increase += 1
        state.total_increase_events += 1
    else:
        state.consec_increase = 0
    state.val_history.append(float(new_val_loss))
    state.best_val = min(state.best_val, float(new_val_loss))
    action = "continue"
    if state.consec_increase >= HALVE_AFTER:
        state.lr *= 0.5
        state.consec_increase = 0
        action = "halve_lr"
    if state.total_increase_events >= STOP_AFTER:
        action = "stop"
    state.epoch += 1
    if state.epoch >= max_epochs:
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
    while state.epoch < max_epochs and state.total_increase_events < STOP_AFTER:
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
