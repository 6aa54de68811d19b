"""BCE loss, Adam, plateau scheduling, early stopping, and the epoch loop."""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid, DivergedLoss, EmptySplit, NonFiniteTensor, ShapeMismatch
from .pipeline import decide

IMPROVE_EPS = 1e-4  # absolute val-loss improvement that resets patience counters


@dataclass
class TrainConfig:
    seed: int
    learning_rate: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 50
    early_stop_patience: int = 5
    lr_plateau_patience: int = 3
    lr_factor: float = 0.5
    min_lr: float = 1e-6

    def validate(self):
        if self.learning_rate <= 0 or self.min_lr <= 0:
            raise ConfigInvalid("learning rates must be positive")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigInvalid("batch_size and max_epochs must be >= 1")
        if self.early_stop_patience < 1 or self.lr_plateau_patience < 1:
            raise ConfigInvalid("patience values must be >= 1")
        if not 0.0 < self.lr_factor < 1.0:
            raise ConfigInvalid(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        return self


def bce_loss(p, y):
    """Elementwise binary cross-entropy and dL/dp, with p clamped into [1e-7, 1-1e-7].

    Computed in float64; a scalar p gives scalars, an array of
    probabilities one loss and one gradient per element.
    """
    pc = np.clip(np.asarray(p, dtype=np.float64), 1e-7, 1.0 - 1e-7)
    y = np.asarray(y, dtype=np.float64)
    loss = -(y * np.log(pc) + (1 - y) * np.log(1.0 - pc))
    grad = -(y / pc - (1 - y) / (1.0 - pc))
    return loss, grad


class AdamState:
    """First/second moment estimates with bias correction.

    Every step runs in place: the moments and one scratch buffer per
    parameter are allocated on the first step and reused after it.
    """

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {}
        self.v = {}
        self.scratch = {}

    def step(self, named_params, lr):
        """named_params: (key, layer, param-name) triples; updates in place."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for key, layer, name in named_params:
            p = layer.params[name]
            g = layer.grads[name]
            if g.shape != p.shape:
                raise ShapeMismatch(f"{key}: grad shape {g.shape} != param shape {p.shape}")
            if key not in self.m:
                self.m[key] = np.zeros_like(p)
                self.v[key] = np.zeros_like(p)
                self.scratch[key] = np.empty_like(p)
            m, v, s = self.m[key], self.v[key], self.scratch[key]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, g, out=s)
            s *= 1.0 - self.beta2
            v += s
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, s, out=s)
            s *= lr / bc1
            p -= s


def lr_on_plateau(val_losses, config):
    """Current lr after replaying the plateau policy over the loss history.

    The lr halves (by lr_factor) each time the validation loss fails to
    improve by IMPROVE_EPS for lr_plateau_patience consecutive epochs,
    never dropping below min_lr.
    """
    lr = config.learning_rate
    best = np.inf
    bad = 0
    for loss in val_losses:
        if best - loss >= IMPROVE_EPS:
            best = loss
            bad = 0
        else:
            bad += 1
            if bad >= config.lr_plateau_patience:
                lr = max(lr * config.lr_factor, config.min_lr)
                bad = 0
    return lr


@dataclass
class EarlyStopState:
    best_val_loss: float = np.inf
    epochs_since_improve: int = 0
    snapshot: dict | None = None


def early_stop_update(state, val_loss, patience, model=None):
    """Returns "continue" or "stop"; on stop the best snapshot is restored.

    best_val_loss/snapshot track the minimum observed loss; the patience
    counter only resets on improvements of at least IMPROVE_EPS so float
    noise cannot keep a stalled run alive.
    """
    improvement = state.best_val_loss - val_loss
    if val_loss < state.best_val_loss:
        state.best_val_loss = val_loss
        if model is not None:
            state.snapshot = model.state_dict()
    if improvement >= IMPROVE_EPS:
        state.epochs_since_improve = 0
        return "continue"
    state.epochs_since_improve += 1
    if state.epochs_since_improve >= patience:
        if model is not None and state.snapshot is not None:
            model.load_state_dict(state.snapshot)
        return "stop"
    return "continue"


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    lr: float
    seconds_per_epoch: float


@dataclass
class TrainResult:
    model: object
    epochs: list
    seconds_per_epoch: float
    stopped_early: bool


@dataclass
class Dataset:
    """In-memory (input tensor, label) pairs per split."""
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)


def _passes(model, rows, batch_size):
    """Split ``rows`` into the chunks one forward pass takes."""
    step = model.rows_per_pass(batch_size)
    return [rows[i:i + step] for i in range(0, len(rows), step)]


def predict(model, inputs, batch_size):
    """(N,) eval-mode probabilities of a list of N encoded inputs."""
    return np.concatenate([model.forward(np.stack([inputs[i] for i in rows]))
                           for rows in _passes(model, range(len(inputs)), batch_size)])


def _evaluate(model, samples, batch_size):
    p = predict(model, [x for x, _ in samples], batch_size)
    y = np.array([y for _, y in samples])
    hits = int(np.sum(decide(p, model.spec.decision_threshold) == y))
    return float(np.mean(bce_loss(p, y)[0])), hits / len(samples)


def train_loop(model, dataset, config):
    """Seeded epoch loop: shuffle, mini-batch Adam/BCE, scheduler, early stop.

    The samples are encoded inputs (``Model.encode``): the caller runs the
    frozen prefix once per sample (the extract-once protocol), so every
    epoch runs only the part of the network that training changes, one
    forward, BCE and backward per mini-batch. A model with a trainable
    backbone accumulates each mini-batch one image at a time
    (``Model.rows_per_pass``); either way one Adam step follows each
    mini-batch.
    """
    config.validate()
    if not dataset.train:
        raise EmptySplit("train split is empty")
    if not dataset.val:
        raise EmptySplit("val split is empty")

    rng = np.random.default_rng(config.seed)
    adam = AdamState()
    stopper = EarlyStopState()
    val_history = []
    logs = []
    params = model.parameters(trainable_only=True)
    stopped = False

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        lr = lr_on_plateau(val_history, config)
        order = rng.permutation(len(dataset.train))
        losses = []
        hits = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            model.zero_grad()
            try:
                for rows in _passes(model, batch, config.batch_size):
                    x = np.stack([dataset.train[i][0] for i in rows])
                    y = np.array([dataset.train[i][1] for i in rows])
                    p = model.forward(x, train=True)
                    loss, dldp = bce_loss(p, y)
                    losses.append(loss)
                    hits += int(np.sum(decide(p, model.spec.decision_threshold) == y))
                    model.backward(dldp / len(batch))
            except NonFiniteTensor as e:
                raise DivergedLoss(f"epoch {epoch}: {e}") from e
            adam.step(params, lr)
        train_loss = float(np.mean(np.concatenate(losses)))
        train_acc = hits / len(dataset.train)
        val_loss, val_acc = _evaluate(model, dataset.val, config.batch_size)
        if not np.isfinite(train_loss) or not np.isfinite(val_loss):
            raise DivergedLoss(f"non-finite loss at epoch {epoch}")
        seconds = time.perf_counter() - t0
        logs.append(EpochLog(epoch, train_loss, train_acc, val_loss, val_acc, lr, seconds))
        val_history.append(val_loss)
        if early_stop_update(stopper, val_loss, config.early_stop_patience, model) == "stop":
            stopped = True
            break

    if not stopped and stopper.snapshot is not None:
        model.load_state_dict(stopper.snapshot)

    seconds_per_epoch = float(np.mean([log.seconds_per_epoch for log in logs]))
    return TrainResult(model=model, epochs=logs, seconds_per_epoch=seconds_per_epoch,
                       stopped_early=stopped)


EPOCH_CSV_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc,lr,seconds_per_epoch"


def write_epoch_csv(logs, path):
    lines = [EPOCH_CSV_HEADER]
    for log in logs:
        lines.append(",".join([
            str(log.epoch),
            repr(log.train_loss),
            repr(log.train_acc),
            repr(log.val_loss),
            repr(log.val_acc),
            repr(log.lr),
            repr(log.seconds_per_epoch),
        ]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
