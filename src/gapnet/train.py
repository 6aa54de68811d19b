"""BCE loss, Adam, plateau scheduling, early stopping, and the epoch loop."""

import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .backbone import write_atomic
from .errors import GapnetError, require_counts, require_numbers
from .pipeline import decide, sigmoid

IMPROVE_EPS = 1e-4  # absolute val-loss improvement that resets patience counters
ADAM_BLOCK = 1 << 16  # elements per pass of AdamState.step; see its docstring


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
        require_counts(batch_size=self.batch_size, max_epochs=self.max_epochs,
                       early_stop_patience=self.early_stop_patience,
                       lr_plateau_patience=self.lr_plateau_patience)
        require_numbers(learning_rate=self.learning_rate, lr_factor=self.lr_factor,
                        min_lr=self.min_lr)
        if not all(0 < lr < np.inf for lr in (self.learning_rate, self.min_lr)):  # NaN fails
            raise GapnetError(f"learning rates must be positive and finite, got learning_rate "
                              f"{self.learning_rate!r}, min_lr {self.min_lr!r}")
        if not 0.0 < self.lr_factor < 1.0:
            raise GapnetError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.min_lr > self.learning_rate:  # a plateau would raise the lr to min_lr
            raise GapnetError(f"min_lr {self.min_lr!r} exceeds learning_rate "
                              f"{self.learning_rate!r}")
        return self


def bce_loss(z, y):
    """Elementwise binary cross-entropy of logits z against labels y, and dL/dz.

    In float64 with no clamp: softplus form for the loss, sigmoid(z) - y for
    dL/dz, whose entries below float32's smallest normal number are flushed
    to 0 so that a saturated head sends no subnormals into the backward pass.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    e = np.exp(-np.abs(z))  # in (0, 1], so nothing here overflows
    small, large = e / (1.0 + e), 1.0 / (1.0 + e)  # sigmoid(-|z|), sigmoid(|z|)
    pos = z >= 0
    loss = np.maximum(z, 0.0) - y * z + np.log1p(e)
    # sigmoid(z) - y, taking 1 - sigmoid(z) as sigmoid(-z) so that no digits cancel
    grad = (1 - y) * np.where(pos, large, small) - y * np.where(pos, small, large)
    return loss, np.where(np.abs(grad) < np.finfo(np.float32).tiny, 0.0, grad)


class AdamState:
    """First/second moment estimates with bias correction, over one flat vector.

    ``step`` updates the trainable suffix of ``Model.flat_params`` in place
    from the same suffix of ``Model.flat_grads``, so the layers see the new
    values through their views. It walks the vectors in blocks of
    ``ADAM_BLOCK`` elements, with one block of scratch, running the same
    ufuncs in the same order on every element as whole-vector passes would,
    so the update is the same to the bit. A block's five float32 streams (p,
    g, m, v, scratch) of 256 KiB each stay in a 2 MiB L2 across its thirteen
    passes: on the paper's 1.21M-parameter head a step takes 3.6-3.7 ms on
    one core, against 5.3-5.6 ms whole-vector or per tensor; blocks of 4096
    (per-call overhead) and 262144 (out of L2) are slower (README).
    """

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = self.v = self.scratch = None

    def step(self, params, grads, lr):
        """One update of the flat vector ``params`` from ``grads``, in place."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
            self.scratch = np.empty(min(ADAM_BLOCK, params.size), params.dtype)
        for lo in range(0, params.size, ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            p, g, m, v = params[block], grads[block], self.m[block], self.v[block]
            s = self.scratch[:p.size]
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
    snapshot: np.ndarray | None = None  # a copy of Model.flat_params


def early_stop_update(state, val_loss, patience, model=None):
    """Returns "continue" or "stop"; restoring the snapshot is the caller's.

    best_val_loss/snapshot track the minimum observed loss; the patience
    counter only resets on improvements of at least IMPROVE_EPS so float
    noise cannot keep a stalled run alive.
    """
    improvement = state.best_val_loss - val_loss
    if val_loss < state.best_val_loss:
        state.best_val_loss = val_loss
        if model is not None and state.snapshot is None:
            state.snapshot = model.flat_params.copy()
        elif model is not None:  # later improvements reuse the first one's array
            np.copyto(state.snapshot, model.flat_params)
    if improvement >= IMPROVE_EPS:
        state.epochs_since_improve = 0
        return "continue"
    state.epochs_since_improve += 1
    return "stop" if state.epochs_since_improve >= patience else "continue"


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    lr: float
    seconds_per_epoch: float


def passes(model, rows, batch_size):
    """Split ``rows`` into the chunks one forward/backward pass takes: one image
    at a time for a trainable backbone, so that memory holds one image and
    its conv activations (``cli.build_dataset``'s rows re-read the image at
    each pass), else whole batches of cached GAP vectors. Only a model built
    to train has a trainable backbone (``Model._build``), so a loaded
    checkpoint always scores whole batches."""
    step = batch_size if model.frozen.layers else 1
    return [rows[i:i + step] for i in range(0, len(rows), step)]


def _fetch(rows):
    """The batch one pass takes from its ``rows``: each an encoded input, or a
    callable that reads one (a trainable backbone's image). One row is its
    array reshaped, a view with the strides ``np.stack`` would give, not a copy."""
    xs = [x() if callable(x) else x for x in rows]
    return xs[0].reshape((1,) + xs[0].shape) if len(xs) == 1 else np.stack(xs)


def predict(model, inputs, batch_size):
    """(N,) eval-mode logits of a list of N rows (``_fetch``)."""
    return np.concatenate([model.forward(_fetch([inputs[i] for i in rows]))
                           for rows in passes(model, range(len(inputs)), batch_size)])


def _evaluate(model, samples, batch_size):
    z = predict(model, [x for x, _ in samples], batch_size)
    y = np.array([y for _, y in samples])
    hits = int(np.sum(decide(sigmoid(z), model.spec.decision_threshold) == y))
    return float(np.mean(bce_loss(z, y)[0])), hits / len(samples)


def train_loop(model, train, val, config):
    """Seeded epoch loop: shuffle, mini-batch Adam/BCE, scheduler, early stop.

    ``train`` and ``val`` are lists of (row, label) pairs; the result is
    one ``EpochLog`` per epoch run. A row is an encoded input
    (``Model.encode``) or a callable returning one, called at each pass
    that uses it (``_fetch``): ``cli.build_dataset``'s rows for a trainable
    backbone re-read the image. With a frozen prefix the caller has run it
    once per sample (the extract-once protocol), so every epoch runs only
    the part of the network that training changes, one forward, BCE and
    backward per mini-batch. A model with a trainable backbone runs each
    mini-batch, and the val pass, one image at a time (``passes``), and
    the loop sums the passes' gradients in one buffer of the trainable
    size: the first pass's are copied into it and each later pass's added.
    Either way one Adam step follows each mini-batch; a frozen model's
    reads the trainable suffix of ``flat_grads`` itself. An error raised in
    a pass, a bad or missing input's included, names its epoch.
    """
    config.validate()
    if not train:
        raise GapnetError("train split is empty")
    if not val:
        raise GapnetError("val split is empty")

    rng = np.random.default_rng(config.seed)
    adam = AdamState()
    stopper = EarlyStopState()
    val_history = []
    logs = []
    params, grads = model.flat_params[model.n_frozen:], model.flat_grads[model.n_frozen:]
    # Adam steps from the store's trainable suffix, or, when each image is a pass of its
    # own, from a buffer that sums the mini-batch's passes
    summed = grads if model.frozen.layers else np.empty_like(grads)

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        lr = lr_on_plateau(val_history, config)
        order = rng.permutation(len(train))
        losses = []
        hits = 0
        try:
            for start in range(0, len(order), config.batch_size):
                batch = order[start:start + config.batch_size]
                for k, rows in enumerate(passes(model, batch, config.batch_size)):
                    x = _fetch([train[i][0] for i in rows])
                    y = np.array([train[i][1] for i in rows])
                    z = model.forward(x, train=True)
                    loss, dldz = bce_loss(z, y)
                    losses.append(loss)
                    hits += int(np.sum(decide(sigmoid(z), model.spec.decision_threshold) == y))
                    model.backward(dldz / len(batch))
                    if summed is not grads:
                        if k:
                            summed += grads
                        else:
                            np.copyto(summed, grads)
                adam.step(params, summed, lr)
            val_loss, val_acc = _evaluate(model, val, config.batch_size)
        except GapnetError as e:
            raise GapnetError(f"epoch {epoch}: {e}") from e
        except FileNotFoundError as e:  # an input removed since it was first read
            raise FileNotFoundError(f"epoch {epoch}: {e}") from e
        train_loss = float(np.mean(np.concatenate(losses)))
        train_acc = hits / len(train)
        if not np.isfinite(train_loss) or not np.isfinite(val_loss):
            raise GapnetError(f"non-finite loss at epoch {epoch}")
        seconds = time.perf_counter() - t0
        logs.append(EpochLog(epoch, train_loss, train_acc, val_loss, val_acc, lr, seconds))
        val_history.append(val_loss)
        if early_stop_update(stopper, val_loss, config.early_stop_patience, model) == "stop":
            break

    if stopper.snapshot is not None:  # however the loop ended, keep the best epoch's weights
        model.flat_params[...] = stopper.snapshot
    return logs


def write_epoch_csv(logs, path):
    """One header line of ``EpochLog``'s field names, then one line of each
    log's fields, each as its ``repr`` (which reads back as the same float)."""
    lines = [",".join(f.name for f in fields(EpochLog))]
    lines += [",".join(map(repr, astuple(log))) for log in logs]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def mean_seconds_per_epoch(path):
    """The mean of the last column, seconds_per_epoch, of an epoch log
    ``write_epoch_csv`` wrote."""
    width = len(fields(EpochLog))
    try:
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        seconds = [float(row[-1]) for row in rows if len(row) == width]
    except ValueError as e:  # a field that is not a number, or not UTF-8
        raise GapnetError(f"{path}: not an epoch log: {e}") from e
    if not rows or len(seconds) < len(rows) or not np.all(np.isfinite(seconds)):
        raise GapnetError(f"{path}: not an epoch log: expected rows of {width} fields, "
                          "the last a finite number")
    return float(np.mean(seconds))
