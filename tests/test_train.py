import numpy as np
import pytest

from gapnet.errors import DivergedLoss, EmptySplit
from gapnet.pipeline import Model, ModelSpec
from gapnet.train import (
    AdamState,
    Dataset,
    EarlyStopState,
    EpochLog,
    TrainConfig,
    bce_loss,
    early_stop_update,
    lr_on_plateau,
    train_loop,
    write_epoch_csv,
)


def test_bce_values():
    loss, _ = bce_loss(1.0, 1)  # clamped to 1 - 1e-7
    assert 0.0 <= loss <= 1e-6
    assert abs(bce_loss(0.5, 1)[0] - np.log(2)) < 1e-12
    assert abs(bce_loss(0.5, 0)[0] - np.log(2)) < 1e-12
    rng = np.random.default_rng(0)
    ps = rng.random(200)
    for p in ps:
        for y in (0, 1):
            assert bce_loss(float(p), y)[0] >= 0.0
    # elementwise on a batch, equal to the scalar losses
    ys = rng.integers(0, 2, 200)
    loss, grad = bce_loss(ps, ys)
    assert np.array_equal(loss, [bce_loss(float(p), y)[0] for p, y in zip(ps, ys)])
    assert np.array_equal(grad, [bce_loss(float(p), y)[1] for p, y in zip(ps, ys)])


def test_bce_gradient_sign():
    assert bce_loss(0.3, 1)[1] < 0  # pushing p up lowers the loss
    assert bce_loss(0.3, 0)[1] > 0


class Param:
    def __init__(self, value):
        self.params = {"w": np.asarray(value, dtype=np.float32)}
        self.grads = {"w": np.zeros_like(self.params["w"])}


def test_adam_zero_gradient_is_identity():
    p = Param([1.0, -2.0, 3.0])
    adam = AdamState()
    before = p.params["w"].copy()
    adam.step([("w", p, "w")], lr=1e-4)
    assert np.array_equal(p.params["w"], before)


def test_adam_first_step_magnitude():
    p = Param([0.0])
    p.grads["w"][...] = 1.0
    AdamState().step([("w", p, "w")], lr=1e-4)
    # m_hat = v_hat = 1 up to eps, so the step is ~ -1e-4
    assert abs(p.params["w"][0] + 1e-4) < 1e-9


def test_adam_constant_gradient_monotone():
    p = Param([0.5])
    adam = AdamState()
    values = []
    for _ in range(100):
        p.grads["w"][...] = 2.0
        adam.step([("w", p, "w")], lr=1e-3)
        values.append(float(p.params["w"][0]))
    assert all(b < a for a, b in zip(values, values[1:] ))


def cfg(**kw):
    kw.setdefault("seed", 1)
    return TrainConfig(**kw).validate()


def test_lr_on_plateau_traces():
    c = cfg(learning_rate=1e-4, lr_plateau_patience=3)
    assert lr_on_plateau([1.0, 0.9, 0.8], c) == 1e-4
    assert lr_on_plateau([1.0, 1.0, 1.0, 1.0], c) == 5e-5
    # repeated plateaus floor at min_lr
    assert lr_on_plateau([1.0] * 500, c) == c.min_lr
    lrs = [lr_on_plateau([1.0] * n, c) for n in range(60)]
    assert all(b <= a for a, b in zip(lrs, lrs[1:])) and min(lrs) >= c.min_lr


def test_early_stop_trace():
    state = EarlyStopState()
    decisions = [early_stop_update(state, loss, patience=5)
                 for loss in [0.5, 0.6, 0.6, 0.6, 0.6, 0.6]]
    assert decisions == ["continue"] * 5 + ["stop"]
    assert state.best_val_loss == 0.5

    state = EarlyStopState()
    assert all(early_stop_update(state, loss, patience=5) == "continue"
               for loss in np.linspace(1.0, 0.1, 50))


def small_model(seed=2):
    return Model(ModelSpec(head_input_channels=8, projection_dim=16,
                           hidden_widths=(8,), dropout_rates=(0.2,)), seed=seed)


def small_dataset(seed=3, n=24):
    """GAP vectors (``Model.encode``) of seeded 3x3x8 maps, 6 of them for val."""
    rng = np.random.default_rng(seed)
    encode = small_model().encode  # an imported model's encode is GAP alone
    ds = Dataset()
    for i in range(n):
        y = i % 2
        x = (rng.standard_normal((3, 3, 8)) + (2.0 if y else -2.0)).astype(np.float32)
        (ds.train if i < n - 6 else ds.val).append((encode(x), y))
    return ds


def test_early_stop_restores_best_parameters():
    model = small_model()
    ds = small_dataset()
    result = train_loop(model, ds, cfg(seed=4, max_epochs=40, batch_size=6,
                                       learning_rate=5e-3, early_stop_patience=3))
    best = min(e.val_loss for e in result.epochs)
    val_loss = np.mean([bce_loss(model.forward(z[None])[0], y)[0] for z, y in ds.val])
    assert abs(val_loss - best) < 1e-6


def test_single_sample_loss_decreases_over_random_inits():
    for seed in range(20):
        model = small_model(seed=100 + seed)
        rng = np.random.default_rng(seed)
        z = model.encode(rng.standard_normal((3, 3, 8)).astype(np.float32))
        ds = Dataset(train=[(z, 1)], val=[(z, 1)])
        before = bce_loss(model.forward(z[None]), 1)[0]
        train_loop(model, ds, cfg(seed=seed, max_epochs=1, learning_rate=1e-4))
        after = bce_loss(model.forward(z[None]), 1)[0]
        assert after < before


def test_overfit_single_sample_batch():
    model = Model(ModelSpec(head_input_channels=64), seed=5)
    z = model.encode(np.random.default_rng(6).standard_normal((7, 7, 64)).astype(np.float32))
    ds = Dataset(train=[(z, 1)] * 32, val=[(z, 1)])
    result = train_loop(model, ds, cfg(seed=7, max_epochs=200, learning_rate=1e-4,
                                       early_stop_patience=200))
    assert any(e.train_acc == 1.0 for e in result.epochs)


def test_determinism_bitwise():
    logs = []
    for _ in range(2):
        model = small_model(seed=8)
        result = train_loop(model, small_dataset(seed=9), cfg(seed=10, max_epochs=6))
        logs.append([(e.epoch, e.train_loss, e.train_acc, e.val_loss, e.val_acc, e.lr)
                     for e in result.epochs])
    assert logs[0] == logs[1]


def test_empty_split_and_diverged_loss():
    with pytest.raises(EmptySplit):
        train_loop(small_model(), Dataset(train=[], val=[]), cfg())
    ds = small_dataset()
    with pytest.raises(EmptySplit):
        train_loop(small_model(), Dataset(train=ds.train, val=[]), cfg())

    model = small_model(seed=11)
    # blow up the projection so the forward pass overflows float32
    model.head.layers[0].params["w"][...] = 1e38
    with np.errstate(over="ignore"), pytest.raises(DivergedLoss):
        train_loop(model, ds, cfg(seed=12, max_epochs=2))


def test_epoch_csv_format(tmp_path):
    logs = [EpochLog(1, 0.5, 0.75, 0.6, 0.7, 1e-4, 0.01),
            EpochLog(2, 0.4, 0.8, 0.55, 0.75, 1e-4, 0.012)]
    path = tmp_path / "epochs.csv"
    write_epoch_csv(logs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,lr,seconds_per_epoch"
    assert lines[1].startswith("1,0.5,0.75,0.6,0.7,0.0001,")
    assert len(lines) == 3


@pytest.mark.parametrize("trainable, expected_rows", [(False, [4, 4, 2, 4, 2]), (True, [1] * 16)])
def test_rows_per_forward_pass(trainable, expected_rows):
    """A frozen model runs each mini-batch (train, then val) in one pass; a trainable
    backbone runs one image at a time, in training and in evaluation."""
    model = Model(ModelSpec(backbone="toy_cnn", head_input_channels=16,
                            backbone_trainable=trainable, projection_dim=8,
                            hidden_widths=(4,), dropout_rates=(0.0,)), seed=3)
    model.backbone.input_shape = (13, 13, 3)  # desk-sized images
    rng = np.random.default_rng(4)
    imgs = [rng.standard_normal((13, 13, 3)).astype(np.float32) for _ in range(16)]
    samples = [(model.encode(x), i % 2) for i, x in enumerate(imgs)]
    rows = []
    forward = model.forward
    model.forward = lambda z, train=False: rows.append(len(z)) or forward(z, train)
    train_loop(model, Dataset(train=samples[:10], val=samples[10:]),
               cfg(seed=5, max_epochs=1, batch_size=4))
    assert rows == expected_rows


def test_trainable_backbone_never_computes_the_image_gradient(monkeypatch):
    from gapnet import kernels

    model = Model(ModelSpec(backbone="toy_cnn", head_input_channels=16,
                            backbone_trainable=True, projection_dim=8,
                            hidden_widths=(4,), dropout_rates=(0.0,)), seed=3)
    model.backbone.input_shape = (13, 13, 3)  # desk-sized images
    rng = np.random.default_rng(6)
    samples = [(rng.standard_normal((13, 13, 3)).astype(np.float32), i % 2) for i in range(6)]
    cin = {}  # kernel name -> input channels of each call

    def spy(name):
        kernel = getattr(kernels, name)

        def wrapper(x, w, g, stride):
            cin.setdefault(name, []).append(w.shape[2])
            return kernel(x, w, g, stride)
        monkeypatch.setattr(kernels, name, wrapper)

    spy("conv2d_backward")
    spy("conv2d_weight_grads")
    train_loop(model, Dataset(train=samples[:4], val=samples[4:]),
               cfg(seed=7, max_epochs=1, batch_size=2))
    # stage 2 still passes dL/d(input) down to stage 1, which stops at its weights
    assert set(cin["conv2d_backward"]) == {8}
    assert 3 in cin["conv2d_weight_grads"]
