import numpy as np
import pytest

from gapnet.errors import GapnetError
from gapnet.nn import Dense
from gapnet.pipeline import Model, ModelSpec
from gapnet import train as train_mod
from gapnet.train import (
    ADAM_BLOCK,
    AdamState,
    EarlyStopState,
    EpochLog,
    TrainConfig,
    bce_loss,
    early_stop_update,
    lr_on_plateau,
    mean_seconds_per_epoch,
    train_loop,
    write_epoch_csv,
)


def test_bce_values():
    for y in (0, 1):
        assert bce_loss(0, y)[0] == np.log(2.0)
        assert bce_loss(0.0, y)[1] == 0.5 - y
    # the textbook form on moderate logits, where it is accurate in float64
    rng = np.random.default_rng(0)
    zs = rng.uniform(-8.0, 8.0, 200)
    ys = rng.integers(0, 2, 200)
    s = 1.0 / (1.0 + np.exp(-zs))
    loss, grad = bce_loss(zs, ys)
    assert np.allclose(loss, -(ys * np.log(s) + (1 - ys) * np.log(1.0 - s)), rtol=1e-12, atol=0)
    assert np.allclose(grad, s - ys, rtol=1e-12, atol=1e-16)
    assert np.all(loss > 0.0)
    # elementwise on a batch, equal to the scalar calls
    assert np.array_equal(loss, [bce_loss(float(z), y)[0] for z, y in zip(zs, ys)])
    assert np.array_equal(grad, [bce_loss(float(z), y)[1] for z, y in zip(zs, ys)])


@pytest.mark.parametrize("dtype, big", [(np.float32, 1e30), (np.float64, 1e300)])
def test_bce_is_finite_on_extreme_logits(dtype, big):
    # a RuntimeWarning (overflow, invalid) fails the test: pyproject makes warnings errors
    z = np.array([-big, -big, big, big], dtype)
    loss, grad = bce_loss(z, np.array([0, 1, 0, 1]))
    assert np.all(np.isfinite(loss)) and np.all(np.isfinite(grad))
    assert np.array_equal(loss, [0.0, z[2], z[2], 0.0])  # no clamp caps the loss
    assert np.array_equal(grad, [0.0, -1.0, 1.0, 0.0])


def test_bce_gradient_sign():
    for z in (-30.0, -0.3, 0.0, 0.3, 30.0):
        assert bce_loss(z, 1)[1] < 0  # pushing the logit up lowers the loss
        assert bce_loss(z, 0)[1] > 0


def test_bce_flushes_gradients_below_float32_tiny():
    tiny = np.finfo(np.float32).tiny
    # sigmoid(-100) = 3.7e-44 and 1 - sigmoid(100) = 3.7e-44: both below tiny
    _, grad = bce_loss(np.array([-100.0, 100.0, -80.0, 80.0]), np.array([0, 1, 0, 1]))
    assert grad[0] == 0.0 and grad[1] == 0.0
    assert np.abs(grad[2:]).min() >= tiny  # sigmoid(-80) = 1.8e-35 stays
    assert not np.any((grad != 0) & (np.abs(grad.astype(np.float32)) < tiny))


def test_adam_zero_gradient_is_identity():
    p = np.array([1.0, -2.0, 3.0], np.float32)
    adam = AdamState()
    before = p.copy()
    adam.step(p, np.zeros_like(p), lr=1e-4)
    assert np.array_equal(p, before)


def test_adam_first_step_magnitude():
    p = np.array([0.0], np.float32)
    AdamState().step(p, np.ones_like(p), lr=1e-4)
    # m_hat = v_hat = 1 up to eps, so the step is ~ -1e-4
    assert abs(p[0] + 1e-4) < 1e-9


def test_adam_constant_gradient_monotone():
    p = np.array([0.5], np.float32)
    adam = AdamState()
    values = []
    for _ in range(100):
        adam.step(p, np.full_like(p, 2.0), lr=1e-3)
        values.append(float(p[0]))
    assert all(b < a for a, b in zip(values, values[1:] ))


def per_tensor_adam_step(tensors, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam rule as it ran before the flat store: one pass per ufunc over
    each whole tensor, with that tensor's own moments and scratch."""
    state["t"] = t = state.get("t", 0) + 1
    bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    for i, (p, g) in enumerate(zip(tensors, grads)):
        if i not in state:
            state[i] = (np.zeros_like(p), np.zeros_like(p), np.empty_like(p))
        m, v, s = state[i]
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=s)
        m += s
        v *= beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - beta2
        v += s
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += eps
        np.divide(m, s, out=s)
        s *= lr / bc1
        p -= s


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_adam_is_bitwise_the_per_tensor_rule(dtype):
    # tensor boundaries at 1000, B + 1001, B + 1004 and 2B - 3 + 1001: none on a block's
    sizes = [1000, ADAM_BLOCK + 1, 3, ADAM_BLOCK - 7, 12345]
    assert sum(sizes) > 2 * ADAM_BLOCK
    rng = np.random.default_rng(7)
    flat_p = rng.standard_normal(sum(sizes)).astype(dtype)
    flat_g = np.empty_like(flat_p)
    cuts = np.cumsum(sizes)[:-1]
    ref_p = [t.copy() for t in np.split(flat_p, cuts)]
    adam, ref_state = AdamState(), {}
    for step in range(6):
        flat_g[...] = rng.standard_normal(flat_g.size) * 10.0 ** -step
        flat_g[:50] = 0.0  # zero gradients leave their parameters as they are
        adam.step(flat_p, flat_g, lr=1e-3 * (step + 1))
        per_tensor_adam_step(ref_p, np.split(flat_g, cuts), ref_state, lr=1e-3 * (step + 1))
    assert adam.scratch.size == ADAM_BLOCK
    for got, want in ((flat_p, ref_p), (adam.m, [ref_state[i][0] for i in range(5)]),
                      (adam.v, [ref_state[i][1] for i in range(5)])):
        assert got.dtype == dtype and np.array_equal(got, np.concatenate(want))


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


def test_early_stop_snapshot_is_one_array_rewritten_on_each_improvement():
    model, state = small_model(), EarlyStopState()
    early_stop_update(state, 0.5, patience=3, model=model)
    first = state.snapshot
    assert not np.shares_memory(first, model.flat_params)
    model.flat_params += 1
    early_stop_update(state, 0.4, patience=3, model=model)
    assert state.snapshot is first and first.tobytes() == model.flat_params.tobytes()
    best = first.copy()
    model.flat_params += 1
    early_stop_update(state, 0.45, patience=3, model=model)  # no improvement
    assert state.snapshot is first and first.tobytes() == best.tobytes()


def small_dataset(seed=3, n=24, shift=2.0):
    """(train, val) lists of the GAP vectors (``Model.encode``) of seeded
    3x3x8 maps, with their labels; 6 of them for val. A class's maps are
    moved by ``shift`` (or ``-shift``)."""
    rng = np.random.default_rng(seed)
    encode = small_model().encode  # an imported model's encode is GAP alone
    samples = []
    for i in range(n):
        y = i % 2
        x = (rng.standard_normal((3, 3, 8)) + (shift if y else -shift)).astype(np.float32)
        samples.append((encode(x), y))
    return samples[:n - 6], samples[n - 6:]


def test_early_stop_restores_best_parameters():
    model = small_model()
    train, val = small_dataset()
    logs = train_loop(model, train, val, cfg(seed=4, max_epochs=40, batch_size=6,
                                             learning_rate=5e-3, early_stop_patience=3))
    best = min(e.val_loss for e in logs)
    val_loss = np.mean([bce_loss(model.forward(z[None])[0], y)[0] for z, y in val])
    assert abs(val_loss - best) < 1e-6


def param_bytes(model):
    return [layer.params[p].tobytes() for _, layer, p in model.parameters(trainable_only=False)]


def test_early_stop_restores_the_best_epochs_bytes_into_the_store(monkeypatch):
    seen = []  # (val loss, parameter bytes) at each epoch's end

    def spy(state, val_loss, patience, model=None):
        seen.append((val_loss, param_bytes(model)))
        return early_stop_update(state, val_loss, patience, model)

    monkeypatch.setattr(train_mod, "early_stop_update", spy)
    model = small_model()
    train, val = small_dataset(shift=0.0)  # labels that carry no signal: val loss climbs
    train_loop(model, train, val, cfg(seed=4, max_epochs=40, batch_size=6,
                                      learning_rate=5e-3, early_stop_patience=3))
    best = min(range(len(seen)), key=lambda i: seen[i][0])  # the first of equal losses
    assert best < len(seen) - 1  # the restore has something to undo
    assert param_bytes(model) == seen[best][1]
    assert model.flat_params.tobytes() == b"".join(seen[best][1])


def test_a_frozen_backbone_prefix_is_left_bit_identical():
    model = Model(ModelSpec(backbone="toy_cnn", head_input_channels=16, projection_dim=8,
                            hidden_widths=(4,), dropout_rates=(0.0,)), seed=3)
    model.input_shape = (13, 13, 1)  # desk-sized images
    backbone = model.backbone.parameters("backbone.")
    assert model.n_frozen == sum(layer.params[p].size for _, layer, p in backbone) > 0
    rng = np.random.default_rng(4)
    samples = [(model.encode(rng.standard_normal((13, 13, 1)).astype(np.float32)), i % 2)
               for i in range(12)]
    before = model.flat_params.copy()
    train_loop(model, samples[:8], samples[8:], cfg(seed=5, max_epochs=2, batch_size=4,
                                                    learning_rate=1e-2))
    frozen = slice(0, model.n_frozen)
    assert model.flat_params[frozen].tobytes() == before[frozen].tobytes()
    assert not np.array_equal(model.flat_params[model.n_frozen:], before[model.n_frozen:])


@pytest.mark.parametrize("trainable", [True, False])
def test_adam_steps_from_the_passes_gradients_summed_in_order(monkeypatch, trainable):
    model = Model(ModelSpec(backbone="toy_cnn", head_input_channels=16, projection_dim=6,
                            classifier="fcnn", hidden_widths=(5,),
                            backbone_trainable=trainable), seed=3)
    model.input_shape = (13, 13, 1)  # desk-sized images
    rng = np.random.default_rng(16)
    samples = [(model.encode(rng.standard_normal((13, 13, 1)).astype(np.float32)), i % 2)
               for i in range(6)]
    passes, steps = [], []  # the trainable gradients after each pass; what each step got
    backward, step = Model.backward, AdamState.step

    def recording_backward(self, dloss_dz, input_grad=False):
        out = backward(self, dloss_dz, input_grad)
        passes.append(self.flat_grads[self.n_frozen:].copy())
        return out

    def recording_step(self, params, grads, lr):
        steps.append((grads, grads.copy()))
        return step(self, params, grads, lr)

    monkeypatch.setattr(Model, "backward", recording_backward)
    monkeypatch.setattr(AdamState, "step", recording_step)
    train_loop(model, samples[:4], samples[4:], cfg(seed=17, max_epochs=1, batch_size=4))
    assert len(steps) == 1 and len(passes) == (4 if trainable else 1)
    want = passes[0].copy()
    for grads in passes[1:]:  # a trainable backbone's batch runs one image per pass
        want += grads
    grads, got = steps[0]
    assert got.tobytes() == want.tobytes()
    if trainable:
        assert not np.array_equal(want, passes[-1])
    else:  # the step reads the store's trainable suffix itself: no copy per step
        assert model.n_frozen > 0 and grads.size == model.flat_grads.size - model.n_frozen
        assert np.shares_memory(grads, model.flat_grads)


def test_single_sample_loss_decreases_over_random_inits():
    for seed in range(20):
        model = small_model(seed=100 + seed)
        rng = np.random.default_rng(seed)
        z = model.encode(rng.standard_normal((3, 3, 8)).astype(np.float32))
        before = bce_loss(model.forward(z[None]), 1)[0]
        train_loop(model, [(z, 1)], [(z, 1)], cfg(seed=seed, max_epochs=1, learning_rate=1e-4))
        after = bce_loss(model.forward(z[None]), 1)[0]
        assert after < before


def test_overfit_single_sample_batch():
    model = Model(ModelSpec(head_input_channels=64), seed=5)
    z = model.encode(np.random.default_rng(6).standard_normal((7, 7, 64)).astype(np.float32))
    logs = train_loop(model, [(z, 1)] * 32, [(z, 1)], cfg(seed=7, max_epochs=200,
                                                          learning_rate=1e-4,
                                                          early_stop_patience=200))
    assert any(e.train_acc == 1.0 for e in logs)


def test_determinism_bitwise():
    logs = []
    for _ in range(2):
        model = small_model(seed=8)
        epochs = train_loop(model, *small_dataset(seed=9), cfg(seed=10, max_epochs=6))
        logs.append([(e.epoch, e.train_loss, e.train_acc, e.val_loss, e.val_acc, e.lr)
                     for e in epochs])
    assert logs[0] == logs[1]


def test_empty_split_and_diverged_loss():
    with pytest.raises(GapnetError, match="train split is empty"):
        train_loop(small_model(), [], [], cfg())
    train, val = small_dataset()
    with pytest.raises(GapnetError, match="val split is empty"):
        train_loop(small_model(), train, [], cfg())

    model = small_model(seed=11)
    # blow up the projection so the forward pass overflows float32
    model.head.layers[0].params["w"][...] = 1e38
    with np.errstate(over="ignore"), pytest.raises(GapnetError, match=r"^epoch \d+: non-finite values"):
        train_loop(model, train, val, cfg(seed=12, max_epochs=2))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_saturated_head_sends_no_subnormal_into_dense_backward(monkeypatch, sign):
    model = Model(ModelSpec(head_input_channels=8, projection_dim=16, classifier="fcnn",
                            hidden_widths=(8,)), seed=13)
    model.classifier.layers[-1].params["b"][...] = sign * 500.0
    train, val = small_dataset(seed=14, n=14)  # 8 train rows, 4 of each label
    logits = model.forward(np.stack([z for z, _ in train]))
    assert np.all(np.abs(logits) >= 200.0) and np.all(np.sign(logits) == sign)

    grads_in = []
    backward = Dense.backward

    def recording_backward(self, grad_out, input_grad=True):
        grads_in.append((self.dout, grad_out.copy()))
        return backward(self, grad_out, input_grad)

    monkeypatch.setattr(Dense, "backward", recording_backward)
    batch = len(train)
    train_loop(model, train, val, cfg(seed=15, max_epochs=1, batch_size=batch))  # one step
    tiny = np.finfo(np.float32).tiny
    assert len(grads_in) == 3  # output, hidden and projection Dense
    assert sum(int(np.sum((g != 0) & (np.abs(g) < tiny))) for _, g in grads_in) == 0
    # the output layer's dL/dz, in shuffled row order: 0 on each rightly saturated
    # row, sign/B on each wrongly saturated one
    dout, g = grads_in[0]
    wrong = np.array([label for _, label in train]) != (sign > 0)
    assert dout == 1 and 0 < wrong.sum() < batch
    want = np.where(wrong, sign / batch, 0.0).astype(np.float32)
    assert np.array_equal(np.sort(g[:, 0]), np.sort(want))


def test_epoch_csv_format(tmp_path):
    logs = [EpochLog(1, 0.5, 0.75, 0.6, 0.7, 1e-4, 0.01),
            EpochLog(2, 0.4, 0.8, 0.55, 0.75, 1e-4, 0.012)]
    path = tmp_path / "epochs.csv"
    write_epoch_csv(logs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,lr,seconds_per_epoch"
    assert lines[1] == "1,0.5,0.75,0.6,0.7,0.0001,0.01"
    assert len(lines) == 3
    assert mean_seconds_per_epoch(path) == float(np.mean([0.01, 0.012]))


@pytest.mark.parametrize("trainable, expected_rows", [(False, [4, 4, 2, 4, 2]), (True, [1] * 16)])
def test_rows_per_forward_pass(trainable, expected_rows):
    """A frozen model runs each mini-batch (train, then val) in one pass; a trainable
    backbone runs one image at a time, in training and in evaluation."""
    model = Model(ModelSpec(backbone="toy_cnn", head_input_channels=16,
                            backbone_trainable=trainable, projection_dim=8,
                            hidden_widths=(4,), dropout_rates=(0.0,)), seed=3)
    model.input_shape = (13, 13, 1)  # desk-sized images
    rng = np.random.default_rng(4)
    imgs = [rng.standard_normal((13, 13, 1)).astype(np.float32) for _ in range(16)]
    samples = [(model.encode(x), i % 2) for i, x in enumerate(imgs)]
    rows = []
    forward = model.forward
    model.forward = lambda z, train=False: rows.append(len(z)) or forward(z, train)
    train_loop(model, samples[:10], samples[10:], cfg(seed=5, max_epochs=1, batch_size=4))
    assert rows == expected_rows


def test_trainable_backbone_never_computes_the_image_gradient(monkeypatch):
    from gapnet import kernels

    model = Model(ModelSpec(backbone="toy_cnn", head_input_channels=16,
                            backbone_trainable=True, projection_dim=8,
                            hidden_widths=(4,), dropout_rates=(0.0,)), seed=3)
    rng = np.random.default_rng(6)  # desk-sized images, which train_loop takes unchecked
    samples = [(rng.standard_normal((13, 13, 1)).astype(np.float32), i % 2) for i in range(6)]
    cin = {}  # kernel name -> input channels of each call

    def spy(name):
        kernel = getattr(kernels, name)

        def wrapper(x, w, *args, **kwargs):
            cin.setdefault(name, []).append(w.shape[2])
            return kernel(x, w, *args, **kwargs)
        monkeypatch.setattr(kernels, name, wrapper)

    spy("conv2d_forward")
    spy("conv2d_backward")
    spy("conv2d_weight_grads")
    train_loop(model, samples[:4], samples[4:], cfg(seed=7, max_epochs=1, batch_size=2))
    # stage 2 still passes dL/d(input) down to stage 1, which stops at its weights
    assert set(cin["conv2d_backward"]) == {8}
    assert 1 in cin["conv2d_weight_grads"]
    # each image pass (4 train, 2 val) runs both stages through the forward kernel by
    # name, which the benchmark's per-layer conv metrics read
    assert cin["conv2d_forward"] == [1, 8] * 6
