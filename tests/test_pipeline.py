import numpy as np
import pytest

from gapnet.errors import CheckpointMismatch, ShapeMismatch, SpecInvalid
from gapnet.nn import Conv1D, Dense, Dropout, ReLU
from gapnet.pipeline import (
    Model,
    ModelSpec,
    build_classifier,
    build_feature_head,
    decide,
    load_checkpoint,
    save_checkpoint,
)
from gradcheck import gradient_check
from synth import count_parameters


def count_layers(seq, cls):
    return sum(isinstance(layer, cls) for layer in seq.layers)


def seq_params(seq):
    return sum(layer.params[p].size for _, layer, p in seq.parameters())


def test_feature_head_shapes():
    rng = np.random.default_rng(0)
    head = build_feature_head(ModelSpec(), rng)
    out = head.forward(np.random.default_rng(1).standard_normal((3, 2048)).astype(np.float32))
    assert out.shape == (3, 512)
    head16 = build_feature_head(ModelSpec(backbone="toy_cnn", head_input_channels=16), rng)
    assert head16.forward(np.ones((1, 16), np.float32)).shape == (1, 512)
    with pytest.raises(SpecInvalid):
        build_feature_head(ModelSpec(projection_dim=0), rng)


def test_feature_head_dim_independent_of_spatial_extent():
    rng = np.random.default_rng(2)
    model = Model(ModelSpec(head_input_channels=4, projection_dim=10), seed=2)
    for h in range(1, 15):
        for w in (1, 7, 14):
            z = model.encode(rng.standard_normal((h, w, 4)).astype(np.float32))
            assert z.shape == (4,)
            assert model.features(z[None]).shape == (1, 10)


def test_classifier_structures_and_param_counts():
    rng = np.random.default_rng(3)
    dfn = build_classifier(ModelSpec(classifier="dfn"), rng)
    # 512*256+256 + 256*128+128 + 128*1+1
    assert seq_params(dfn) == 164_353
    assert count_layers(dfn, Dropout) == 2 and count_layers(dfn, Dense) == 3

    fcnn = build_classifier(ModelSpec(classifier="fcnn"), rng)
    assert seq_params(fcnn) == 164_353
    assert count_layers(fcnn, Dropout) == 0 and count_layers(fcnn, ReLU) == 2

    cnn = build_classifier(ModelSpec(classifier="cnn1d"), rng)
    assert count_layers(cnn, Conv1D) == 1
    # conv: 8 filters x K=3 (+8 bias); flatten 8*510=4080; dense 4081
    assert seq_params(cnn) == 8 * 3 + 8 + 4080 + 1
    assert cnn.forward(np.zeros((2, 512), np.float32)).shape == (2, 1)


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        ModelSpec(classifier="nope").validate()
    with pytest.raises(SpecInvalid):
        ModelSpec(dropout_rates=(1.0, 0.3)).validate()
    with pytest.raises(SpecInvalid):
        ModelSpec(hidden_widths=(0, 128)).validate()
    with pytest.raises(SpecInvalid):
        ModelSpec(backbone="toy_cnn", head_input_channels=99).validate()
    with pytest.raises(SpecInvalid):  # no backbone to train
        ModelSpec(backbone="imported_features", backbone_trainable=True).validate()


def test_model_count_parameters():
    model = Model(ModelSpec(), seed=1)
    assert count_parameters(model) == 2048 * 512 + 512 + 164_353
    head_only = build_feature_head(ModelSpec(), np.random.default_rng(1))
    assert seq_params(head_only) == 1_049_088


def test_forward_determinism_and_zero_model():
    model = Model(ModelSpec(head_input_channels=32), seed=4)
    x = np.random.default_rng(5).standard_normal((7, 7, 32)).astype(np.float32)
    z = model.encode(x)[None]
    ps = {model.forward(z).tobytes() for _ in range(100)}
    assert len(ps) == 1  # bitwise-identical eval forwards

    for _, layer, name in model.parameters(trainable_only=False):
        layer.params[name][...] = 0
    assert model.forward(z)[0] == 0.5
    assert decide(model.forward(z)[0], model.spec.decision_threshold) == 0


TOY = {"backbone": "toy_cnn", "head_input_channels": 16}


@pytest.mark.parametrize("spec, shape", [
    (ModelSpec(backbone_trainable=True, **TOY), (1, 53, 53, 16)),  # trainable backbone wants images
    (ModelSpec(**TOY), (1, 224, 224, 3)),  # frozen backbone: forward takes GAP vectors
])
def test_forward_rejects_input_the_spec_does_not_describe(spec, shape):
    with pytest.raises(ShapeMismatch):
        Model(spec, seed=0).forward(np.zeros(shape, np.float32))


def test_frozen_encode_then_forward_equals_full_pass_bitwise():
    frozen = Model(ModelSpec(**TOY), seed=3)
    # same seed, same weights; the trainable backbone runs inside forward
    full = Model(ModelSpec(backbone_trainable=True, **TOY), seed=3)
    img = np.random.default_rng(4).standard_normal((224, 224, 3)).astype(np.float32)
    z = frozen.encode(img)
    assert z.shape == (16,)  # the frozen prefix ends with GAP
    assert full.encode(img) is img
    assert np.array_equal(frozen.forward(z[None]), full.forward(img[None]))
    assert np.array_equal(frozen.features(z[None]), full.features(img[None]))


def test_hand_built_head_hits_sigmoid_arithmetic():
    model = Model(ModelSpec(head_input_channels=8, hidden_widths=(4,),
                            dropout_rates=(0.0,)), seed=6)
    for _, layer, name in model.parameters(trainable_only=False):
        layer.params[name][...] = 0
    model.classifier.layers[-1].params["b"][...] = np.log(3.0)
    p = model.forward(model.encode(np.ones((2, 2, 8), np.float32))[None])
    assert p.shape == (1,) and abs(p[0] - 0.75) < 1e-6


def test_decide_rule():
    assert decide(0.7, 0.5) == 1
    assert decide(0.5, 0.5) == 0
    assert decide(0.2, 0.5) == 0
    rng = np.random.default_rng(7)
    zs = rng.standard_normal(200) * 8
    ps = 1.0 / (1.0 + np.exp(-zs))
    for z, p in zip(zs, ps):
        assert decide(p, 0.5) == (1 if z > 0 else 0)
    assert np.array_equal(decide(ps, 0.5), [decide(p, 0.5) for p in ps])  # elementwise


def test_checkpoint_round_trip_and_mismatch(tmp_path):
    spec = ModelSpec(head_input_channels=16, backbone="toy_cnn")
    model = Model(spec, seed=8)
    x = np.random.default_rng(9).standard_normal((224, 224, 3)).astype(np.float32)
    p_before = model.forward(model.encode(x)[None])
    save_checkpoint(model, tmp_path / "ckpt")
    restored = load_checkpoint(tmp_path / "ckpt", expected_spec=spec)
    assert np.array_equal(restored.forward(restored.encode(x)[None]), p_before)

    other = ModelSpec(head_input_channels=16, backbone="toy_cnn", classifier="fcnn")
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(tmp_path / "ckpt", expected_spec=other)


@pytest.mark.parametrize("classifier", ["dfn", "fcnn", "cnn1d"])
def test_whole_frozen_model_gradients_on_a_batch(classifier):
    model = Model(ModelSpec(head_input_channels=8, classifier=classifier, projection_dim=6,
                            hidden_widths=(5,), dropout_rates=(0.5,)), seed=1)
    rng = np.random.default_rng(20)
    for layer in model.classifier.layers:
        if isinstance(layer, Dropout):  # deterministic train-mode masks, one per row
            layer.fixed_mask = rng.random((3, 5)) >= 0.5
    z = np.stack([model.encode(rng.standard_normal((4, 4, 8)).astype(np.float32))
                  for _ in range(3)])
    report = gradient_check(model, z, rng=np.random.default_rng(21))
    assert report.passed, report.per_param
    assert "input" in report.per_param
    report = gradient_check(model, z, loss="bce", y=np.array([1, 0, 1]))
    assert report.passed, report.per_param
    assert "input" in report.per_param


def test_whole_trainable_model_gradients_on_a_batch():
    model = Model(ModelSpec(backbone_trainable=True, classifier="fcnn", projection_dim=4,
                            hidden_widths=(3,), **TOY), seed=2)
    # desk-sized images; the two conv stages take any extent from 13 up
    model.backbone.input_shape = (13, 13, 3)
    x = np.random.default_rng(22).standard_normal((2, 13, 13, 3)).astype(np.float32)
    # a small step keeps the differences clear of the conv stages' ReLU kinks
    report = gradient_check(model, x, h=1e-5, rng=np.random.default_rng(23))
    assert report.passed, report.per_param
    assert "input" in report.per_param
    assert any(name.startswith("backbone.") for name in report.per_param)


def test_batch_step_matches_rows_accumulated_one_at_a_time():
    model = Model(ModelSpec(head_input_channels=64, classifier="fcnn"), seed=9)
    rng = np.random.default_rng(24)
    z = np.stack([model.encode(rng.standard_normal((7, 7, 64)).astype(np.float32))
                  for _ in range(8)])
    dldp = rng.standard_normal(8)
    p = model.forward(z, train=True)
    model.zero_grad()
    model.backward(dldp / 8)
    batch = {name: layer.grads[pn].copy() for name, layer, pn in model.parameters()}

    model.zero_grad()
    for i in range(8):
        p_i = model.forward(z[i:i + 1], train=True)
        assert abs(p_i[0] - p[i]) <= 1e-6 * abs(p[i])
        model.backward(dldp[i:i + 1] / 8)
    for name, layer, pn in model.parameters():
        diff = np.max(np.abs(layer.grads[pn] - batch[name]))
        assert diff <= 1e-5 * np.max(np.abs(batch[name])), name


@pytest.mark.parametrize("trainable", [False, True])
def test_model_backward_skips_input_grad_by_default_bitwise(trainable):
    rng = np.random.default_rng(25)
    if trainable:
        model = Model(ModelSpec(backbone_trainable=True, classifier="fcnn", projection_dim=6,
                                hidden_widths=(5,), **TOY), seed=3)
        model.backbone.input_shape = (13, 13, 3)  # desk-sized images
        z = rng.standard_normal((2, 13, 13, 3)).astype(np.float32)
    else:
        model = Model(ModelSpec(head_input_channels=8, classifier="fcnn", projection_dim=6,
                                hidden_widths=(5,)), seed=3)
        z = rng.standard_normal((3, 8)).astype(np.float32)
    dldp = rng.standard_normal(len(z))
    model.zero_grad()
    model.forward(z, train=True)
    dz = model.backward(dldp, input_grad=True)
    assert dz.shape == z.shape
    with_dz = {name: layer.grads[pn].copy() for name, layer, pn in model.parameters()}

    model.zero_grad()
    model.forward(z, train=True)
    assert model.backward(dldp) is None
    for name, layer, pn in model.parameters():
        assert np.array_equal(layer.grads[pn], with_dz[name]), name


def test_float64_rows_score_like_float32_rows():
    model = Model(ModelSpec(head_input_channels=8, projection_dim=6, hidden_widths=(5,),
                            dropout_rates=(0.5,)), seed=4)
    z = np.random.default_rng(26).standard_normal((3, 8)).astype(np.float32)
    p32 = model.forward(z)
    p64 = model.forward(z.astype(np.float64))
    assert p64.dtype == np.float32 and np.array_equal(p32, p64)
