import numpy as np
import pytest

from gapnet.errors import CheckpointMismatch, ShapeMismatch, SpecInvalid
from gapnet.nn import Conv1D, Dense, Dropout, ReLU
from gapnet.pipeline import (
    Model,
    ModelSpec,
    build_classifier,
    build_feature_head,
    count_parameters,
    decide,
    load_checkpoint,
    save_checkpoint,
)


def count_layers(seq, cls):
    return sum(isinstance(layer, cls) for layer in seq.layers)


def seq_params(seq):
    return sum(layer.params[p].size for _, layer, p in seq.parameters())


def test_feature_head_shapes():
    rng = np.random.default_rng(0)
    head = build_feature_head(ModelSpec(), rng)
    out = head.forward(np.random.default_rng(1).standard_normal((7, 7, 2048)).astype(np.float32))
    assert out.shape == (512,)
    head16 = build_feature_head(ModelSpec(backbone="toy_cnn", head_input_channels=16), rng)
    assert head16.forward(np.ones((56, 56, 16), np.float32)).shape == (512,)
    with pytest.raises(SpecInvalid):
        build_feature_head(ModelSpec(projection_dim=0), rng)


def test_feature_head_dim_independent_of_spatial_extent():
    rng = np.random.default_rng(2)
    head = build_feature_head(ModelSpec(head_input_channels=4, projection_dim=10), rng)
    for h in range(1, 15):
        for w in (1, 7, 14):
            out = head.forward(rng.standard_normal((h, w, 4)).astype(np.float32))
            assert out.shape == (10,)


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
    assert cnn.forward(np.zeros(512, np.float32)).shape == (1,)


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        ModelSpec(classifier="nope").validate()
    with pytest.raises(SpecInvalid):
        ModelSpec(dropout_rates=(1.0, 0.3)).validate()
    with pytest.raises(SpecInvalid):
        ModelSpec(hidden_widths=(0, 128)).validate()
    with pytest.raises(SpecInvalid):
        ModelSpec(backbone="toy_cnn", head_input_channels=99).validate()


def test_model_count_parameters():
    model = Model(ModelSpec(), seed=1)
    assert count_parameters(model) == 2048 * 512 + 512 + 164_353
    head_only = build_feature_head(ModelSpec(), np.random.default_rng(1))
    assert seq_params(head_only) == 1_049_088


def test_forward_determinism_and_zero_model():
    model = Model(ModelSpec(head_input_channels=32), seed=4)
    x = np.random.default_rng(5).standard_normal((7, 7, 32)).astype(np.float32)
    ps = {model.forward(x) for _ in range(100)}
    assert len(ps) == 1  # bitwise-identical eval forwards

    for _, layer, name in model.parameters(trainable_only=False):
        layer.params[name][...] = 0
    assert model.forward(x) == 0.5
    assert decide(model.forward(x), model.spec.decision_threshold) == 0


TOY = {"backbone": "toy_cnn", "head_input_channels": 16}


@pytest.mark.parametrize("spec, shape", [
    (ModelSpec(backbone_trainable=True, **TOY), (53, 53, 16)),  # trainable backbone wants images
    (ModelSpec(**TOY), (224, 224, 3)),  # frozen backbone: forward takes encoded maps
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
    assert z.shape == (53, 53, 16)
    assert full.encode(img) is img
    assert frozen.forward(z) == full.forward(img)
    assert np.array_equal(frozen.features(z), full.features(img))


def test_hand_built_head_hits_sigmoid_arithmetic():
    model = Model(ModelSpec(head_input_channels=8, hidden_widths=(4,),
                            dropout_rates=(0.0,)), seed=6)
    for _, layer, name in model.parameters(trainable_only=False):
        layer.params[name][...] = 0
    model.classifier.layers[-1].params["b"][...] = np.log(3.0)
    p = model.forward(np.ones((2, 2, 8), np.float32))
    assert abs(p - 0.75) < 1e-6


def test_decide_rule():
    assert decide(0.7, 0.5) == 1
    assert decide(0.5, 0.5) == 0
    assert decide(0.2, 0.5) == 0
    rng = np.random.default_rng(7)
    for z in rng.standard_normal(200) * 8:
        p = 1.0 / (1.0 + np.exp(-z))
        assert decide(p, 0.5) == (1 if z > 0 else 0)


def test_checkpoint_round_trip_and_mismatch(tmp_path):
    spec = ModelSpec(head_input_channels=16, backbone="toy_cnn")
    model = Model(spec, seed=8)
    x = np.random.default_rng(9).standard_normal((224, 224, 3)).astype(np.float32)
    p_before = model.forward(model.encode(x))
    save_checkpoint(model, tmp_path / "ckpt")
    restored = load_checkpoint(tmp_path / "ckpt", expected_spec=spec)
    assert restored.forward(restored.encode(x)) == p_before

    other = ModelSpec(head_input_channels=16, backbone="toy_cnn", classifier="fcnn")
    with pytest.raises(CheckpointMismatch):
        load_checkpoint(tmp_path / "ckpt", expected_spec=other)
