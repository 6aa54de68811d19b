import copy
import dataclasses
import itertools
import os

import numpy as np
import pytest

from gapnet.backbone import load_feature_map
from gapnet.errors import GapnetError
from gapnet.nn import Conv1D, Dense, Dropout, ReLU
from gapnet.pipeline import (
    Model,
    ModelSpec,
    build_classifier,
    build_feature_head,
    decide,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
)
from gapnet.train import AdamState
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
    with pytest.raises(GapnetError, match="projection_dim must be an integer >= 1, got 0"):
        Model(ModelSpec(projection_dim=0), seed=0)


def test_a_spec_is_validated_once_per_model_and_per_checkpoint_load(tmp_path, monkeypatch):
    calls = []
    validate = ModelSpec.validate

    def counted(spec):
        calls.append(spec)
        return validate(spec)
    monkeypatch.setattr(ModelSpec, "validate", counted)
    specs = (ModelSpec(), ModelSpec(classifier="cnn1d"),
             ModelSpec(backbone="toy_cnn", head_input_channels=16, backbone_trainable=True))
    for i, spec in enumerate(specs):
        calls.clear()
        model = Model(spec, seed=1)
        assert len(calls) == 1
        save_checkpoint(model, tmp_path / str(i))
        calls.clear()
        load_checkpoint(tmp_path / str(i), expected_spec=spec)
        assert len(calls) == 1


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
    with pytest.raises(GapnetError, match="unknown classifier 'nope'"):
        ModelSpec(classifier="nope").validate()
    with pytest.raises(GapnetError, match="dropout rates must be in"):
        ModelSpec(dropout_rates=(1.0, 0.3)).validate()
    with pytest.raises(GapnetError, match=r"hidden_widths\[0\] must be an integer >= 1"):
        ModelSpec(hidden_widths=(0, 128)).validate()
    with pytest.raises(GapnetError, match="toy_cnn emits 16 channels, spec says 99"):
        ModelSpec(backbone="toy_cnn", head_input_channels=99).validate()
    with pytest.raises(GapnetError, match="backbone_trainable needs a backbone to train"):
        ModelSpec(backbone="imported_features", backbone_trainable=True).validate()
    for wrong_type, needle in (({"head_input_channels": 2.5}, "head_input_channels must be"),
                               ({"projection_dim": "512"}, "projection_dim must be"),
                               ({"hidden_widths": (256, 128.0)}, r"hidden_widths\[1\] must be"),
                               ({"conv_filters": True}, "conv_filters must be"),
                               ({"conv_kernel": 3.0}, "conv_kernel must be"),
                               ({"backbone_trainable": "no", **TOY}, "not a bool: 'no'"),
                               ({"backbone_trainable": 0, **TOY}, "not a bool: 0")):
        with pytest.raises(GapnetError, match=needle):
            ModelSpec(**wrong_type).validate()


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
    assert model.forward(z)[0] == 0.0  # a zero logit
    assert sigmoid(model.forward(z))[0] == 0.5
    assert decide(sigmoid(model.forward(z))[0], model.spec.decision_threshold) == 0


TOY = {"backbone": "toy_cnn", "head_input_channels": 16}


@pytest.mark.parametrize("spec, shape", [
    (ModelSpec(backbone_trainable=True, **TOY), (1, 53, 53, 16)),  # trainable backbone wants images
    (ModelSpec(**TOY), (1, 224, 224, 1)),  # frozen backbone: forward takes GAP vectors
])
def test_forward_rejects_input_the_spec_does_not_describe(spec, shape):
    # forward takes encoded rows: images for a trainable backbone, whose first conv
    # refuses 16 channels, else GAP vectors, which the projection checks
    needle = ("input has 16 channels, layer expects 1" if spec.backbone_trainable
              else r"dense expects \(B, 16\)")
    with pytest.raises(GapnetError, match=needle):
        Model(spec, seed=0).forward(np.zeros(shape, np.float32))


def test_frozen_encode_then_forward_equals_full_pass_bitwise():
    frozen = Model(ModelSpec(**TOY), seed=3)
    # same seed, same weights; the trainable backbone runs inside forward
    full = Model(ModelSpec(backbone_trainable=True, **TOY), seed=3)
    img = np.random.default_rng(4).standard_normal((224, 224, 1)).astype(np.float32)
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
    z = model.forward(model.encode(np.ones((2, 2, 8), np.float32))[None])
    assert z.shape == (1,) and z.dtype == np.float32 and z[0] == np.float32(np.log(3.0))
    assert abs(sigmoid(z)[0] - 0.75) < 1e-6


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
    x = np.random.default_rng(9).standard_normal((224, 224, 1)).astype(np.float32)
    p_before = model.forward(model.encode(x)[None])
    save_checkpoint(model, tmp_path / "ckpt")
    restored = load_checkpoint(tmp_path / "ckpt", expected_spec=spec)
    assert np.array_equal(restored.forward(restored.encode(x)[None]), p_before)

    other = ModelSpec(head_input_channels=16, backbone="toy_cnn", classifier="fcnn")
    with pytest.raises(GapnetError, match="checkpoint fingerprint"):
        load_checkpoint(tmp_path / "ckpt", expected_spec=other)


def test_a_loaded_checkpoint_draws_nothing_and_cannot_train_its_dropouts(tmp_path, monkeypatch):
    spec = ModelSpec(head_input_channels=32, projection_dim=16, hidden_widths=(8, 4))
    model = Model(spec, seed=12)
    save_checkpoint(model, tmp_path / "ckpt")

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a random initialisation")
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = load_checkpoint(tmp_path / "ckpt", expected_spec=spec)
    monkeypatch.undo()
    assert loaded.flat_params.tobytes() == model.flat_params.tobytes()
    z = np.random.default_rng(13).standard_normal((5, 32)).astype(np.float32)
    assert loaded.forward(z).tobytes() == model.forward(z).tobytes()
    assert count_layers(loaded.classifier, Dropout) == 2
    with pytest.raises(GapnetError, match=r"^dropout has no seed[^\n]*$"):
        loaded.forward(z, train=True)


class Killed(Exception):
    """Stands in for a kill in the middle of a checkpoint's file writes."""


def test_an_interrupted_save_loads_as_one_whole_run(tmp_path, monkeypatch):
    # model b saved over model a's checkpoint, the save cut at each of its file
    # writes in turn: what loads is a's vector or b's, byte for byte, never a mix
    spec = ModelSpec(head_input_channels=4, projection_dim=6, hidden_widths=(3,),
                     dropout_rates=(0.5,))
    a, b = Model(spec, seed=1), Model(spec, seed=2)
    runs = {a.flat_params.tobytes(): "a", b.flat_params.tobytes(): "b"}
    real_replace = os.replace  # every file write ends in one, atomically
    loaded = []
    for cut in itertools.count(1):
        directory = tmp_path / str(cut)
        save_checkpoint(a, directory)
        writes = []

        def replace(src, dst):
            writes.append(dst)
            if len(writes) == cut:
                raise Killed(dst)
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", replace)
        try:
            save_checkpoint(b, directory)
        except Killed:
            pass
        finally:
            monkeypatch.undo()
        model = load_checkpoint(directory, expected_spec=spec)
        loaded.append(runs.get(model.flat_params.tobytes(), "a mix"))
        if len(writes) < cut:  # the save ran to its end
            break
    assert loaded == ["a", "b", "b"]
    for directory in tmp_path.iterdir():  # and no temp file is left behind
        assert sorted(p.name for p in directory.iterdir()) == ["model.json", "params.btft"]


def sigmoid_layer_forward(x):
    """The forward pass of the sigmoid layer models used to end in, verbatim."""
    info = np.finfo(x.dtype)
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    s = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    s = np.clip(s, info.tiny, 1.0 - info.eps / 2).astype(x.dtype)
    return s


@pytest.mark.parametrize("classifier", ["dfn", "fcnn", "cnn1d"])
def test_sigmoid_of_logits_matches_the_old_sigmoid_layer_bitwise(tmp_path, classifier):
    spec = ModelSpec(head_input_channels=8, classifier=classifier)
    save_checkpoint(Model(spec, seed=30), tmp_path / "ckpt")
    model = load_checkpoint(tmp_path / "ckpt", expected_spec=spec)
    rng = np.random.default_rng(31)
    # rows scaled from 1e-4 to 1e4 take the logits from near 0 into both clamps
    z = (rng.standard_normal((9, 8)) * np.logspace(-4, 4, 9)[:, None]).astype(np.float32)
    before = sigmoid_layer_forward(model.classifier.forward(model.features(z)))[:, 0]
    after = sigmoid(model.forward(z))
    assert after.dtype == np.float32 and after.tobytes() == before.tobytes()
    assert np.array_equal(decide(after, 0.5), decide(before, 0.5))


BACKBONE_ENTRIES = ["backbone.0.w", "backbone.0.b", "backbone.2.w", "backbone.2.b"]
DFN_ENTRIES = ["head.0.w", "head.0.b", "clf.0.w", "clf.0.b", "clf.3.w", "clf.3.b",
               "clf.6.w", "clf.6.b"]


CNN1D_ENTRIES = ["head.0.w", "head.0.b", "clf.0.w", "clf.0.b", "clf.2.w", "clf.2.b"]


@pytest.mark.parametrize("spec, entries, trains_backbone, loaded", [
    (ModelSpec(**TOY), BACKBONE_ENTRIES + DFN_ENTRIES, False, False),
    (ModelSpec(backbone_trainable=True, **TOY), BACKBONE_ENTRIES + DFN_ENTRIES, True, False),
    (ModelSpec(classifier="cnn1d"), CNN1D_ENTRIES, False, False),
    (ModelSpec(**TOY), BACKBONE_ENTRIES + DFN_ENTRIES, False, True),
    # a loaded checkpoint scores only: its backbone is frozen whatever the spec says
    (ModelSpec(backbone_trainable=True, **TOY), BACKBONE_ENTRIES + DFN_ENTRIES, False, True),
    (ModelSpec(classifier="cnn1d"), CNN1D_ENTRIES, False, True),
], ids=["frozen-toy-dfn", "trainable-toy-dfn", "imported-cnn1d",
        "frozen-toy-dfn-loaded", "trainable-toy-dfn-loaded", "imported-cnn1d-loaded"])
def test_checkpoint_entry_names_are_pinned(tmp_path, spec, entries, trains_backbone, loaded):
    # this order is the layout of flat_params, and so of every saved params.btft:
    # reordering or resizing an entry misreads every checkpoint saved before
    model = Model(spec, seed=0)
    if loaded:
        save_checkpoint(model, tmp_path / "ckpt")
        model = load_checkpoint(tmp_path / "ckpt")
    assert [name for name, _, _ in model.parameters(trainable_only=False)] == entries
    trainable = [name for name, _, _ in model.parameters()]
    assert trainable == [n for n in entries if trains_backbone or not n.startswith("backbone.")]
    frozen = Model(dataclasses.replace(spec, backbone_trainable=False), seed=0)
    assert model.n_frozen == (0 if trains_backbone else frozen.n_frozen)


def test_a_loaded_fine_tuned_checkpoint_scores_as_the_frozen_model_bitwise(tmp_path):
    trainable = ModelSpec(backbone_trainable=True, **TOY)
    save_checkpoint(Model(trainable, seed=14), tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt", expected_spec=trainable)
    frozen = Model(ModelSpec(**TOY), seed=15)
    frozen.flat_params[...] = loaded.flat_params
    imgs = np.random.default_rng(16).standard_normal((3, 224, 224, 1)).astype(np.float32)
    z = np.stack([loaded.encode(x) for x in imgs])
    assert z.shape == (3, 16)  # GAP vectors, not raw images
    assert z.tobytes() == np.stack([frozen.encode(x) for x in imgs]).tobytes()
    assert loaded.features(z).tobytes() == frozen.features(z).tobytes()
    assert loaded.forward(z).tobytes() == frozen.forward(z).tobytes()


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
    # desk-sized images (forward takes them unchecked; only encode checks a raw
    # input's shape); the two conv stages take any extent from 13 up
    x = np.random.default_rng(22).standard_normal((2, 13, 13, 1)).astype(np.float32)
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
    dldz = rng.standard_normal(8)
    logits = model.forward(z, train=True)
    model.backward(dldz / 8)
    batch = {name: layer.grads[pn].copy() for name, layer, pn in model.parameters()}

    summed = {name: 0 for name, _, _ in model.parameters()}  # each row's, added here
    for i in range(8):
        logit_i = model.forward(z[i:i + 1], train=True)
        # on a logit near 0 this is stricter than the 1e-6 relative bound on p it replaces
        assert abs(logit_i[0] - logits[i]) <= 1e-6 * max(abs(logits[i]), 1.0)
        model.backward(dldz[i:i + 1] / 8)
        for name, layer, pn in model.parameters():
            summed[name] = summed[name] + layer.grads[pn]
    for name, _, _ in model.parameters():
        diff = np.max(np.abs(summed[name] - batch[name]))
        assert diff <= 1e-5 * np.max(np.abs(batch[name])), name


@pytest.mark.parametrize("trainable", [False, True])
def test_model_backward_skips_input_grad_by_default_bitwise(trainable):
    rng = np.random.default_rng(25)
    if trainable:
        model = Model(ModelSpec(backbone_trainable=True, classifier="fcnn", projection_dim=6,
                                hidden_widths=(5,), **TOY), seed=3)
        z = rng.standard_normal((2, 13, 13, 1)).astype(np.float32)
    else:
        model = Model(ModelSpec(head_input_channels=8, classifier="fcnn", projection_dim=6,
                                hidden_widths=(5,)), seed=3)
        z = rng.standard_normal((3, 8)).astype(np.float32)
    dldz = rng.standard_normal(len(z))
    model.forward(z, train=True)
    dz = model.backward(dldz, input_grad=True)
    assert dz.shape == z.shape
    with_dz = {name: layer.grads[pn].copy() for name, layer, pn in model.parameters()}

    model.forward(z, train=True)
    assert model.backward(dldz) is None
    for name, layer, pn in model.parameters():
        assert np.array_equal(layer.grads[pn], with_dz[name]), name


def test_float64_rows_score_like_float32_rows():
    model = Model(ModelSpec(head_input_channels=8, projection_dim=6, hidden_widths=(5,),
                            dropout_rates=(0.5,)), seed=4)
    z = np.random.default_rng(26).standard_normal((3, 8)).astype(np.float32)
    p32 = model.forward(z)
    p64 = model.forward(z.astype(np.float64))
    assert p64.dtype == np.float32 and np.array_equal(p32, p64)


def assert_views_linked(model):
    for name, layer, pname in model.parameters(trainable_only=False):
        assert np.shares_memory(layer.params[pname], model.flat_params), name
        assert np.shares_memory(layer.grads[pname], model.flat_grads), name
        assert layer.params[pname].dtype == layer.grads[pname].dtype == model.dtype, name


def test_parameter_store_views_stay_linked(tmp_path):
    model = Model(ModelSpec(backbone="toy_cnn", head_input_channels=16, projection_dim=8,
                            hidden_widths=(4,), dropout_rates=(0.0,)), seed=3)
    assert_views_linked(model)
    assert model.flat_params.size == count_parameters(model) == model.flat_grads.size
    save_checkpoint(model, tmp_path / "a")
    loaded = load_checkpoint(tmp_path / "a")
    assert_views_linked(loaded)
    assert loaded.flat_params.tobytes() == model.flat_params.tobytes()

    wide = copy.deepcopy(model)
    assert_views_linked(wide)
    assert not np.shares_memory(wide.flat_params, model.flat_params)
    wide.astype(np.float64)
    assert_views_linked(wide)
    assert np.array_equal(wide.flat_params, model.flat_params)
    assert_views_linked(copy.deepcopy(wide))

    # gradients reach the store through the layers' views, and Adam's update reaches
    # the layers, and so the checkpoint, through the store
    model.input_shape = (13, 13, 1)  # desk-sized images
    z = np.stack([model.encode(x) for x in
                  np.random.default_rng(4).standard_normal((3, 13, 13, 1)).astype(np.float32)])
    model.backward(np.ones(3) - 2.0 * sigmoid(model.forward(z, train=True)))
    assert np.any(model.flat_grads[model.n_frozen:])
    AdamState().step(model.flat_params[model.n_frozen:], model.flat_grads[model.n_frozen:],
                     lr=1e-2)
    save_checkpoint(model, tmp_path / "b")
    before, after = (load_feature_map(tmp_path / run / "params.btft") for run in "ab")
    at = 0
    for name, layer, pname in model.parameters(trainable_only=False):
        size = layer.params[pname].size
        moved = bool(np.any(layer.grads[pname]))  # Adam moves exactly the nonzero gradients
        assert (before[at:at + size].tobytes() != after[at:at + size].tobytes()) == moved, name
        at += size
    assert at == before.size == after.size and before.tobytes() != after.tobytes()
