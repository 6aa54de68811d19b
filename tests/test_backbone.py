import struct

import numpy as np
import pytest

from gapnet import backbone
from gapnet.backbone import ToyBackbone, load_feature_map, save_tensor
from gapnet.errors import (
    BadMagic,
    IoFailure,
    ShapeMismatch,
    TruncatedPayload,
    UnsupportedDtype,
    UnsupportedVersion,
)
from gradcheck import gradient_check


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((7, 7, 2048)).astype(np.float32)
    save_tensor(t, tmp_path / "t.btft")
    back = load_feature_map(tmp_path / "t.btft")
    assert np.array_equal(back, t)
    assert back.flags.writeable and back.flags.owndata  # not a view of the file bytes


def test_round_trip_random_shapes(tmp_path):
    rng = np.random.default_rng(1)
    for i in range(100):
        rank = int(rng.integers(1, 5))
        shape = tuple(int(e) for e in rng.integers(1, 6, rank))
        t = rng.standard_normal(shape).astype(np.float32)
        save_tensor(t, tmp_path / f"{i}.btft")
        back = load_feature_map(tmp_path / f"{i}.btft")
        assert back.shape == shape and np.array_equal(back, t)


@pytest.mark.parametrize("error, raised", [
    (OSError(28, "No space left on device"), IoFailure),
    (KeyboardInterrupt(), KeyboardInterrupt),
])
def test_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path, monkeypatch,
                                                            error, raised):
    path = tmp_path / "t.btft"
    save_tensor(np.arange(6, dtype=np.float32), path)
    old = path.read_bytes()

    class TornFile:
        """Writes the header, then fails on the payload."""

        def __init__(self, name, mode):
            self.fh = open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.fh.tell():
                raise error
            return self.fh.write(data)

    monkeypatch.setattr(backbone, "open", TornFile, raising=False)
    with pytest.raises(raised):
        save_tensor(np.ones((2, 3), np.float32), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["t.btft"]


def test_header_layout(tmp_path):
    save_tensor(np.zeros(1, np.float32), tmp_path / "s.btft")
    raw = (tmp_path / "s.btft").read_bytes()
    assert len(raw) == 18  # 14-byte header + 4-byte payload
    assert raw[:4] == b"BTFT"
    version, dtype_code, rank, extent = struct.unpack("<IBBI", raw[4:14])
    assert (version, dtype_code, rank, extent) == (1, 1, 1, 1)


def test_malformed_files(tmp_path):
    good = tmp_path / "g.btft"
    save_tensor(np.arange(4, dtype=np.float32).reshape(2, 2), good)
    raw = bytearray(good.read_bytes())

    bad = tmp_path / "bad.btft"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(BadMagic):
        load_feature_map(bad)

    wrong_version = bytearray(raw)
    wrong_version[4:8] = struct.pack("<I", 9)
    bad.write_bytes(bytes(wrong_version))
    with pytest.raises(UnsupportedVersion):
        load_feature_map(bad)

    wrong_dtype = bytearray(raw)
    wrong_dtype[8] = 7
    bad.write_bytes(bytes(wrong_dtype))
    with pytest.raises(UnsupportedDtype):
        load_feature_map(bad)

    # header claims 2x2 floats (16 bytes) but payload carries 12, or 20
    for payload_cut in (bytes(raw[:-4]), bytes(raw) + b"\0" * 4):
        bad.write_bytes(payload_cut)
        with pytest.raises(TruncatedPayload, match="header implies 16"):
            load_feature_map(bad)

    bad.write_bytes(bytes(raw[:14]))  # rank 2 needs an 18-byte header
    with pytest.raises(TruncatedPayload, match="header truncated"):
        load_feature_map(bad)

    bad.write_bytes(bytes(raw[:6]))
    with pytest.raises(BadMagic):
        load_feature_map(bad)

    with pytest.raises(IoFailure):
        load_feature_map(tmp_path)  # a directory


def test_toy_backbone_shapes_and_zero_propagation():
    bb = ToyBackbone(np.random.default_rng(2))
    out = bb.forward(np.zeros((2, 224, 224, 3), np.float32))
    assert out.shape == (2, 53, 53, 16)
    assert not np.any(out)
    with pytest.raises(ShapeMismatch):
        bb.forward(np.zeros((1, 64, 64, 3), np.float32))
    with pytest.raises(ShapeMismatch):
        bb.forward(np.zeros((224, 224, 3), np.float32))  # no batch axis


def test_conv_shape_formula_property():
    from gapnet.nn import Conv2D

    rng = np.random.default_rng(3)
    for stride in (1, 2):
        for k in (3, 5):
            layer = Conv2D(2, 3, k, k, stride, rng)
            h, w = int(rng.integers(k, 14)), int(rng.integers(k, 14))
            out = layer.forward(rng.standard_normal((2, h, w, 2)).astype(np.float32))
            assert out.shape == (2, (h - k) // stride + 1, (w - k) // stride + 1, 3)


def test_gradient_flows_through_both_conv_layers():
    # same two-stage structure as the toy backbone, desk-sized extents
    bb = ToyBackbone(np.random.default_rng(4))
    x = np.random.default_rng(5).standard_normal((2, 13, 13, 3)).astype(np.float32) * 0.5
    report = gradient_check(bb.net, x, rng=np.random.default_rng(6))
    assert report.passed, report.per_param
    assert "input" in report.per_param



def test_imported_features_contract(tmp_path):
    from gapnet.pipeline import Model, ModelSpec

    rng = np.random.default_rng(7)
    model = Model(ModelSpec(head_input_channels=8), seed=0)
    assert model.backbone is None  # imported maps carry no trainable backbone
    # GAP takes any spatial extent, so maps of one dataset may differ in H x W;
    # encode pools each map to its 8-channel GAP vector
    vectors = []
    for sid, shape in (("a", (4, 4, 8)), ("b", (4, 4, 8)), ("c", (5, 5, 8))):
        save_tensor(rng.standard_normal(shape).astype(np.float32), tmp_path / f"{sid}.btft")
        fmap = load_feature_map(tmp_path / f"{sid}.btft")
        vectors.append(model.encode(fmap))
        assert vectors[-1].shape == (8,)
        assert np.allclose(vectors[-1], fmap.mean(axis=(0, 1)), atol=1e-6)
    p = model.forward(np.stack(vectors))
    assert p.shape == (3,) and np.all((0.0 < p) & (p < 1.0))
    save_tensor(rng.standard_normal((4, 4, 3)).astype(np.float32), tmp_path / "d.btft")
    with pytest.raises(ShapeMismatch):
        model.encode(load_feature_map(tmp_path / "d.btft"))
