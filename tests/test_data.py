import numpy as np
import pytest

from gapnet.data import (
    ManifestRecord,
    TRANSFORMS,
    augment,
    balance_classes,
    histogram_equalize,
    load_manifest,
    load_pgm,
    normalize,
    replicate_channels,
    resize_bilinear,
    save_manifest,
    split,
)
from gapnet.errors import (
    BadFractions,
    DuplicateId,
    EmptyImage,
    InvalidExtent,
    NonSquareRotation,
    ParseError,
    TargetUnreachable,
)
from synth import save_pgm


def img(values):
    return np.asarray(values, dtype=np.uint8)


# ------------------------------------------------------- manifests

def test_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    records = [
        ManifestRecord(
            sample_id=f"s{i}", path=f"img_{i}.pgm", label=int(rng.integers(0, 2)),
            subject_id=f"subj{int(rng.integers(0, 9))}",
            plane=["axial", "coronal", "sagittal"][int(rng.integers(0, 3))],
            split=["train", "val", "test", "unassigned"][int(rng.integers(0, 4))],
            augmented_from="src" if rng.random() < 0.3 else None,
        )
        for i in range(50)
    ]
    save_manifest(records, tmp_path / "m.jsonl")
    assert load_manifest(tmp_path / "m.jsonl") == records


def test_manifest_empty_and_duplicates(tmp_path):
    (tmp_path / "empty.jsonl").write_text("")
    assert load_manifest(tmp_path / "empty.jsonl") == []

    line = '{"sample_id": "s1", "path": "a.pgm", "label": 1, "subject_id": "x"}\n'
    (tmp_path / "dup.jsonl").write_text(line + line)
    with pytest.raises(DuplicateId):
        load_manifest(tmp_path / "dup.jsonl")

    (tmp_path / "bad.jsonl").write_text('{"sample_id": "s1"}\n')
    with pytest.raises(ParseError, match="line 1"):
        load_manifest(tmp_path / "bad.jsonl")


# ------------------------------------------------------- preprocessing

def test_histogram_equalize_examples():
    assert np.array_equal(histogram_equalize(img([[77, 77], [77, 77]])),
                          img([[77, 77], [77, 77]]))
    assert np.array_equal(histogram_equalize(img([[0, 0], [255, 255]])),
                          img([[0, 0], [255, 255]]))
    assert np.array_equal(histogram_equalize(img([[10, 20, 30, 40]])),
                          img([[0, 85, 170, 255]]))
    with pytest.raises(EmptyImage):
        histogram_equalize(np.zeros((0, 4), np.uint8))


def test_histogram_equalize_near_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.integers(0, 256, (17, 23)).astype(np.uint8)
        once = histogram_equalize(x)
        twice = histogram_equalize(once)
        assert np.abs(twice.astype(int) - once.astype(int)).max() <= 1


def test_resize_bilinear():
    x = rng_image(12, 9, seed=2)
    assert np.array_equal(resize_bilinear(x, 9, 12), x)  # identity extents

    const = img(np.full((5, 7), 42))
    assert np.all(resize_bilinear(const, 13, 3) == 42)

    # golden values frozen from an independent scalar reference (half-pixel centers)
    out = resize_bilinear(img([[0, 255]]), 4, 1)
    assert np.array_equal(out, img([[0, 64, 191, 255]]))
    assert np.array_equal(out, reference_bilinear(img([[0, 255]]), 4, 1))

    with pytest.raises(InvalidExtent):
        resize_bilinear(x, 0, 4)


def rng_image(h, w, seed):
    return np.random.default_rng(seed).integers(0, 256, (h, w)).astype(np.uint8)


def reference_bilinear(src, out_w, out_h):
    """Scalar-loop bilinear oracle, half-pixel centers, clamped borders."""
    in_h, in_w = src.shape
    out = np.zeros((out_h, out_w), np.uint8)
    for oy in range(out_h):
        for ox in range(out_w):
            sy = min(max((oy + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1)
            sx = min(max((ox + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1)
            y0, x0 = int(sy), int(sx)
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            fy, fx = sy - y0, sx - x0
            v = (src[y0, x0] * (1 - fy) * (1 - fx) + src[y0, x1] * (1 - fy) * fx
                 + src[y1, x0] * fy * (1 - fx) + src[y1, x1] * fy * fx)
            out[oy, ox] = min(max(int(np.rint(v)), 0), 255)
    return out


def test_resize_matches_reference_on_random_images():
    # the lerp orderings differ, so allow the half-even rounding edge (one level)
    for seed in range(8):
        src = rng_image(11, 14, seed)
        for out_w, out_h in ((7, 5), (23, 19)):
            got = resize_bilinear(src, out_w, out_h).astype(int)
            want = reference_bilinear(src, out_w, out_h).astype(int)
            assert np.abs(got - want).max() <= 1


def test_normalize_and_replicate():
    x = img([[0, 51], [255, 102]])
    t = normalize(x)
    assert t.shape == (2, 2, 1) and t.dtype == np.float32
    assert t[0, 0, 0] == 0.0 and t[1, 0, 0] == 1.0
    assert abs(t[0, 1, 0] - 0.2) < 1e-7
    assert np.all(t >= 0.0) and np.all(t <= 1.0)
    r = replicate_channels(t)
    assert r.shape == (2, 2, 3)
    assert np.array_equal(r[:, :, 0], r[:, :, 1]) and np.array_equal(r[:, :, 1], r[:, :, 2])


# ------------------------------------------------------- augmentation

def test_augment_involutions_and_cycles():
    x = rng_image(6, 6, seed=3)
    assert np.array_equal(augment(augment(x, "hflip"), "hflip"), x)
    assert np.array_equal(augment(augment(x, "vflip"), "vflip"), x)
    r = x
    for _ in range(4):
        r = augment(r, "rot90")
    assert np.array_equal(r, x)
    assert np.array_equal(augment(img([[1, 2], [3, 4]]), "rot180"), img([[4, 3], [2, 1]]))


def test_augment_is_pixel_permutation():
    x = rng_image(8, 8, seed=4)
    for t in TRANSFORMS:
        out = augment(x, t)
        assert np.array_equal(np.sort(out.ravel()), np.sort(x.ravel()))


def test_augment_rejects_nonsquare_rotation():
    with pytest.raises(NonSquareRotation):
        augment(rng_image(4, 6, seed=5), "rot90")
    augment(rng_image(4, 6, seed=5), "rot180")  # fine


# ------------------------------------------------------- balancing

def mock_manifest(n_tumor, n_clean):
    recs = [ManifestRecord(f"t{i}", f"t{i}.pgm", 1, f"ts{i % 63}") for i in range(n_tumor)]
    recs += [ManifestRecord(f"n{i}", f"n{i}.pgm", 0, f"ns{i % 146}") for i in range(n_clean)]
    return recs


def test_balance_matches_published_arithmetic():
    manifest = mock_manifest(3671, 13273)
    out = balance_classes(manifest, 13252, seed=17)
    tumor = [r for r in out if r.label == 1]
    clean = [r for r in out if r.label == 0]
    assert len(tumor) == 13252 and len(clean) == 13273
    added = [r for r in tumor if r.augmented_from is not None]
    assert len(added) == 13252 - 3671 == 9581
    # no duplicate (source, transform) pair
    assert len({r.sample_id for r in added}) == len(added)


def test_balance_determinism_and_noop():
    manifest = mock_manifest(40, 100)
    a = balance_classes(manifest, 100, seed=5)
    b = balance_classes(manifest, 100, seed=5)
    assert [r.sample_id for r in a] == [r.sample_id for r in b]
    assert balance_classes(manifest, 40, seed=5) == manifest  # target == current count

    # originals and the non-target class come through untouched
    assert a[:len(manifest)] == manifest
    assert [r for r in a if r.label == 0] == [r for r in manifest if r.label == 0]

    with pytest.raises(TargetUnreachable):
        balance_classes(manifest, 40 * 6 + 1, seed=5)


def test_augmented_records_keep_source_label():
    out = balance_classes(mock_manifest(5, 12), 12, seed=2)
    by_id = {r.sample_id: r for r in out}
    for r in out:
        if r.augmented_from is not None:
            assert r.label == by_id[r.augmented_from].label


# ------------------------------------------------------- splits

def test_sample_split_stratified_counts():
    recs = mock_manifest(50, 50)
    out = split(recs, (0.8, 0.2), seed=3, level="sample")
    train = [r for r in out if r.split == "train"]
    val = [r for r in out if r.split == "val"]
    assert len(train) == 80 and len(val) == 20
    assert sum(r.label == 1 for r in train) == 40
    assert sum(r.label == 1 for r in val) == 10


def test_sample_split_ratio_within_one():
    rng = np.random.default_rng(6)
    recs = [ManifestRecord(f"r{i}", "p", int(rng.random() < 0.3), f"s{i}")
            for i in range(137)]
    out = split(recs, (0.7, 0.3), seed=7, level="sample")
    n_pos = sum(r.label for r in recs)
    for name, frac in (("train", 0.7), ("val", 0.3)):
        part = [r for r in out if r.split == name]
        expected = n_pos * len(part) / len(recs)
        assert abs(sum(r.label for r in part) - expected) <= 1.0


def test_subject_split_no_leakage():
    recs = mock_manifest(300, 700)
    out = split(recs, (0.6, 0.2, 0.2), seed=8, level="subject")
    seen = {}
    for r in out:
        assert r.split in ("train", "val", "test")
        assert seen.setdefault(r.subject_id, r.split) == r.split


def test_split_rejects_bad_fractions():
    recs = mock_manifest(4, 4)
    with pytest.raises(BadFractions):
        split(recs, (0.5, 0.6), seed=0)
    with pytest.raises(BadFractions):
        split(recs, (1.0,), seed=0)
    with pytest.raises(BadFractions):
        split(recs, (0.8, -0.2, 0.4), seed=0)


# ------------------------------------------------------- pgm

def test_pgm_round_trip(tmp_path):
    x = rng_image(9, 13, seed=9)
    save_pgm(x, tmp_path / "x.pgm")
    assert np.array_equal(load_pgm(tmp_path / "x.pgm"), x)
    (tmp_path / "bad.pgm").write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ParseError):
        load_pgm(tmp_path / "bad.pgm")
