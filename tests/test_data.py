import tracemalloc

import numpy as np
import pytest

from gapnet.backbone import load_feature_map
from gapnet.cli import main
from gapnet.data import (
    ManifestRecord,
    TRANSFORMS,
    augment,
    balance_classes,
    histogram_equalize,
    load_manifest,
    load_pgm,
    normalize,
    resize_bilinear,
    save_manifest,
    split,
)
from gapnet.errors import GapnetError
from synth import blob_dataset, save_pgm


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


def test_manifest_lines_are_pinned(tmp_path):
    records = [ManifestRecord("a", "a.pgm", 1, "s", plane="axial", split="train"),
               ManifestRecord("a.hflip", "a.pgm", 1, "s", augmented_from="a")]
    save_manifest(records, tmp_path / "m.jsonl")
    assert (tmp_path / "m.jsonl").read_text() == (
        '{"sample_id": "a", "path": "a.pgm", "label": 1, "subject_id": "s", "plane": "axial", '
        '"split": "train"}\n'
        '{"sample_id": "a.hflip", "path": "a.pgm", "label": 1, "subject_id": "s", '
        '"plane": "unknown", "split": "unassigned", "augmented_from": "a"}\n')


def test_manifest_line_defaults_unknown_keys_and_missing_keys(tmp_path):
    (tmp_path / "m.jsonl").write_text(
        '{"subject_id": "s", "extra": [1], "label": 0, "path": "b.pgm", "sample_id": "b"}\n'
        '{"sample_id": "c", "path": "c.pgm", "label": 1, "subject_id": "t", '
        '"split": "val", "augmented_from": "b", "plane": "sagittal"}\n')
    assert load_manifest(tmp_path / "m.jsonl") == [
        ManifestRecord("b", "b.pgm", 0, "s", plane="unknown", split="unassigned"),
        ManifestRecord("c", "c.pgm", 1, "t", plane="sagittal", split="val", augmented_from="b")]
    for line, needle in [('{"path": "a.pgm", "label": 1, "subject_id": "s"}', "'sample_id'"),
                         ('{"sample_id": "a", "path": "a.pgm", "label": 1}', "'subject_id'"),
                         ("[1]", "expected a JSON object, got list"),
                         ("{not json", "not valid JSON")]:
        (tmp_path / "bad.jsonl").write_text(line + "\n")
        with pytest.raises(GapnetError, match=f"bad.jsonl: line 1: {needle}"):
            load_manifest(tmp_path / "bad.jsonl")


@pytest.mark.parametrize("sample_id", ["", ".", "..", "a/b", "../../escaped"])
def test_manifest_rejects_an_id_that_is_not_a_plain_file_name(tmp_path, sample_id):
    save_manifest([ManifestRecord(sample_id, "a.pgm", 1, "s")], tmp_path / "m.jsonl")
    with pytest.raises(GapnetError, match="is not a plain file name"):
        load_manifest(tmp_path / "m.jsonl")


def test_manifest_empty_and_duplicates(tmp_path):
    (tmp_path / "empty.jsonl").write_text("")
    assert load_manifest(tmp_path / "empty.jsonl") == []

    line = '{"sample_id": "s1", "path": "a.pgm", "label": 1, "subject_id": "x"}\n'
    (tmp_path / "dup.jsonl").write_text(line + line)
    with pytest.raises(GapnetError, match="line 2: duplicate sample_id 's1'"):
        load_manifest(tmp_path / "dup.jsonl")

    (tmp_path / "bad.jsonl").write_text('{"sample_id": "s1"}\n')
    with pytest.raises(GapnetError, match="line 1: 'path'"):
        load_manifest(tmp_path / "bad.jsonl")


@pytest.mark.parametrize("label", ["0.9", "1.7", "1.0", '"1"', "true", "null"])
def test_manifest_label_must_be_a_json_integer_0_or_1(tmp_path, label):
    (tmp_path / "m.jsonl").write_text(
        f'{{"sample_id": "a", "path": "a.pgm", "label": {label}, "subject_id": "s"}}\n')
    with pytest.raises(GapnetError, match="line 1: a: label must be 0 or 1, got "):
        load_manifest(tmp_path / "m.jsonl")


# ------------------------------------------------------- preprocessing

def test_histogram_equalize_examples():
    assert np.array_equal(histogram_equalize(img([[77, 77], [77, 77]])),
                          img([[77, 77], [77, 77]]))
    assert np.array_equal(histogram_equalize(img([[0, 0], [255, 255]])),
                          img([[0, 0], [255, 255]]))
    assert np.array_equal(histogram_equalize(img([[10, 20, 30, 40]])),
                          img([[0, 85, 170, 255]]))
    with pytest.raises(GapnetError, match="must be 2-D and non-empty"):
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

    with pytest.raises(GapnetError, match="target extents must be >= 1"):
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


def oracle_equalize(img):
    """Histogram equalization by fancy-indexing the lookup table."""
    counts = np.bincount(img.ravel(), minlength=256)
    cdf = counts.cumsum() / img.size
    cdf_min = cdf[np.nonzero(counts)[0][0]]
    if cdf_min == 1.0:
        return img.copy()
    lut = np.clip(np.rint(255.0 * (cdf - cdf_min) / (1.0 - cdf_min)), 0, 255).astype(np.uint8)
    return lut[img]


def oracle_resize(img, out_w, out_h):
    """Four-corner vectorised bilinear resample: the products and sums, in
    their order, that ``resize_bilinear`` must reproduce bit for bit."""
    in_h, in_w = img.shape
    if (out_h, out_w) == (in_h, in_w):
        return img.copy()
    src_y = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0, in_h - 1)
    src_x = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0, in_w - 1)
    y0 = np.floor(src_y).astype(np.intp)
    x0 = np.floor(src_x).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (src_y - y0)[:, None]
    fx = (src_x - x0)[None, :]
    f = img.astype(np.float64)
    top = f[y0][:, x0] * (1 - fx) + f[y0][:, x1] * fx
    bot = f[y1][:, x0] * (1 - fx) + f[y1][:, x1] * fx
    return np.clip(np.rint(top * (1 - fy) + bot * fy), 0, 255).astype(np.uint8)


# (in_h, in_w, out_h, out_w): down, up, non-square, 1 x N, N x 1 and identity extents;
# 300 x 400 also spans two of histogram_equalize's bincount chunks
RESAMPLE_SHAPES = [(256, 256, 224, 224), (64, 64, 224, 224), (37, 91, 64, 23), (91, 37, 12, 150),
                   (1, 40, 1, 17), (1, 17, 5, 40), (40, 1, 13, 1), (17, 1, 40, 3), (1, 1, 7, 9),
                   (5, 9, 1, 1), (12, 9, 12, 9), (30, 30, 29, 31), (7, 300, 300, 7),
                   (300, 400, 224, 224)]


def test_preprocessing_matches_the_oracles_bit_for_bit():
    rng = np.random.default_rng(14)
    for in_h, in_w, out_h, out_w in RESAMPLE_SHAPES:
        for _ in range(3):
            x = rng.integers(0, 256, (in_h, in_w)).astype(np.uint8)
            assert np.array_equal(resize_bilinear(x, out_w, out_h),
                                  oracle_resize(x, out_w, out_h)), (in_h, in_w, out_h, out_w)
            x = rng.integers(rng.integers(0, 200), 256, (in_h, in_w)).astype(np.uint8)
            assert np.array_equal(histogram_equalize(x), oracle_equalize(x))
    for _ in range(100):
        in_h, in_w, out_h, out_w = (int(v) for v in rng.integers(1, 300, 4))
        x = rng.integers(0, 256, (in_h, in_w)).astype(np.uint8)
        assert np.array_equal(resize_bilinear(x, out_w, out_h), oracle_resize(x, out_w, out_h))


def _edge_image(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    if kind == "over-one-chunk":  # 77,357 pixels: crosses the 65,536-pixel chunk boundary
        return rng.integers(0, 256, (257, 301)).astype(np.uint8)
    if kind == "constant":
        return np.full((40, 50), 77, np.uint8)
    if kind == "two-level":
        return np.where(rng.random((300, 300)) < 0.3, 3, 200).astype(np.uint8)
    if kind == "all-255":
        return np.full((300, 230), 255, np.uint8)
    shape = (1, 300) if kind == "one-row" else (300, 1)
    return rng.integers(0, 256, shape).astype(np.uint8)


@pytest.mark.parametrize("kind", ["over-one-chunk", "constant", "two-level", "all-255",
                                  "one-row", "one-column"])
def test_preprocessing_matches_the_oracles_on_edge_images(kind):
    x = _edge_image(kind)
    equalized = histogram_equalize(x)
    assert np.array_equal(equalized, oracle_equalize(x))
    h, w = x.shape
    # down, up, one row, one column, a point, and each axis alone
    for out_h, out_w in ((max(1, h // 3), max(1, w // 3)), (3 * h, 2 * w + 1), (1, 2 * w),
                         (2 * h, 1), (1, 1), (h, 4 * w), (h // 2 + 1, w)):
        for src in (x, equalized):
            assert np.array_equal(resize_bilinear(src, out_w, out_h),
                                  oracle_resize(src, out_w, out_h)), (out_h, out_w)


def test_resize_switching_shapes_never_aliases_a_result():
    a = rng_image(256, 256, seed=20)
    b = rng_image(31, 47, seed=21)
    first = resize_bilinear(a, 224, 224)
    kept = first.copy()
    for x, out_w, out_h in ((b, 224, 224), (a, 224, 224), (b, 224, 224), (a, 13, 224)):
        assert np.array_equal(resize_bilinear(x, out_w, out_h), oracle_resize(x, out_w, out_h))
    assert np.array_equal(first, kept)  # later calls wrote no byte of an earlier result
    assert not np.shares_memory(resize_bilinear(a, 224, 224), resize_bilinear(a, 224, 224))


def test_resize_faults_in_no_fresh_pages_per_call():
    resource = pytest.importorskip("resource")
    x = rng_image(256, 256, seed=22)
    for _ in range(5):
        resize_bilinear(x, 224, 224)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        resize_bilinear(x, 224, 224)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 50 < 50, f"{faults / 50:.0f} minor page faults per call"


@pytest.fixture
def traced():
    """traced(fn, *args) -> (bytes ``fn(*args)`` left allocated, its peak bytes)."""
    def run(fn, *args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        now, peak = tracemalloc.get_traced_memory()
        return now - base, peak - base
    tracemalloc.start()
    yield run
    tracemalloc.stop()


def test_preprocessing_memory_follows_the_image_not_eight_bytes_a_pixel(traced):
    big = rng_image(2048, 2048, seed=23)  # 4 MiB; an intp or float64 copy is 32 MiB
    _, peak = traced(histogram_equalize, big)
    assert peak < 2 * big.nbytes, f"equalize peaked at {peak / 2**20:.1f} MiB"
    _, peak = traced(resize_bilinear, big, 224, 224)
    assert peak < big.nbytes, f"resize peaked at {peak / 2**20:.1f} MiB"


def test_resize_keeps_one_plan_sized_by_its_output(traced):
    held, _ = traced(resize_bilinear, rng_image(4096, 64, seed=24), 224, 224)
    assert held < 4 * 2**20, f"a 4096-row input left {held / 2**20:.1f} MiB held"
    freed, peak = traced(resize_bilinear, rng_image(16, 16, seed=25), 224, 224)
    held += freed
    assert held < 1.5 * 2**20, f"{held / 2**20:.1f} MiB held after a 16x16 input"
    assert peak < 64 * 2**10, f"a new shape's call peaked {peak / 2**10:.0f} KiB above the last plan"


@pytest.fixture(scope="module")
def raw_images(tmp_path_factory):
    root = tmp_path_factory.mktemp("raw")
    images = {}
    for subj, label, im in blob_dataset(n_subjects=4, per_subject=3, size=40, seed=14):
        sub = root / ("tumor" if label else "non_tumor")
        sub.mkdir(exist_ok=True)
        stem = f"{subj}_axial_{len(list(sub.glob(f'{subj}_*')))}"
        save_pgm(im, sub / f"{stem}.pgm")
        images[stem] = im
    return root, images


@pytest.mark.parametrize("size", [24, 40, 57])
def test_prepare_writes_the_oracle_tensor_of_every_record(raw_images, tmp_path, size):
    root, images = raw_images
    out = tmp_path / "m.jsonl"
    assert main(["prepare", str(root), str(out), "--seed", "2", "--balance-to", "9",
                 "--level", "sample", "--image-size", str(size)]) == 0
    records = load_manifest(out)
    assert sum(r.augmented_from is not None for r in records) == 6
    for rec in records:
        src = images[rec.augmented_from or rec.sample_id]
        if rec.augmented_from is not None:
            src = augment(src, rec.sample_id.removeprefix(f"{rec.augmented_from}."))
        want = normalize(oracle_resize(oracle_equalize(src), size, size))
        got = load_feature_map(out.parent / rec.path)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), rec.sample_id


def test_normalize():
    x = img([[0, 51], [255, 102]])
    t = normalize(x)
    assert t.shape == (2, 2, 1) and t.dtype == np.float32
    assert t[0, 0, 0] == 0.0 and t[1, 0, 0] == 1.0
    assert abs(t[0, 1, 0] - 0.2) < 1e-7
    assert np.all(t >= 0.0) and np.all(t <= 1.0)
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16)  # every level, the old form's bits
    assert normalize(levels).tobytes() == (levels.astype(np.float32) / np.float32(255.0)).tobytes()


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
    with pytest.raises(GapnetError, match="rot90 needs a square image"):
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

    with pytest.raises(GapnetError, match="target 241 exceeds capacity 240"):
        balance_classes(manifest, 40 * 6 + 1, seed=5)


def test_balance_draws_are_pinned():
    out = balance_classes(mock_manifest(5, 12), 12, seed=2)
    assert [r.sample_id for r in out[17:]] == [
        "t2.rot270", "t4.vflip", "t4.hflip", "t1.rot90", "t3.vflip", "t3.rot180", "t4.rot180"]


def test_balance_augmented_records_are_pinned():
    manifest = [ManifestRecord("t0", "t0.pgm", 1, "s0", plane="axial", split="train"),
                ManifestRecord("t1", "t1.pgm", 1, "s1", plane="coronal", split="val")]
    manifest += [ManifestRecord(f"n{i}", f"n{i}.pgm", 0, f"m{i}") for i in range(5)]
    out = balance_classes(manifest, 5, seed=3)
    assert out[:7] == manifest
    assert [(r.sample_id, r.path, r.subject_id, r.plane) for r in out[7:]] == [
        ("t1.rot270", "t1.pgm", "s1", "coronal"), ("t1.vflip", "t1.pgm", "s1", "coronal"),
        ("t0.hflip", "t0.pgm", "s0", "axial")]
    assert all((r.label, r.split) == (1, "unassigned") for r in out[7:])
    assert [r.augmented_from for r in out[7:]] == ["t1", "t1", "t0"]


def test_rebalance_draws_only_free_ids():
    once = balance_classes(mock_manifest(40, 100), 80, seed=5)
    twice = balance_classes(once, 100, seed=6)
    ids = [r.sample_id for r in twice]
    assert len(ids) == len(set(ids)) == 200
    assert twice[:len(once)] == once
    # an original whose id looks augmented is a source like any other
    held = [ManifestRecord("a", "a.pgm", 1, "s"), ManifestRecord("a.hflip", "b.pgm", 1, "s")]
    out = balance_classes(held + mock_manifest(0, 11), 11, seed=1)  # every free pair
    assert len({r.sample_id for r in out}) == len(out) == 22
    # capacity counts the free pairs: each original and its five transforms
    assert len(balance_classes(once, 240, seed=6)) == 2 * 240
    with pytest.raises(GapnetError, match="target 241 exceeds capacity 240"):
        balance_classes(once, 241, seed=6)


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


def test_split_assignment_is_pinned_at_both_levels():
    # labels of each subject's records; c is a tie (-> tumor stratum), d and g majorities
    subjects = {"a": [1, 1], "b": [0], "c": [1, 0], "d": [0, 0, 1], "e": [1],
                "f": [0, 0], "g": [1, 1, 0], "h": [0]}
    recs = [ManifestRecord(f"{s}{k}", "p", y, s)
            for s, labels in subjects.items() for k, y in enumerate(labels)]
    expected = {"sample": "tr va te tr tr va tr te te va tr tr va te tr",
                "subject": "va va va tr tr tr tr tr te te te tr tr tr tr"}
    for level, splits in expected.items():
        out = split(recs, (0.5, 0.25, 0.25), seed=11, level=level)
        assert " ".join(r.split[:2] for r in out) == splits


@pytest.mark.parametrize("level", ["sample", "subject"])
def test_augmented_twins_share_their_source_split(level):
    # every augmentation permutes pixels, so a twin across splits leaks its image
    recs = balance_classes(mock_manifest(12, 40), 40, seed=4)
    for seed in range(6):
        out = split(recs, (0.6, 0.2, 0.2), seed=seed, level=level)
        where = {r.sample_id: r.split for r in out}
        assert [r.sample_id for r in out
                if r.augmented_from and r.split != where[r.augmented_from]] == []


def test_split_rejects_bad_fractions():
    recs = mock_manifest(4, 4)
    with pytest.raises(GapnetError, match="fractions must sum to 1"):
        split(recs, (0.5, 0.6), seed=0)
    with pytest.raises(GapnetError, match="need 2 or 3 fractions"):
        split(recs, (1.0,), seed=0)
    with pytest.raises(GapnetError, match="fractions must be positive"):
        split(recs, (0.8, -0.2, 0.4), seed=0)
    with pytest.raises(GapnetError, match="fractions must be positive"):
        split(recs, (float("nan"), 1.0), seed=0)


# ------------------------------------------------------- pgm

def test_pgm_round_trip(tmp_path):
    x = rng_image(9, 13, seed=9)
    save_pgm(x, tmp_path / "x.pgm")
    assert np.array_equal(load_pgm(tmp_path / "x.pgm"), x)
    (tmp_path / "bad.pgm").write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(GapnetError, match=r"not a binary PGM \(P5\) file"):
        load_pgm(tmp_path / "bad.pgm")


def test_pgm_header_comments_are_skipped(tmp_path):
    x = rng_image(3, 4, seed=2)
    save_pgm(x, tmp_path / "plain.pgm")
    (tmp_path / "commented.pgm").write_bytes(
        b"P5 # a comment after the magic\n# a comment line\n4 # width\n3\n# maxval next\n255\n"
        + x.tobytes())
    assert np.array_equal(load_pgm(tmp_path / "commented.pgm"), load_pgm(tmp_path / "plain.pgm"))


@pytest.mark.parametrize("data, needle", [
    pytest.param(b"P5\n4 three\n255\n" + bytes(12), "bad PGM header", id="extent-not-a-number"),
    pytest.param(b"P5\n4", "bad PGM header", id="header-cut-short"),
    pytest.param(b"P5\n4 3\n65535\n" + bytes(24), "only maxval 255 supported, got 65535",
                 id="maxval-not-255"),
    pytest.param(b"P5\n4 3\n255\n" + bytes(11), "expected 12 pixels, got 11",
                 id="payload-short"),
])
def test_pgm_bad_headers_raise_parse_error(tmp_path, data, needle):
    (tmp_path / "bad.pgm").write_bytes(data)
    with pytest.raises(GapnetError, match=needle):
        load_pgm(tmp_path / "bad.pgm")
