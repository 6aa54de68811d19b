"""Dataset manifests, grayscale preprocessing, augmentation, balancing, splits.

Gray images are uint8 numpy arrays of shape (height, width). Manifests
are newline-delimited JSON, one flat record per line, order preserving.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadFractions,
    DuplicateId,
    EmptyImage,
    InvalidExtent,
    IoFailure,
    NonSquareRotation,
    ParseError,
    TargetUnreachable,
)

PLANES = ("axial", "coronal", "sagittal", "unknown")
SPLITS = ("train", "val", "test", "unassigned")
TRANSFORMS = ("hflip", "vflip", "rot90", "rot180", "rot270")


@dataclass
class ManifestRecord:
    sample_id: str
    path: str
    label: int
    subject_id: str
    plane: str = "unknown"
    split: str = "unassigned"
    augmented_from: str | None = None

    def validate(self):
        if self.label not in (0, 1):
            raise ParseError(f"{self.sample_id}: label must be 0 or 1, got {self.label}")
        if self.plane not in PLANES:
            raise ParseError(f"{self.sample_id}: unknown plane {self.plane!r}")
        if self.split not in SPLITS:
            raise ParseError(f"{self.sample_id}: unknown split {self.split!r}")
        return self


def load_manifest(path):
    records = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rec = ManifestRecord(
                    sample_id=obj["sample_id"],
                    path=obj["path"],
                    label=int(obj["label"]),
                    subject_id=obj["subject_id"],
                    plane=obj.get("plane", "unknown"),
                    split=obj.get("split", "unassigned"),
                    augmented_from=obj.get("augmented_from"),
                ).validate()
            except (ValueError, KeyError, TypeError) as e:
                raise ParseError(f"{path}: line {lineno}: {e}") from e
            if rec.sample_id in seen:
                raise DuplicateId(f"{path}: line {lineno}: duplicate sample_id {rec.sample_id!r}")
            seen.add(rec.sample_id)
            records.append(rec)
    return records


def save_manifest(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "sample_id": rec.sample_id,
                "path": rec.path,
                "label": rec.label,
                "subject_id": rec.subject_id,
                "plane": rec.plane,
                "split": rec.split,
            }
            if rec.augmented_from is not None:
                obj["augmented_from"] = rec.augmented_from
            fh.write(json.dumps(obj) + "\n")


# ------------------------------------------------------- gray images

def gray_image(values):
    arr = np.ascontiguousarray(values, dtype=np.uint8)
    if arr.ndim != 2 or arr.size == 0:
        raise EmptyImage(f"gray image must be 2-D and non-empty, got shape {arr.shape}")
    return arr


def histogram_equalize(img):
    """Spread the empirical intensity cdf across [0, 255].

    out(v) = round(255 * (cdf(v) - cdf_min) / (1 - cdf_min)); constant
    images come back unchanged.
    """
    img = gray_image(img)
    counts = np.bincount(img.ravel(), minlength=256)
    cdf = counts.cumsum() / img.size
    cdf_min = cdf[np.nonzero(counts)[0][0]]
    if cdf_min == 1.0:  # single intensity level
        return img.copy()
    lut = np.rint(255.0 * (cdf - cdf_min) / (1.0 - cdf_min))
    lut = np.clip(lut, 0, 255).astype(np.uint8)
    return lut[img]


def resize_bilinear(img, out_w, out_h):
    """Bilinear resample with half-pixel centers and clamped borders."""
    img = gray_image(img)
    if out_w < 1 or out_h < 1:
        raise InvalidExtent(f"target extents must be >= 1, got {out_w}x{out_h}")
    in_h, in_w = img.shape
    if (out_h, out_w) == (in_h, in_w):
        return img.copy()
    sy = in_h / out_h
    sx = in_w / out_w
    src_y = np.clip((np.arange(out_h) + 0.5) * sy - 0.5, 0, in_h - 1)
    src_x = np.clip((np.arange(out_w) + 0.5) * sx - 0.5, 0, in_w - 1)
    y0 = np.floor(src_y).astype(np.intp)
    x0 = np.floor(src_x).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (src_y - y0)[:, None]
    fx = (src_x - x0)[None, :]
    f = img.astype(np.float64)
    top = f[y0][:, x0] * (1 - fx) + f[y0][:, x1] * fx
    bot = f[y1][:, x0] * (1 - fx) + f[y1][:, x1] * fx
    out = top * (1 - fy) + bot * fy
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def normalize(img):
    """uint8 image -> float32 H x W x 1 tensor in [0, 1]."""
    img = gray_image(img)
    return (img.astype(np.float32) / np.float32(255.0))[:, :, None]


def replicate_channels(t):
    if t.ndim != 3 or t.shape[2] != 1:
        raise InvalidExtent(f"expected H x W x 1, got {t.shape}")
    return np.repeat(t, 3, axis=2)


def augment(img, transform):
    """Exact pixel permutations only; label-preserving by construction."""
    img = gray_image(img)
    if transform in ("rot90", "rot270") and img.shape[0] != img.shape[1]:
        raise NonSquareRotation(f"{transform} needs a square image, got {img.shape}")
    if transform == "hflip":
        return np.ascontiguousarray(img[:, ::-1])
    if transform == "vflip":
        return np.ascontiguousarray(img[::-1, :])
    if transform == "rot90":
        return np.ascontiguousarray(np.rot90(img, 1))
    if transform == "rot180":
        return np.ascontiguousarray(np.rot90(img, 2))
    if transform == "rot270":
        return np.ascontiguousarray(np.rot90(img, 3))
    raise ParseError(f"unknown transform {transform!r}")


# ------------------------------------------------------- balancing / splits

def balance_classes(manifest, target_per_class, seed, materialize=None):
    """Top up under-represented classes with augmented records.

    Draws (source, transform) pairs without replacement under the seed;
    classes at or above the target and all original records are left
    untouched. ``materialize(record, transform, new_id)`` may produce the
    augmented file and return its path; otherwise the source path is
    reused.
    """
    rng = np.random.default_rng(seed)
    out = list(manifest)
    for label in (0, 1):
        class_records = [r for r in manifest if r.label == label]
        if not class_records or len(class_records) >= target_per_class:
            continue
        sources = [r for r in class_records if r.augmented_from is None]
        capacity = len(class_records) + len(sources) * len(TRANSFORMS)
        if target_per_class > capacity:
            raise TargetUnreachable(
                f"label {label}: target {target_per_class} exceeds capacity {capacity}"
            )
        need = target_per_class - len(class_records)
        pairs = [(rec, t) for rec in sources for t in TRANSFORMS]
        order = rng.permutation(len(pairs))[:need]
        for idx in order:
            src, transform = pairs[idx]
            new_id = f"{src.sample_id}.{transform}"
            path = materialize(src, transform, new_id) if materialize else src.path
            out.append(ManifestRecord(
                sample_id=new_id,
                path=str(path),
                label=src.label,
                subject_id=src.subject_id,
                plane=src.plane,
                split="unassigned",
                augmented_from=src.sample_id,
            ))
    return out


def _allocate(n, fractions):
    # largest-remainder allocation; remainders tie-broken by split order
    exact = [n * f for f in fractions]
    base = [math.floor(e) for e in exact]
    leftover = n - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def _check_fractions(fractions):
    if len(fractions) not in (2, 3):
        raise BadFractions(f"need 2 or 3 fractions, got {len(fractions)}")
    if any(f <= 0 for f in fractions):
        raise BadFractions(f"fractions must be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise BadFractions(f"fractions must sum to 1, got sum {sum(fractions)}")
    return SPLITS[:len(fractions)]


def split(manifest, fractions, seed, level="subject"):
    """Assign stratified train/val[/test] splits, deterministic under the seed.

    SUBJECT level keeps every record of one subject in a single split.
    """
    names = _check_fractions(fractions)
    if level not in ("sample", "subject"):
        raise BadFractions(f"level must be 'sample' or 'subject', got {level!r}")
    rng = np.random.default_rng(seed)
    assignment = {}

    if level == "sample":
        for label in (0, 1):
            ids = [r.sample_id for r in manifest if r.label == label]
            if not ids:
                continue
            perm = rng.permutation(len(ids))
            counts = _allocate(len(ids), fractions)
            cursor = 0
            for name, count in zip(names, counts):
                for k in perm[cursor:cursor + count]:
                    assignment[ids[k]] = name
                cursor += count
    else:
        subjects = {}
        for r in manifest:
            subjects.setdefault(r.subject_id, []).append(r.label)
        subject_ids = list(subjects)
        for label in (0, 1):
            # a subject's stratum is its records' majority label, ties -> tumor
            group = [s for s in subject_ids
                     if (1 if 2 * sum(subjects[s]) >= len(subjects[s]) else 0) == label]
            if not group:
                continue
            perm = rng.permutation(len(group))
            counts = _allocate(len(group), fractions)
            cursor = 0
            for name, count in zip(names, counts):
                for k in perm[cursor:cursor + count]:
                    assignment[group[k]] = name
                cursor += count

    out = []
    for r in manifest:
        key = r.sample_id if level == "sample" else r.subject_id
        out.append(replace(r, split=assignment[key]))
    return out


# ------------------------------------------------------- PGM (P5) raster i/o

def load_pgm(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise  # a missing resource, not a bad input
    except OSError as e:
        raise IoFailure(f"cannot read image {path}: {e}") from e
    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            if data[pos:pos + 1].isspace():
                pos += 1
            elif data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos] not in (10, 13):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        return data[start:pos]

    if token() != b"P5":
        raise ParseError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError as e:
        raise ParseError(f"{path}: bad PGM header") from e
    if maxval != 255:
        raise ParseError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    pixels = data[pos:pos + width * height]
    if len(pixels) != width * height:
        raise ParseError(f"{path}: expected {width * height} pixels, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).copy()
