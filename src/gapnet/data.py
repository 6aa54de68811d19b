"""Dataset manifests, grayscale preprocessing, augmentation, balancing, splits.

Gray images are uint8 numpy arrays of shape (height, width). Manifests
are newline-delimited JSON, one flat record per line, order preserving.
"""

import json
import math
import os
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .backbone import write_atomic
from .errors import GapnetError, json_object

PLANES = ("axial", "coronal", "sagittal", "unknown")
SPLITS = ("train", "val", "test", "unassigned")
# the label-preserving pixel permutations, in the order balance_classes draws them
TRANSFORMS = {
    "hflip": lambda img: img[:, ::-1],
    "vflip": lambda img: img[::-1, :],
    "rot90": lambda img: np.rot90(img, 1),
    "rot180": lambda img: np.rot90(img, 2),
    "rot270": lambda img: np.rot90(img, 3),
}


def plain_name(name):
    """Whether ``name`` is a string that names a file in a directory and nowhere else."""
    return (isinstance(name, str) and name not in ("", ".", "..")
            and not any(c in name for c in ("/", os.sep, "\0")))


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
        for field in ("sample_id", "path", "subject_id", "augmented_from"):
            value = getattr(self, field)
            if not isinstance(value, str) and (value is not None or field != "augmented_from"):
                raise GapnetError(f"{field} must be a string, got {value!r}")
            if field in ("sample_id", "path") and "\0" in value:  # no OS call takes one
                raise GapnetError(f"{field} {value!r} contains a NUL byte")
        if not plain_name(self.sample_id):  # it names the files prepare and extract write
            raise GapnetError(f"sample_id {self.sample_id!r} is not a plain file name")
        if type(self.label) is not int or self.label not in (0, 1):  # not 0.9, "1" or true
            raise GapnetError(f"{self.sample_id}: label must be 0 or 1, got {self.label!r}")
        if self.plane not in PLANES:
            raise GapnetError(f"{self.sample_id}: unknown plane {self.plane!r}")
        if self.split not in SPLITS:
            raise GapnetError(f"{self.sample_id}: unknown split {self.split!r}")
        return self


# (name, required) of each ManifestRecord field: a manifest line must hold the required ones
_FIELDS = tuple((f.name, f.default is MISSING) for f in fields(ManifestRecord))


def load_manifest(path):
    """A manifest's records; a line's absent optional keys default, unknown ones are ignored."""
    records = []
    seen = set()
    with open(path, "rb") as fh:  # each line decoded on its own: a bad byte names its line
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            obj = json_object(line, where)
            try:
                rec = ManifestRecord(**{name: obj[name] for name, required in _FIELDS
                                        if required or name in obj}).validate()
            except (KeyError, GapnetError) as e:
                raise GapnetError(f"{where}: {e}") from e
            if rec.sample_id in seen:
                raise GapnetError(f"{where}: duplicate sample_id {rec.sample_id!r}")
            seen.add(rec.sample_id)
            records.append(rec)
    return records


def save_manifest(records, path):
    lines = []
    for rec in records:
        obj = vars(rec).copy()
        if rec.augmented_from is None:
            del obj["augmented_from"]
        lines.append(json.dumps(obj) + "\n")
    write_atomic(path, "".join(lines).encode())


# ------------------------------------------------------- gray images

def gray_image(values):
    arr = np.ascontiguousarray(values, dtype=np.uint8)
    if arr.ndim != 2 or arr.size == 0:
        raise GapnetError(f"gray image must be 2-D and non-empty, got shape {arr.shape}")
    return arr


def histogram_equalize(img):
    """Spread the empirical intensity cdf across [0, 255].

    out(v) = round(255 * (cdf(v) - cdf_min) / (1 - cdf_min)); constant
    images come back unchanged.
    """
    img = gray_image(img)
    flat = img.ravel()
    step = 1 << 16  # bincount copies its input as intp; chunks bound that copy
    counts = sum(np.bincount(flat[at:at + step], minlength=256)
                 for at in range(0, flat.size, step))
    cdf = counts.cumsum() / img.size
    cdf_min = cdf[np.nonzero(counts)[0][0]]
    if cdf_min == 1.0:  # single intensity level
        return img.copy()
    lut = np.rint(255.0 * (cdf - cdf_min) / (1.0 - cdf_min))
    table = np.clip(lut, 0, 255).astype(np.uint8).tobytes()
    out = np.empty_like(flat)
    # bytes.translate maps a byte at a time; lut[img] and np.take copy img as intp
    for at in range(0, flat.size, step):
        out[at:at + step] = np.frombuffer(flat[at:at + step].tobytes().translate(table), np.uint8)
    return out.reshape(img.shape)


_plans = {}  # the plan of the last shape resampled, by shape


def _resample_plan(in_h, in_w, out_h, out_w):
    """Source indices, blend weights and scratch buffers of one resample shape.

    Only the input rows the output reads (at most 2 * out_h) are gathered,
    and none when it reads them all, so the buffers grow with the output
    and the input width, not the input.
    """
    key = (in_h, in_w, out_h, out_w)
    if key in _plans:
        return _plans[key]
    _plans.clear()  # free the last shape's buffers before taking new ones
    sy = in_h / out_h
    sx = in_w / out_w
    src_y = np.clip((np.arange(out_h) + 0.5) * sy - 0.5, 0, in_h - 1)
    src_x = np.clip((np.arange(out_w) + 0.5) * sx - 0.5, 0, in_w - 1)
    y0 = np.floor(src_y).astype(np.intp)
    x0 = np.floor(src_x).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = (src_y - y0)[:, None]
    fx = src_x - x0
    read, at = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    n = len(read)
    _plans[key] = ((read, at[:out_h], at[out_h:], 1 - fy, fy), (x0, x1, 1 - fx, fx),
                   (np.empty((n, in_w), np.uint8) if n < in_h else None,
                    np.empty((n, out_w), np.uint8)),
                   (np.empty((n, out_w)), np.empty((n, out_w))),
                   (np.empty((out_h, out_w)), np.empty((out_h, out_w))))
    return _plans[key]


def resize_bilinear(img, out_w, out_h):
    """Bilinear resample with half-pixel centers and clamped borders.

    Each input row the output reads is blended along x once, then those
    rows along y, in scratch buffers kept with the plan of the last shape
    resampled (the slices of one series share a shape); only the returned
    array is new. Not reentrant: two concurrent calls of one shape would
    share those buffers.
    """
    img = gray_image(img)
    if out_w < 1 or out_h < 1:
        raise GapnetError(f"target extents must be >= 1, got {out_w}x{out_h}")
    in_h, in_w = img.shape
    if (out_h, out_w) == (in_h, in_w):
        return img.copy()
    plan = _resample_plan(in_h, in_w, out_h, out_w)
    (read, y0, y1, wy0, wy1), (x0, x1, wx0, wx1), (picked, taken), (rows, part), (out, tmp) = plan
    # mode="clip" keeps np.take from buffering; every index is in range already
    if picked is not None:
        img = np.take(img, read, axis=0, out=picked, mode="clip")
    # one uint8 -> float64 copy, then an in-place product: a mixed-type
    # multiply would cast through numpy's small buffers
    np.copyto(rows, np.take(img, x0, axis=1, out=taken, mode="clip"))
    np.multiply(rows, wx0, out=rows)
    np.copyto(part, np.take(img, x1, axis=1, out=taken, mode="clip"))
    np.multiply(part, wx1, out=part)
    np.add(rows, part, out=rows)
    np.multiply(np.take(rows, y0, axis=0, out=out, mode="clip"), wy0, out=out)
    np.multiply(np.take(rows, y1, axis=0, out=tmp, mode="clip"), wy1, out=tmp)
    np.add(out, tmp, out=out)
    # no clip: each blend of [0, 255] values has weights summing to 1, so it
    # lies within an ulp or so of [0, 255] and rounds into it
    np.rint(out, out=out)
    return out.astype(np.uint8)


def normalize(img):
    """uint8 image -> float32 H x W x 1 tensor in [0, 1]."""
    img = gray_image(img)
    return np.divide(img, np.float32(255), dtype=np.float32)[:, :, None]


def augment(img, transform):
    """Exact pixel permutations only; label-preserving by construction."""
    img = gray_image(img)
    if transform not in TRANSFORMS:
        raise GapnetError(f"unknown transform {transform!r}")
    if transform in ("rot90", "rot270") and img.shape[0] != img.shape[1]:
        raise GapnetError(f"{transform} needs a square image, got {img.shape}")
    return np.ascontiguousarray(TRANSFORMS[transform](img))


# ------------------------------------------------------- balancing / splits

def balance_classes(manifest, target_per_class, seed):
    """Top up under-represented classes with augmented records.

    Draws (source, transform) pairs without replacement under the seed,
    skipping pairs whose id ``<source id>.<transform>`` the manifest
    already holds; classes at or above the target and all original
    records are left untouched. An augmented record keeps its source's
    path; ``load_image`` applies the transform its id names to the pixels.
    """
    rng = np.random.default_rng(seed)
    taken = {r.sample_id for r in manifest}
    out = list(manifest)
    for label in (0, 1):
        class_records = [r for r in manifest if r.label == label]
        if not class_records or len(class_records) >= target_per_class:
            continue
        pairs = [(rec, t) for rec in class_records if rec.augmented_from is None
                 for t in TRANSFORMS if f"{rec.sample_id}.{t}" not in taken]
        capacity = len(class_records) + len(pairs)
        if target_per_class > capacity:
            raise GapnetError(
                f"label {label}: target {target_per_class} exceeds capacity {capacity}"
            )
        order = rng.permutation(len(pairs))[:target_per_class - len(class_records)]
        for idx in order:
            src, transform = pairs[idx]
            out.append(replace(src, sample_id=f"{src.sample_id}.{transform}",
                               split="unassigned", augmented_from=src.sample_id))
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
        raise GapnetError(f"need 2 or 3 fractions, got {len(fractions)}")
    if not all(f > 0 for f in fractions):  # NaN fails this too
        raise GapnetError(f"fractions must be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise GapnetError(f"fractions must sum to 1, got sum {sum(fractions)}")
    return SPLITS[:len(fractions)]


def split(manifest, fractions, seed, level="subject"):
    """Assign stratified train/val[/test] splits, deterministic under the seed.

    The unit of assignment is a sample with its augmented twins or, at
    SUBJECT level, a subject, whose records all land in one split. A unit's
    stratum is its records' majority label, ties -> tumor.
    """
    names = _check_fractions(fractions)
    if level not in ("sample", "subject"):
        raise GapnetError(f"level must be 'sample' or 'subject', got {level!r}")
    units = [r.subject_id if level == "subject" else r.augmented_from or r.sample_id
             for r in manifest]
    labels = {}
    for u, r in zip(units, manifest):
        labels.setdefault(u, []).append(r.label)
    rng = np.random.default_rng(seed)
    assignment = {}
    for label in (0, 1):
        group = [u for u, ys in labels.items() if int(2 * sum(ys) >= len(ys)) == label]
        if not group:
            continue
        perm = rng.permutation(len(group))
        cursor = 0
        for name, count in zip(names, _allocate(len(group), fractions)):
            for k in perm[cursor:cursor + count]:
                assignment[group[k]] = name
            cursor += count
    return [replace(r, split=assignment[u]) for u, r in zip(units, manifest)]


# ------------------------------------------------------- PGM (P5) raster i/o

def load_pgm(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise  # a missing resource, not a bad input
    except OSError as e:
        raise GapnetError(f"cannot read image {path}: {e}") from e
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
        raise GapnetError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError as e:
        raise GapnetError(f"{path}: bad PGM header") from e
    if width < 1 or height < 1:
        raise GapnetError(f"{path}: bad PGM header: {width}x{height} pixels")
    if maxval != 255:
        raise GapnetError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    pixels = data[pos:pos + width * height]
    if len(pixels) != width * height:
        raise GapnetError(f"{path}: expected {width * height} pixels, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).copy()


def load_image(rec):
    """A manifest record's gray pixels: its PGM, transformed as its id
    ``<augmented_from>.<transform>`` names when it is an augmented record."""
    img = load_pgm(rec.path)
    if rec.augmented_from is None:
        return img
    return augment(img, rec.sample_id.removeprefix(f"{rec.augmented_from}."))
