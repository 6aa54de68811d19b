"""Synthetic bright-blob vs blob-free image set and small helpers shared by the test suite."""

import numpy as np

from gapnet.data import ManifestRecord, gray_image, normalize


def blob_dataset(n_subjects=40, per_subject=10, size=224, seed=123):
    """Seeded noise images; odd subjects get a bright Gaussian blob.

    Returns a list of (subject_id, label, uint8 image) with one label per
    subject, so subject-level splits stay stratified.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    lo, hi = size * 0.27, size * 0.73
    samples = []
    for s in range(n_subjects):
        label = s % 2
        for i in range(per_subject):
            img = rng.normal(100.0, 20.0, (size, size))
            if label == 1:
                cy, cx = rng.uniform(lo, hi, 2)
                sig = rng.uniform(size * 0.08, size * 0.13)
                amp = rng.uniform(70.0, 110.0)
                img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sig ** 2))
            samples.append((f"subj{s:03d}", label, np.clip(img, 0, 255).astype(np.uint8)))
    return samples


def as_records(samples):
    return [
        ManifestRecord(sample_id=f"{subj}_{i:03d}", path=f"{subj}_{i:03d}.none",
                       label=label, subject_id=subj)
        for i, (subj, label, _) in enumerate(samples)
    ]


def as_model_input(img):
    """A gray image as the toy backbone's (H, W, 1) input, as ``prepare`` writes it."""
    return normalize(img)


def save_pgm(img, path):
    """Write a 2-D uint8 image as a binary (P5) PGM."""
    img = gray_image(img)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def count_parameters(model):
    """Exact count of weight and bias elements (imported backbones add none)."""
    return sum(layer.params[pname].size
               for _, layer, pname in model.parameters(trainable_only=False))
