"""Model assembly: feature head, classifier heads, inference, and checkpoints.

A model is GAP -> Dense(projection_dim) followed by one of three
classifier heads ending in a single unit, the logit. ``sigmoid`` turns
logits into tumor probabilities, and the decision rule is a strict
threshold comparison on a probability.

Unless the backbone trains, everything up to and including GAP is
frozen, so a sample is encoded once into its GAP vector and every
trained layer runs on (B, C) batches of those vectors.
"""

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .backbone import (TOY_CHANNELS, TOY_INPUT_SHAPE, load_feature_map, save_tensor,
                       toy_backbone, write_atomic)
from .errors import GapnetError, json_object, require_counts, require_numbers
from .nn import Conv1D, Dense, Dropout, GlobalAvgPool, ReLU, Sequential

CLASSIFIERS = ("dfn", "fcnn", "cnn1d")
BACKBONES = ("imported_features", "toy_cnn")


@dataclass
class ModelSpec:
    backbone: str = "imported_features"
    head_input_channels: int = 2048
    projection_dim: int = 512
    classifier: str = "dfn"
    hidden_widths: tuple = (256, 128)
    dropout_rates: tuple = (0.5, 0.3)
    conv_filters: int = 8
    conv_kernel: int = 3
    decision_threshold: float = 0.5
    backbone_trainable: bool = False

    def validate(self):
        if self.backbone not in BACKBONES:
            raise GapnetError(f"unknown backbone {self.backbone!r}")
        if self.classifier not in CLASSIFIERS:
            raise GapnetError(f"unknown classifier {self.classifier!r}")
        for name in ("hidden_widths", "dropout_rates"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise GapnetError(f"{name} must be a list, got {getattr(self, name)!r}")
        require_numbers(decision_threshold=self.decision_threshold,
                        **{f"dropout_rates[{i}]": r for i, r in enumerate(self.dropout_rates)})
        require_counts(head_input_channels=self.head_input_channels,
                       projection_dim=self.projection_dim, conv_filters=self.conv_filters,
                       conv_kernel=self.conv_kernel,
                       **{f"hidden_widths[{i}]": w for i, w in enumerate(self.hidden_widths)})
        if not isinstance(self.backbone_trainable, bool):
            raise GapnetError(f"backbone_trainable is not a bool: {self.backbone_trainable!r}")
        if any(not 0.0 <= r < 1.0 for r in self.dropout_rates):
            raise GapnetError(f"dropout rates must be in [0, 1), got {self.dropout_rates}")
        if self.classifier == "dfn" and len(self.dropout_rates) != len(self.hidden_widths):
            raise GapnetError("dfn needs one dropout rate per hidden width")
        if self.conv_kernel > self.projection_dim:
            raise GapnetError("conv_kernel cannot exceed projection_dim")
        if not 0.0 <= self.decision_threshold <= 1.0:
            raise GapnetError("decision_threshold must be in [0, 1]")
        if self.backbone_trainable and self.backbone == "imported_features":
            raise GapnetError("backbone_trainable needs a backbone to train; "
                              "imported_features maps come from a frozen one")
        if self.backbone == "toy_cnn" and self.head_input_channels != TOY_CHANNELS:
            raise GapnetError(f"toy_cnn emits {TOY_CHANNELS} channels, "
                              f"spec says {self.head_input_channels}")
        return self

    def to_dict(self):  # json writes a tuple and a list alike: fingerprints ignore which
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d).validate()

    def fingerprint(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def build_feature_head(spec, rng):
    """The linear projection of GAP vectors (no activation): (B, C) -> (B, projection_dim).

    ``spec`` is taken as valid; ``Model`` checks it once, as it enters.
    """
    return Sequential([Dense(spec.head_input_channels, spec.projection_dim, rng)])


def build_classifier(spec, rng):
    if spec.classifier == "cnn1d":  # treat the projected vector as a length-512 signal
        flat = spec.conv_filters * (spec.projection_dim - spec.conv_kernel + 1)
        return Sequential([Conv1D(spec.conv_filters, spec.conv_kernel, rng), ReLU(),
                           Dense(flat, 1, rng)])
    layers = []
    din = spec.projection_dim
    for i, width in enumerate(spec.hidden_widths):  # fcnn is dfn without the Dropouts
        layers += [Dense(din, width, rng), ReLU()]
        if spec.classifier == "dfn":
            seed = None if rng is None else int(rng.integers(2**63))
            layers.append(Dropout(spec.dropout_rates[i], seed=seed))
        din = width
    layers.append(Dense(din, 1, rng))
    return Sequential(layers)


def sigmoid(z):
    """Numerically stable elementwise sigmoid of logits, clamped strictly inside (0, 1)."""
    info = np.finfo(z.dtype)
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    s = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.clip(s, info.tiny, 1.0 - info.eps / 2).astype(z.dtype)


def decide(p, threshold=0.5):
    """Strict threshold rule: tumor (1) iff p > threshold; elementwise on arrays."""
    out = (np.asarray(p) > threshold).astype(np.int64)
    return int(out) if out.ndim == 0 else out


class Model:
    """Optional toy backbone + GAP + feature head + classifier, ending at a logit.

    The chain [toy backbone, GAP, feature head] is cut once, at the freeze
    point, into two ``Sequential`` parts: ``frozen``, which training never
    changes (frozen backbone and GAP, or GAP alone for imported maps;
    nothing when the backbone trains, which only a model built to train
    does: a loaded one freezes its backbone), and ``trained``, the rest. A
    raw input is an ``input_shape`` (224x224x1) image for toy_cnn, an
    HxWx``head_input_channels`` map for imported features. ``encode``, the
    one check of a raw input's shape, runs ``frozen`` on one raw input (or
    returns it when nothing is frozen); ``forward`` and ``backward``
    run ``trained`` and the classifier on a batch of encoded inputs, so raw
    inputs score as ``sigmoid(forward(np.stack([encode(x) for x in xs])))``.

    Every layer's ``params`` and ``grads`` entries are views into two flat
    vectors of the model's dtype, ``flat_params`` and ``flat_grads``
    (``_bind``), which training updates in place.
    """

    def __init__(self, spec, seed):
        self._build(spec, seed, np.random.default_rng(seed))

    def _build(self, spec, seed, rng):
        """Build the layers, drawing their values from ``rng``; with ``rng`` None
        every parameter is 0 and no Dropout has a seed (``load_checkpoint``).

        A model built to train (``rng`` given) keeps the spec's freeze point.
        A loaded model scores only, so everything up to and including GAP is
        frozen even when ``backbone_trainable`` is set; the parameter layout
        (``_named``) is the same either way.
        """
        self.spec = spec.validate()
        self.seed = seed
        self.dtype = np.float32
        self.backbone = toy_backbone(rng) if spec.backbone == "toy_cnn" else None
        self.input_shape = TOY_INPUT_SHAPE if self.backbone else None  # tests shrink it
        self.head = build_feature_head(spec, rng)
        self.classifier = build_classifier(spec, rng)
        chain = [part for part in (self.backbone, GlobalAvgPool(), self.head) if part is not None]
        cut = 0 if spec.backbone_trainable and rng is not None else len(chain) - 1
        self.frozen, self.trained = Sequential(chain[:cut]), Sequential(chain[cut:])
        # the prefixes name the entries, whose order is the layout of a saved params.btft
        self._named = [(prefix, part) for prefix, part in
                       (("backbone.", self.backbone), ("head.", self.head),
                        ("clf.", self.classifier)) if part is not None]
        self._bind(self.dtype)

    def __setstate__(self, state):  # a deep copy's layer arrays are copies, not views
        self.__dict__.update(state)
        self._bind(self.dtype)

    def _bind(self, dtype):
        """Pack every layer's current params and grads, in ``_named`` order, into
        ``flat_params`` and ``flat_grads`` of ``dtype``, and make each layer's
        entries reshaped views into them.

        A frozen backbone comes first, so the trainable parameters are the
        suffix from ``n_frozen`` on.
        """
        entries = self.parameters(trainable_only=False)
        total = sum(layer.params[pname].size for _, layer, pname in entries)
        self.n_frozen = total - sum(layer.params[pname].size
                                    for _, layer, pname in self.parameters())
        self.flat_params, self.flat_grads = np.empty(total, dtype), np.empty(total, dtype)
        at = 0
        for _, layer, pname in entries:
            size = layer.params[pname].size
            for store, flat in ((layer.params, self.flat_params), (layer.grads, self.flat_grads)):
                view = flat[at:at + size].reshape(store[pname].shape)
                view[...] = store[pname]
                store[pname] = view
            at += size

    # -- inference ----------------------------------------------------
    def encode(self, x):
        """One raw input -> the row ``forward`` takes for it, through ``frozen``."""
        if self.backbone is not None:
            if x.shape != self.input_shape:
                raise GapnetError(f"toy backbone expects {self.input_shape}, got {x.shape}")
        elif x.ndim != 3 or x.shape[2] != self.spec.head_input_channels:
            raise GapnetError(f"input {x.shape} is not an HxWx"
                              f"{self.spec.head_input_channels} feature map")
        return self.frozen.forward(x[None])[0] if self.frozen.layers else x

    def features(self, z, train=False):
        """Batch of encoded inputs -> (B, projection_dim) projected feature vectors."""
        z = np.asarray(z, dtype=self.dtype)  # other dtypes would run mixed-dtype GEMMs
        return self.trained.forward(z, train=train)

    def forward(self, z, train=False):
        """(B,) logits of a batch of encoded inputs."""
        return self.classifier.forward(self.features(z, train), train=train)[:, 0]

    def backward(self, dloss_dz, input_grad=False):
        """(B,) dLoss/dlogit -> the trainable parameters' gradients in ``flat_grads``.

        The gradients are written over what the store held; the frozen
        prefix is left alone. Returns the gradient with respect to the
        encoded inputs if ``input_grad``, else None: by default the first
        trainable layer (the backbone's first conv, or the projection)
        skips it.
        """
        g = self.classifier.backward(np.asarray(dloss_dz, dtype=self.dtype).reshape(-1, 1))
        return self.trained.backward(g, input_grad=input_grad)

    # -- parameter plumbing -------------------------------------------
    def parameters(self, trainable_only=True):
        return [entry for prefix, part in self._named
                if not (trainable_only and part in self.frozen.layers)
                for entry in part.parameters(prefix)]

    def astype(self, dtype):
        self.dtype = dtype
        self._bind(dtype)


# ------------------------------------------------------- checkpoints

def save_checkpoint(model, directory):
    """``model.flat_params`` as ``params.btft``, then its ModelSpec in ``model.json``, last."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_tensor(model.flat_params, directory / "params.btft")
    manifest = {
        "model_spec": model.spec.to_dict(),
        "fingerprint": model.spec.fingerprint(),
        "seed": model.seed,
    }
    write_atomic(directory / "model.json",
                 (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def load_checkpoint(directory, expected_spec=None):
    """The model ``save_checkpoint`` wrote, for scoring: its Dropouts have no
    seed, and its backbone is frozen even if the spec trained it, so its
    inputs go through the encode cache like any frozen model's."""
    directory = Path(directory)
    path = directory / "model.json"
    manifest = json_object(path.read_bytes(), path)
    try:
        seed = manifest.get("seed", 0)
        require_counts(least=0, seed=seed)  # the seeds numpy accepts
        model = Model.__new__(Model)  # no draws: params.btft gives every value
        model._build(ModelSpec(**manifest["model_spec"]), seed, rng=None)  # checks the spec
    except KeyError as e:
        raise GapnetError(f"{path}: checkpoint manifest lacks {e}") from e
    except (ValueError, TypeError, GapnetError) as e:
        raise GapnetError(f"{path}: not a checkpoint manifest: {e}") from e
    spec = model.spec
    if expected_spec is not None and expected_spec.fingerprint() != spec.fingerprint():
        raise GapnetError(
            f"checkpoint fingerprint {spec.fingerprint()[:12]} != "
            f"configured model fingerprint {expected_spec.fingerprint()[:12]}"
        )
    path = directory / "params.btft"
    value = load_feature_map(path)
    if value.shape != model.flat_params.shape:
        raise GapnetError(f"{path}: checkpoint shape {value.shape} != "
                          f"model shape {model.flat_params.shape}")
    model.flat_params[...] = value  # every layer's entries are views into it
    return model
