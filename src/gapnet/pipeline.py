"""Model assembly: feature head, classifier heads, inference, and checkpoints.

A model is GAP -> Dense(projection_dim) followed by one of three
classifier heads ending in a single unit, with a sigmoid squashing the
final pre-activation into a tumor probability. The decision rule is a
strict threshold comparison on that probability.

Unless the backbone trains, everything up to and including GAP is
frozen, so a sample is encoded once into its GAP vector and every
trained layer runs on (B, C) batches of those vectors.
"""

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .backbone import ToyBackbone, load_feature_map, save_tensor
from .errors import CheckpointMismatch, ParseError, ShapeMismatch, SpecInvalid
from .nn import Conv1D, Dense, Dropout, GlobalAvgPool, ReLU, Sequential, Sigmoid

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
            raise SpecInvalid(f"unknown backbone {self.backbone!r}")
        if self.classifier not in CLASSIFIERS:
            raise SpecInvalid(f"unknown classifier {self.classifier!r}")
        if self.head_input_channels < 1:
            raise SpecInvalid("head_input_channels must be >= 1")
        if self.projection_dim < 1:
            raise SpecInvalid("projection_dim must be >= 1")
        if any(w < 1 for w in self.hidden_widths):
            raise SpecInvalid(f"all hidden widths must be >= 1, got {self.hidden_widths}")
        if any(not 0.0 <= r < 1.0 for r in self.dropout_rates):
            raise SpecInvalid(f"dropout rates must be in [0, 1), got {self.dropout_rates}")
        if self.classifier == "dfn" and len(self.dropout_rates) != len(self.hidden_widths):
            raise SpecInvalid("dfn needs one dropout rate per hidden width")
        if self.conv_filters < 1 or self.conv_kernel < 1:
            raise SpecInvalid("conv_filters and conv_kernel must be >= 1")
        if self.conv_kernel > self.projection_dim:
            raise SpecInvalid("conv_kernel cannot exceed projection_dim")
        if not 0.0 <= self.decision_threshold <= 1.0:
            raise SpecInvalid("decision_threshold must be in [0, 1]")
        if self.backbone_trainable and self.backbone == "imported_features":
            raise SpecInvalid("backbone_trainable needs a backbone to train; "
                              "imported_features maps come from a frozen one")
        if self.backbone == "toy_cnn" and self.head_input_channels != ToyBackbone.output_channels:
            raise SpecInvalid(
                f"toy_cnn emits {ToyBackbone.output_channels} channels, "
                f"spec says {self.head_input_channels}"
            )
        return self

    def to_dict(self):
        d = asdict(self)
        d["hidden_widths"] = list(self.hidden_widths)
        d["dropout_rates"] = list(self.dropout_rates)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "hidden_widths" in d:
            d["hidden_widths"] = tuple(d["hidden_widths"])
        if "dropout_rates" in d:
            d["dropout_rates"] = tuple(d["dropout_rates"])
        return cls(**d).validate()

    def fingerprint(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def build_feature_head(spec, rng):
    """The linear projection of GAP vectors (no activation): (B, C) -> (B, projection_dim)."""
    spec.validate()
    return Sequential([Dense(spec.head_input_channels, spec.projection_dim, rng)])


def build_classifier(spec, rng):
    spec.validate()
    layers = []
    din = spec.projection_dim
    if spec.classifier == "dfn":
        for width, rate in zip(spec.hidden_widths, spec.dropout_rates):
            layers += [Dense(din, width, rng), ReLU(),
                       Dropout(rate, seed=int(rng.integers(2**63)))]
            din = width
        layers.append(Dense(din, 1, rng))
    elif spec.classifier == "fcnn":
        for width in spec.hidden_widths:
            layers += [Dense(din, width, rng), ReLU()]
            din = width
        layers.append(Dense(din, 1, rng))
    else:  # cnn1d: treat the projected vector as a length-512 signal
        flat = spec.conv_filters * (spec.projection_dim - spec.conv_kernel + 1)
        layers += [Conv1D(spec.conv_filters, spec.conv_kernel, rng), ReLU(),
                   Dense(flat, 1, rng)]
    return Sequential(layers)


def decide(p, threshold=0.5):
    """Strict threshold rule: tumor (1) iff p > threshold; elementwise on arrays."""
    out = (np.asarray(p) > threshold).astype(np.int64)
    return int(out) if out.ndim == 0 else out


class Model:
    """Optional toy backbone + GAP + feature head + classifier + sigmoid.

    The spec alone says what a raw input is: a 224x224x3 image for the
    toy_cnn backbone, an HxWx``head_input_channels`` map for imported
    features. ``encode`` runs the frozen prefix of one raw input, the
    part of the network training never changes: the frozen toy backbone
    (if any) and GAP, giving a ``(head_input_channels,)`` vector. With a
    trainable backbone nothing is frozen and ``encode`` is the identity.
    ``forward`` and ``backward`` run the rest on a batch of encoded
    inputs stacked along axis 0, so raw inputs score as
    ``forward(np.stack([encode(x) for x in xs]))``.
    """

    def __init__(self, spec, seed):
        self.spec = spec.validate()
        self.seed = seed
        self.dtype = np.float32
        rng = np.random.default_rng(seed)
        self.backbone = None
        if spec.backbone == "toy_cnn":
            self.backbone = ToyBackbone(rng)
        self.gap = GlobalAvgPool()
        self.head = build_feature_head(spec, rng)
        self.classifier = build_classifier(spec, rng)
        self.sigmoid = Sigmoid()

    def rows_per_pass(self, batch_size):
        """Rows one forward/backward pass takes out of a ``batch_size`` batch.

        A trainable backbone runs one image at a time, so the conv
        activations in memory stay those of one image; every other model
        runs the whole batch on its cached GAP vectors.
        """
        return 1 if self.spec.backbone_trainable else batch_size

    # -- inference ----------------------------------------------------
    def encode(self, x):
        """One raw input -> the row ``forward`` takes for it, through the frozen prefix."""
        if self.spec.backbone_trainable:
            return x
        fmap = x[None]
        if self.backbone is not None:
            fmap = self.backbone.forward(fmap, train=False)
        elif x.ndim != 3 or x.shape[2] != self.spec.head_input_channels:
            raise ShapeMismatch(f"input {x.shape} is not an HxWx"
                                f"{self.spec.head_input_channels} feature map")
        return self.gap.forward(fmap)[0]

    def features(self, z, train=False):
        """Batch of encoded inputs -> (B, projection_dim) projected feature vectors."""
        z = np.asarray(z, dtype=self.dtype)  # other dtypes would run mixed-dtype GEMMs
        if self.spec.backbone_trainable:
            z = self.gap.forward(self.backbone.forward(z, train=train), train=train)
        elif z.ndim != 2 or z.shape[1] != self.spec.head_input_channels:
            raise ShapeMismatch(f"input {z.shape} is not a batch of "
                                f"{self.spec.head_input_channels}-channel GAP vectors")
        return self.head.forward(z, train=train)

    def forward(self, z, train=False):
        """(B,) tumor probabilities of a batch of encoded inputs."""
        z = self.classifier.forward(self.features(z, train), train=train)
        return self.sigmoid.forward(z, train=train)[:, 0]

    def backward(self, dloss_dp, input_grad=False):
        """(B,) dLoss/dp -> parameter gradients, accumulated.

        Returns the gradient with respect to the encoded inputs if
        ``input_grad``, else None: by default the first trainable layer
        (the backbone's first conv, or the projection) skips it.
        """
        g = np.asarray(dloss_dp, dtype=self.dtype).reshape(-1, 1)
        g = self.classifier.backward(self.sigmoid.backward(g))
        if not self.spec.backbone_trainable:
            return self.head.backward(g, input_grad=input_grad)
        g = self.gap.backward(self.head.backward(g))
        return self.backbone.backward(g, input_grad=input_grad)

    # -- parameter plumbing -------------------------------------------
    def parameters(self, trainable_only=True):
        out = []
        if self.backbone is not None and (self.spec.backbone_trainable or not trainable_only):
            out += self.backbone.parameters("backbone.")
        out += self.head.parameters("head.")
        out += self.classifier.parameters("clf.")
        return out

    def zero_grad(self):
        if self.backbone is not None:
            self.backbone.zero_grad()
        self.head.zero_grad()
        self.classifier.zero_grad()

    def astype(self, dtype):
        self.dtype = dtype
        if self.backbone is not None:
            self.backbone.astype(dtype)
        self.head.astype(dtype)
        self.classifier.astype(dtype)

    def state_dict(self):
        return {name: layer.params[pname].copy()
                for name, layer, pname in self.parameters(trainable_only=False)}

    def load_state_dict(self, state):
        for name, layer, pname in self.parameters(trainable_only=False):
            value = state[name]
            if value.shape != layer.params[pname].shape:
                raise ShapeMismatch(f"{name}: checkpoint shape {value.shape} != "
                                    f"model shape {layer.params[pname].shape}")
            layer.params[pname] = value.astype(layer.params[pname].dtype).copy()


# ------------------------------------------------------- checkpoints

def save_checkpoint(model, directory):
    """One BTFT entry per parameter plus a manifest recording the ModelSpec."""
    directory = Path(directory)
    (directory / "params").mkdir(parents=True, exist_ok=True)
    for name, layer, pname in model.parameters(trainable_only=False):
        save_tensor(layer.params[pname], directory / "params" / f"{name}.btft")
    manifest = {
        "model_spec": model.spec.to_dict(),
        "fingerprint": model.spec.fingerprint(),
        "seed": model.seed,
    }
    (directory / "model.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_checkpoint(directory, expected_spec=None):
    directory = Path(directory)
    path = directory / "model.json"
    try:
        manifest = json.loads(path.read_text())
        spec = ModelSpec.from_dict(manifest["model_spec"])
    except KeyError as e:
        raise ParseError(f"{path}: checkpoint manifest lacks {e}") from e
    except (ValueError, TypeError) as e:
        raise ParseError(f"{path}: not a checkpoint manifest: {e}") from e
    if expected_spec is not None and expected_spec.fingerprint() != spec.fingerprint():
        raise CheckpointMismatch(
            f"checkpoint fingerprint {spec.fingerprint()[:12]} != "
            f"configured model fingerprint {expected_spec.fingerprint()[:12]}"
        )
    model = Model(spec, seed=manifest.get("seed", 0))
    state = {}
    for name, layer, pname in model.parameters(trainable_only=False):
        state[name] = load_feature_map(directory / "params" / f"{name}.btft")
    model.load_state_dict(state)
    return model
