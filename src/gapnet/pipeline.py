"""Model assembly: feature head, classifier heads, inference, and checkpoints.

A model is GAP -> Dense(projection_dim) followed by one of three
classifier heads ending in a single unit, with a sigmoid squashing the
final pre-activation into a tumor probability. The decision rule is a
strict threshold comparison on that probability.
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
    """GAP over the backbone map, then the linear projection (no activation)."""
    spec.validate()
    return Sequential([
        GlobalAvgPool(),
        Dense(spec.head_input_channels, spec.projection_dim, rng),
    ])


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
    """Strict threshold rule: tumor iff p > threshold."""
    return 1 if p > threshold else 0


class Model:
    """Optional toy backbone + feature head + classifier + sigmoid.

    The spec alone says what a raw input is: a 224x224x3 image for the
    toy_cnn backbone, an HxWx``head_input_channels`` map for imported
    features. ``encode`` runs the frozen prefix, the part of the network
    training never changes: the toy backbone when it is frozen, nothing
    otherwise. ``forward`` and ``backward`` run the rest on an encoded
    input, so a raw input scores as ``forward(encode(x))``.
    """

    def __init__(self, spec, seed):
        self.spec = spec.validate()
        self.seed = seed
        self.dtype = np.float32
        rng = np.random.default_rng(seed)
        self.backbone = None
        if spec.backbone == "toy_cnn":
            self.backbone = ToyBackbone(rng, trainable=spec.backbone_trainable)
        self.head = build_feature_head(spec, rng)
        self.classifier = build_classifier(spec, rng)
        self.sigmoid = Sigmoid()

    # -- inference ----------------------------------------------------
    def encode(self, x):
        """Raw input -> the input of ``forward``, through the frozen prefix."""
        if self.backbone is not None and not self.backbone.trainable:
            return self.backbone.forward(x, train=False)
        return x

    def features(self, z, train=False):
        """Encoded input -> projected feature vector."""
        if self.backbone is not None and self.backbone.trainable:
            z = self.backbone.forward(z, train=train)
        elif z.ndim != 3 or z.shape[2] != self.spec.head_input_channels:
            raise ShapeMismatch(f"input {z.shape} is not an HxWx"
                                f"{self.spec.head_input_channels} feature map")
        return self.head.forward(z, train=train)

    def forward(self, z, train=False):
        """Tumor probability of one encoded input."""
        z = self.classifier.forward(self.features(z, train), train=train)
        p = self.sigmoid.forward(z, train=train)
        return float(p[0])

    def backward(self, dloss_dp):
        g = self.sigmoid.backward(np.asarray([dloss_dp], dtype=self.dtype))
        g = self.head.backward(self.classifier.backward(g))
        if self.backbone is not None and self.backbone.trainable:
            g = self.backbone.backward(g)
        return g

    # -- parameter plumbing -------------------------------------------
    def parameters(self, trainable_only=True):
        out = []
        if self.backbone is not None and (self.backbone.trainable or not trainable_only):
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


def count_parameters(model):
    """Exact count of weight and bias elements (imported backbones add none)."""
    return sum(layer.params[pname].size
               for _, layer, pname in model.parameters(trainable_only=False))


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
