"""Every gapnet name the benchmark reads still exists.

The benchmark harness under ``perfbench/`` finds what it times by name: it
imports the modules its tracer lists, opens its scope windows on named
spans, and reports the ``per_layer`` metrics ``BENCHMARK.json`` declares.
A rename in gapnet would leave such a metric reading absent without any
error, so this test resolves each name. It reads those files and edits none.
"""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# the spans the tracer opens its windows on, and the entry point its child calls
SCOPE_SPANS = ("cli.cmd_prepare", "cli.cmd_eval", "cli.build_dataset", "cli.main",
               "pipeline.load_checkpoint", "pipeline.build_feature_head",
               "train.lr_on_plateau", "train.early_stop_update", "train.train_loop")
# names the benchmark declares that gapnet no longer has: their metrics read absent
ABSENT = {"nn.Sigmoid.forward", "nn.Sigmoid.backward", "metrics.measure_inference"}
ROLES = {"s1", "s2", "proj", "hidden", "out"}  # tracer roles, not gapnet names
UNIT = re.compile(r"[._](self_)?(us|s|ms|mb_per_s|gflops|calls_per_epoch|"
                  r"per_scored_image|self_s_per_epoch)$")


def _tracer_modules():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MODULES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no MODULES")


def _per_layer_names():
    """The gapnet function, class or method each ``per_layer`` metric times or counts."""
    names = set()
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        module = metric["name"].split(".")[0]
        if module in ("computed", "trace"):  # work counts and tracer overhead
            continue
        parts = UNIT.sub("", metric["name"]).split(".")
        names.add(".".join(p for p in parts if p not in ROLES))
    return names


def _resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"gapnet.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return callable(obj)


def test_the_tracer_modules_import():
    modules = _tracer_modules()
    assert modules and all(importlib.import_module(f"gapnet.{m}") for m in modules)
    assert ABSENT <= _per_layer_names()  # the allowance covers declared names only


@pytest.mark.parametrize("name", sorted(_per_layer_names() | set(SCOPE_SPANS)))
def test_each_name_the_benchmark_reads_resolves(name):
    assert name.split(".")[0] in _tracer_modules()  # else the tracer never wraps it
    if name in ABSENT:
        assert not _resolves(name), f"{name} is back: take it off the ABSENT list"
    else:
        assert _resolves(name), f"{name} names no gapnet function, class or method"


def test_the_kernel_provenance_attributes_exist():
    kernels = importlib.import_module("gapnet.kernels")
    assert isinstance(kernels.BACKEND, str) and isinstance(kernels.HAVE_NUMBA, bool)


@pytest.mark.parametrize("name, third", [("conv2d_forward", "b"), ("conv2d_backward", "g"),
                                         ("conv2d_weight_grads", "g")])
def test_the_conv2d_kernels_keep_the_calling_convention_the_tracer_reads(name, third):
    # the tracer wraps these kernels by name, reads x, w and b or g from args[0:3] and
    # picks a conv's stage from args[1]; Conv2D passes its window buffer as cols=
    params = inspect.signature(getattr(importlib.import_module("gapnet.kernels"), name)).parameters
    positional = [p.name for p in params.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    assert positional[:3] == ["x", "w", third]
    assert params["cols"].kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                   inspect.Parameter.KEYWORD_ONLY)
    assert params["cols"].default is None
