"""Finite-difference gradient oracle for any fragment with the layer protocol."""

import copy
from dataclasses import dataclass, field

import numpy as np

from gapnet.errors import GapnetError
from gapnet.train import bce_loss


class NonDeterministicFragment(GapnetError):
    pass


@dataclass
class GradCheckReport:
    passed: bool
    max_mixed_error: float
    per_param: dict = field(default_factory=dict)  # name -> (max abs diff, max mixed error)


def _objective(out, loss, y, proj):
    if loss == "proj":
        return float(np.sum(np.asarray(out, dtype=np.float64) * proj))
    if loss == "bce":
        return float(np.sum(bce_loss(np.reshape(out, -1), y)[0]))
    raise ValueError(f"unknown gradient-check loss {loss!r}")


def _objective_grad(out, loss, y, proj):
    if loss == "proj":
        return proj.astype(np.float64)
    return bce_loss(np.reshape(out, -1), y)[1].reshape(np.shape(out))


def gradient_check(model, x, loss="proj", y=1, tolerance=1e-3, abs_tol=1e-4, h=1e-3, rng=None):
    """Compare analytic gradients against 64-bit central differences.

    The fragment is deep-copied and re-run in float64. The default
    objective is sum(output * R) for a fixed random projection R, which
    seeds the backward pass with R and exercises every output component;
    loss="bce" instead sums binary cross-entropy of every output (one
    logit per batch row) against label(s) ``y``. ``model`` is any
    fragment with the layer protocol: a Sequential or a whole Model.
    Parameter gradients and the input gradient are both checked. Passes
    iff |analytic - numeric| <= max(tolerance * |numeric|, abs_tol)
    everywhere.

    Raises NonDeterministicFragment when two train-mode forwards of the
    copied fragment disagree (e.g. dropout without a fixed mask).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    frag = copy.deepcopy(model)
    frag.astype(np.float64)
    x = np.asarray(x, dtype=np.float64)

    out1 = frag.forward(x, train=True)
    out2 = frag.forward(x, train=True)
    if not np.array_equal(out1, out2):
        raise NonDeterministicFragment("repeated forward passes disagree")
    proj = rng.standard_normal(np.asarray(out1).shape)

    out = frag.forward(x, train=True)
    dx_analytic = frag.backward(_objective_grad(out, loss, y, proj), input_grad=True)

    def f():
        return _objective(frag.forward(x, train=True), loss, y, proj)

    report = GradCheckReport(passed=True, max_mixed_error=0.0)
    checks = [(name, layer.params[pname], layer.grads[pname])
              for name, layer, pname in frag.parameters()]
    checks.append(("input", x, dx_analytic))
    for name, values, analytic in checks:
        numeric = np.zeros_like(values, dtype=np.float64)
        flat_v = values.reshape(-1)
        flat_n = numeric.reshape(-1)
        for i in range(flat_v.shape[0]):
            orig = flat_v[i]
            flat_v[i] = orig + h
            up = f()
            flat_v[i] = orig - h
            down = f()
            flat_v[i] = orig
            flat_n[i] = (up - down) / (2 * h)
        diff = np.abs(np.asarray(analytic, dtype=np.float64) - numeric)
        mixed = diff / np.maximum(1.0, np.abs(numeric))
        ok = bool(np.all(diff <= np.maximum(tolerance * np.abs(numeric), abs_tol)))
        report.per_param[name] = (float(diff.max()), float(mixed.max()))
        report.max_mixed_error = max(report.max_mixed_error, float(mixed.max()))
        report.passed = report.passed and ok
    return report
