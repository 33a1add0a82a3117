"""AdamW behavior and checkpoint round-trips."""

import numpy as np
import pytest

from icl.autodiff import Tensor
from icl.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from icl.optim import AdamW, NonFiniteGradientError


def make_param(values):
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def test_zero_grad_zero_decay_is_identity():
    p = make_param([1.0, -2.0, 3.0])
    opt = AdamW({"p": p}, lr=1e-3, weight_decay=0.0)
    p.grad = np.zeros(3)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_zero_grad_decay_scales_exactly():
    p = make_param([1.0, -2.0, 3.0])
    lr, wd = 5e-4, 1e-5
    opt = AdamW({"p": p}, lr=lr, weight_decay=wd)
    before = p.data.copy()
    p.grad = np.zeros(3)
    opt.step()
    assert np.array_equal(p.data, before * (1.0 - lr * wd))


def scalar_adamw_oracle(g, steps, lr=5e-4, wd=0.0, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar simulation of the update rule."""
    p, m, v = 0.0, 0.0, 0.0
    updates = []
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        prev = p
        p *= 1 - lr * wd
        p -= lr * (m / (1 - b1 ** t)) / ((v / (1 - b2 ** t)) ** 0.5 + eps)
        updates.append(p - prev)
    return p, updates


def test_constant_gradient_update_magnitude_approaches_lr():
    g = 0.37
    lr = 5e-4
    p = make_param([0.0])
    opt = AdamW({"p": p}, lr=lr, weight_decay=0.0)
    traj = []
    for _ in range(1000):
        prev = p.data.copy()
        p.grad = np.array([g])
        opt.step()
        traj.append(float(p.data[0] - prev[0]))
    expected_p, expected_updates = scalar_adamw_oracle(g, 1000, lr=lr)
    assert np.allclose(traj, expected_updates, rtol=1e-12, atol=1e-18)
    assert abs(float(p.data[0]) - expected_p) < 1e-12
    assert abs(abs(traj[-1]) - lr) / lr < 0.01  # bias-corrected Adam limit


def test_eps_floor_holds_in_float32():
    # 1e-20 squared is below float32's smallest normal; eps keeps the
    # step finite and tiny instead of lr-sized.
    p = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    opt = AdamW({"p": p})
    for _ in range(3):
        p.grad = np.full(4, 1e-20, dtype=np.float32)
        opt.step()
    for arr in (p.data, opt.m["p"], opt.v["p"]):
        assert arr.dtype == np.float32 and np.all(np.isfinite(arr))
    assert np.all(np.abs(p.data - 1.0) < 1e-6)


def test_nonfinite_gradient_aborts_without_touching_params():
    p1 = make_param([1.0])
    p2 = make_param([2.0])
    opt = AdamW({"a": p1, "b": p2}, lr=1e-3, weight_decay=1e-2)
    p1.grad = np.array([0.5])
    p2.grad = np.array([np.nan])
    with pytest.raises(NonFiniteGradientError, match="'b'"):
        opt.step()
    assert p1.data[0] == 1.0 and p2.data[0] == 2.0 and opt.step_count == 0


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    params = {
        "enc/stem/w": rng.standard_normal((4, 1, 3, 3)),
        "enc/stem/b": rng.standard_normal(4),
        "head/w": rng.standard_normal((3, 8)),
        "scalar": np.asarray(np.pi),
    }
    path = tmp_path / "model.iclc"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert sorted(loaded) == sorted(params)
    for name in params:
        assert np.array_equal(loaded[name], np.asarray(params[name]))
        assert loaded[name].dtype == np.float64


def test_checkpoint_write_is_deterministic(tmp_path):
    params = {"b": np.arange(3.0), "a": np.ones((2, 2))}
    save_checkpoint(tmp_path / "x1.iclc", params)
    save_checkpoint(tmp_path / "x2.iclc", dict(reversed(list(params.items()))))
    assert (tmp_path / "x1.iclc").read_bytes() == (tmp_path / "x2.iclc").read_bytes()


def test_checkpoint_errors(tmp_path):
    bad = tmp_path / "bad.iclc"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)
    save_checkpoint(tmp_path / "t.iclc", {"a": np.ones(4)})
    blob = (tmp_path / "t.iclc").read_bytes()
    (tmp_path / "trunc.iclc").write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="truncated|corrupt"):
        load_checkpoint(tmp_path / "trunc.iclc")
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "missing.iclc")
