"""Neural-net primitives: conv, pooling, activations, losses."""
import numpy as np
import pytest

from repro.tensor import Tensor, randn
from repro.tensor import functional as F
from repro.tensor.im2col import conv_out_size
from tests.substrate_ref import full_batch_conv


def _ref_conv2d(x, w, stride, padding, groups=1):
    """Naive reference convolution."""
    n, c, h, ww = x.shape
    o, cg, kh, kw = w.shape
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(ww, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, o, oh, ow), dtype=np.float64)
    og = o // groups
    for b in range(n):
        for oc in range(o):
            g = oc // og
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, g * cg:(g + 1) * cg, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[b, oc, i, j] = (patch * w[oc]).sum()
    return out.astype(np.float32)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding,groups", [(1, 0, 1), (2, 1, 1), (1, 1, 2), (1, 1, 4)])
    def test_matches_naive_reference(self, rng, stride, padding, groups):
        x = rng.standard_normal((2, 4, 7, 7)).astype(np.float32)
        w = rng.standard_normal((8, 4 // groups, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding, groups=groups)
        ref = _ref_conv2d(x, w, stride, padding, groups)
        np.testing.assert_allclose(out.data, ref, atol=1e-4)

    def test_depthwise(self, rng):
        x = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 1, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), padding=1, groups=3)
        ref = _ref_conv2d(x, w, 1, 1, 3)
        np.testing.assert_allclose(out.data, ref, atol=1e-4)

    def test_bias_added_per_channel(self, rng):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((3, 2, 1, 1), dtype=np.float32))
        b = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        out = F.conv2d(x, w, b)
        np.testing.assert_allclose(out.data[0, :, 0, 0], [1, 2, 3])

    def test_grad_wrt_input_and_weight(self, gradcheck, rng):
        x = randn(2, 2, 6, 6, rng=rng, requires_grad=True)
        w = randn(4, 2, 3, 3, rng=rng, requires_grad=True)
        gradcheck(lambda: (F.conv2d(x, w, stride=2, padding=1) ** 2.0).mean(), [x, w])

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("groups", [1, 2, 6])
    @pytest.mark.parametrize("wdtype", [np.float32, np.float64])
    def test_per_sample_gather_bitwise_full_batch(self, rng, n, padding, stride, groups, wdtype):
        """The per-sample column gather feeds each GEMM exactly the operands
        of the batch-wide im2col, so the output is bitwise the same."""
        x = rng.standard_normal((n, 6, 7, 9)).astype(np.float32)
        w = rng.standard_normal((12, 6 // groups, 3, 3)).astype(np.float32).astype(wdtype)
        wt = Tensor(w).astype(wdtype)
        out = F.conv2d(Tensor(x), wt, stride=stride, padding=padding, groups=groups).data
        ref = full_batch_conv(x, w, stride, padding, groups)
        assert out.dtype == ref.dtype == wdtype
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()

    def test_invalid_groups_raises(self):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((4, 1, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            F.conv2d(x, w, groups=2)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_grad_goes_to_argmax(self):
        x = Tensor(np.arange(16.0, dtype=np.float32).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 4).sum().backward()
        assert x.grad[0, 0, 3, 3] == 1.0
        assert x.grad.sum() == 1.0

    def test_adaptive_avg_pool_global(self, rng):
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        out = F.adaptive_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=1e-5)

    def test_adaptive_pool_non_unit_raises(self):
        with pytest.raises(NotImplementedError):
            F.adaptive_avg_pool2d(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)), 2)


class TestActivations:
    def test_gelu_known_values(self):
        x = Tensor(np.array([0.0, 100.0, -100.0], dtype=np.float32))
        out = F.gelu(x)
        np.testing.assert_allclose(out.data, [0.0, 100.0, 0.0], atol=1e-3)

    def test_gelu_grad(self, gradcheck, rng):
        x = randn(4, 4, rng=rng, requires_grad=True)
        gradcheck(lambda: (F.gelu(x) ** 2.0).sum(), [x])

    def test_dropout_eval_identity(self, rng):
        x = rng.standard_normal((8, 8)).astype(np.float32)
        out = F.dropout(Tensor(x), 0.5, training=False)
        np.testing.assert_array_equal(out.data, x)

    def test_dropout_training_scales(self, rng):
        x = np.ones((1000,), dtype=np.float32)
        out = F.dropout(Tensor(x), 0.5, training=True, rng=rng)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.35 < (out.data != 0).mean() < 0.65


class TestLosses:
    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 10), dtype=np.float32))
        loss = F.cross_entropy(logits, np.zeros(4, dtype=np.int64))
        np.testing.assert_allclose(loss.item(), np.log(10), rtol=1e-5)

    def test_cross_entropy_confident_is_low(self):
        logits = np.full((2, 3), -10.0, dtype=np.float32)
        logits[:, 1] = 10.0
        loss = F.cross_entropy(Tensor(logits), np.array([1, 1]))
        assert loss.item() < 1e-3

    def test_cross_entropy_label_smoothing_raises_floor(self):
        logits = np.full((1, 4), -20.0, dtype=np.float32)
        logits[0, 0] = 20.0
        plain = F.cross_entropy(Tensor(logits), np.array([0])).item()
        smooth = F.cross_entropy(Tensor(logits), np.array([0]), label_smoothing=0.2).item()
        assert smooth > plain

    def test_cross_entropy_grad(self, gradcheck, rng):
        x = randn(4, 5, rng=rng, requires_grad=True)
        gradcheck(lambda: F.cross_entropy(x, np.array([0, 1, 2, 3])), [x])

    def test_mse(self):
        a = Tensor(np.array([1.0, 2.0], dtype=np.float32))
        b = Tensor(np.array([3.0, 2.0], dtype=np.float32))
        assert F.mse_loss(a, b).item() == pytest.approx(2.0)

    def test_kl_div_zero_for_equal(self, rng):
        logits = randn(4, 6, rng=rng)
        logp = logits.log_softmax(axis=-1)
        p = logits.softmax(axis=-1)
        assert abs(F.kl_div_loss(logp, p).item()) < 1e-5

    def test_linear_matches_manual(self, rng):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w = rng.standard_normal((5, 4)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-4)
