"""_QBase dual-path semantics."""
import numpy as np
import pytest

from repro.core.qbase import IdentityQuantizer, QuantSpec, _QBase, fake_quant
from repro.core.quantizers import AsymMinMaxQuantizer
from repro.tensor import Tensor, no_grad
from tests.substrate_ref import chain_codes, chain_fake_quant, chain_q


class TestQuantSpec:
    @pytest.mark.parametrize("nbit,unsigned,qlb,qub", [
        (8, False, -128, 127), (8, True, 0, 255),
        (4, False, -8, 7), (4, True, 0, 15),
        (2, False, -2, 1), (2, True, 0, 3),
    ])
    def test_ranges(self, nbit, unsigned, qlb, qub):
        s = QuantSpec(nbit, unsigned)
        assert (s.qlb, s.qub) == (qlb, qub)
        assert s.levels == 2 ** nbit


class TestDualPath:
    def _q(self, nbit=4, unsigned=False, scale=0.5):
        q = _QBase(nbit=nbit, unsigned=unsigned)
        q.set_scale(scale)
        return q

    def test_train_path_returns_dequantized(self):
        q = self._q()
        x = Tensor(np.array([0.3, 1.0, -0.74], dtype=np.float32))
        out = q(x)
        np.testing.assert_allclose(out.data, [0.5, 1.0, -0.5])  # on the grid

    def test_deploy_path_returns_integers(self):
        q = self._q()
        q.deploy = True
        out = q(Tensor(np.array([0.3, 1.0, -0.74], dtype=np.float32)))
        np.testing.assert_allclose(out.data, [1, 2, -1])

    def test_paths_consistent(self, rng):
        q = self._q(nbit=8, scale=0.02)
        x = Tensor(rng.standard_normal(100).astype(np.float32))
        fake = q.trainFunc(x).data
        ints = q.evalFunc(x).data
        np.testing.assert_allclose(fake, ints * 0.02, rtol=1e-5)

    def test_clamping_at_grid_bounds(self):
        q = self._q(nbit=2, scale=1.0)  # grid [-2, 1]
        out = q.q(Tensor(np.array([-10.0, 10.0], dtype=np.float32)))
        np.testing.assert_allclose(out.data, [-2, 1])

    def test_unsigned_clamps_negative_to_zero(self):
        q = self._q(nbit=4, unsigned=True, scale=1.0)
        out = q.q(Tensor(np.array([-3.0, 20.0], dtype=np.float32)))
        np.testing.assert_allclose(out.data, [0, 15])

    def test_ste_gradient_flows_through_train_path(self):
        q = self._q(nbit=8, scale=0.1)
        x = Tensor(np.array([0.55], dtype=np.float32), requires_grad=True)
        q(x).backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_deploy_path_produces_no_graph(self):
        q = self._q()
        q.deploy = True
        x = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        out = q(x)
        assert not out.requires_grad

    def test_zero_point_shifts(self):
        q = self._q(nbit=4, unsigned=True, scale=1.0)
        q.set_zero_point(3.0)
        out = q.q(Tensor(np.array([0.0], dtype=np.float32)))
        np.testing.assert_allclose(out.data, [3])
        back = q.dq(out)
        np.testing.assert_allclose(back.data, [0.0])

    def test_set_scale_floors_tiny_values(self):
        q = self._q()
        q.set_scale(0.0)
        assert float(q.scale.data) > 0

    def test_scale_is_a_buffer(self):
        q = self._q()
        assert "scale" in dict(q.named_buffers())
        assert "zero_point" in dict(q.named_buffers())


class TestIdentity:
    def test_identity_passthrough_both_paths(self, rng):
        q = IdentityQuantizer()
        x = Tensor(rng.standard_normal(10).astype(np.float32))
        np.testing.assert_array_equal(q(x).data, x.data)
        q.deploy = True
        np.testing.assert_array_equal(q(x).data, x.data)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _grid_input(rng, spec, scale, zp, shape):
    """Random values plus exact ``.5`` ties across (and past) the grid and
    both clamp edges, per channel of ``scale``."""
    lo, hi = spec.qlb, spec.qub
    codes = rng.integers(lo - 3, hi + 4, size=shape).astype(np.float32)
    ties = (codes + np.float32(0.5) - np.float32(zp)) * scale
    edges = (rng.choice([lo, hi, lo - 1, hi + 1], size=shape).astype(np.float32)
             - np.float32(zp)) * scale
    noise = (rng.standard_normal(shape).astype(np.float32)
             * np.float32((hi - lo) / 2)) * scale
    pick = rng.integers(0, 3, size=shape)
    return np.where(pick == 0, ties, np.where(pick == 1, edges, noise)).astype(np.float32)


class TestFusedFakeQuant:
    """The fused node is bitwise the composed six-node chain, both ways."""

    SCALES = {
        "tensor": np.float32(0.375),
        "channel": np.array([0.25, 0.1, 1.5, 3e-3], dtype=np.float32).reshape(4, 1, 1, 1),
    }

    @pytest.mark.parametrize("granularity", ["tensor", "channel"])
    @pytest.mark.parametrize("unsigned", [False, True])
    @pytest.mark.parametrize("nbit", [2, 4, 8])
    @pytest.mark.parametrize("zp", [0.0, 3.0])
    def test_forward_and_backward_bitwise_chain(self, rng, granularity, unsigned, nbit, zp):
        spec = QuantSpec(nbit, unsigned)
        scale = self.SCALES[granularity]
        zp_arr = np.asarray(zp, dtype=np.float32)
        x_np = _grid_input(rng, spec, scale, zp, (4, 3, 5, 5))
        g = rng.standard_normal(x_np.shape).astype(np.float32)
        g[0, 0, 0] = 0.0
        outs, grads = [], []
        for fn in (fake_quant, chain_fake_quant):
            x = Tensor(x_np.copy(), requires_grad=True)
            out = fn(x, scale, zp_arr, spec.qlb, spec.qub)
            out.backward(g)
            outs.append(out.data)
            grads.append(x.grad)
        assert _same_bits(*outs)
        assert _same_bits(*grads)
        # the test input really exercises ties and both clamp edges
        codes = np.round(x_np / scale + zp_arr)
        assert (codes < spec.qlb).any() and (codes > spec.qub).any()
        assert (np.abs(x_np / scale + zp_arr) % 1 == 0.5).any()

    @pytest.mark.parametrize("unsigned", [False, True])
    def test_q_bitwise_chain_without_dequant(self, rng, unsigned):
        spec = QuantSpec(4, unsigned)
        scale = self.SCALES["channel"]
        x = Tensor(_grid_input(rng, spec, scale, 2.0, (4, 2, 3, 3)))
        zp = np.float32(2.0)
        got = fake_quant(x, scale, zp, spec.qlb, spec.qub, dequant=False).data
        assert _same_bits(got, chain_q(x, scale, zp, spec.qlb, spec.qub).data)

    @pytest.mark.parametrize("granularity", ["tensor", "channel"])
    @pytest.mark.parametrize("unsigned", [False, True])
    def test_audited_deploy_path_is_q(self, rng, granularity, unsigned):
        """With telemetry on, the deploy path returns q()'s bits and counts
        the composed chain's rounded codes outside the grid."""
        from repro import telemetry

        q = _QBase(nbit=4, unsigned=unsigned)
        q.set_scale(self.SCALES[granularity])
        q.set_zero_point(2.0)
        q.deploy = True
        x = Tensor(_grid_input(rng, q.spec, q.scale.data, 2.0, (4, 3, 5, 5)))
        codes = chain_codes(x, q.scale.data, q.zero_point.data).data
        want = int(np.count_nonzero((codes < q.qlb) | (codes > q.qub)))
        assert want > 0
        prev = telemetry.set_enabled(True)
        telemetry.get_registry().clear()
        try:
            got = q(x)
            rows = telemetry.saturation_report()
        finally:
            telemetry.set_enabled(prev)
            telemetry.get_registry().clear()
        assert _same_bits(got.data, q.q(x).data)
        assert [(r["kind"], r["clipped"], r["total"]) for r in rows] == [
            ("quantizer", want, codes.size)]

    def test_one_graph_node(self, rng):
        x = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        out = fake_quant(x, np.float32(0.1), np.float32(0.0), -8, 7)
        assert out._prev == (x,) and out._op == "fake_quant"
        with no_grad():
            assert not fake_quant(x, np.float32(0.1), np.float32(0.0), -8, 7).requires_grad

    def test_float64_input_keeps_float64(self, rng):
        x = Tensor(rng.standard_normal(6), _dtype=np.float64)
        scale, zp = np.float32(0.05), np.float32(0.0)
        got = fake_quant(x, scale, zp, -128, 127).data
        assert _same_bits(got, chain_fake_quant(x, scale, zp, -128, 127).data)
        assert got.dtype == np.float64

    def test_asymmetric_quantizer_bitwise_chain(self, rng):
        q = AsymMinMaxQuantizer(nbit=4)
        x_np = rng.uniform(-0.3, 2.0, size=(8, 5)).astype(np.float32)
        q.observe = True
        q(Tensor(x_np))
        q.observe = False
        q.finalize_calibration()
        assert float(q.zero_point.data) != 0.0
        g = rng.standard_normal(x_np.shape).astype(np.float32)
        x1, x2 = (Tensor(x_np.copy(), requires_grad=True) for _ in range(2))
        out1 = q.trainFunc(x1)
        out2 = chain_fake_quant(x2, q.scale.data, q.zero_point.data, q.qlb, q.qub)
        out1.backward(g)
        out2.backward(g)
        assert _same_bits(out1.data, out2.data)
        assert _same_bits(x1.grad, x2.grad)
        assert _same_bits(q.q(x1).data, chain_q(x1, q.scale.data, q.zero_point.data,
                                                q.qlb, q.qub).data)

    def test_gradcheck(self, gradcheck, rng):
        """Steps far finer than the finite difference: the straight-through
        gradient is the numeric one, 1 inside the grid and 0 where clamped."""
        x_np = rng.uniform(-2.5, 2.5, size=(3, 4)).astype(np.float32)
        x_np[0, :2] = [-5.0, 5.0]  # clamped
        x = Tensor(x_np, requires_grad=True)
        scale = np.array([1e-4, 2e-4, 1e-4], dtype=np.float32).reshape(3, 1)
        spec = QuantSpec(16, False)
        gradcheck(lambda: (fake_quant(x, scale, np.float32(0.0), spec.qlb, spec.qub)
                           ** 2.0).sum(), [x])
        assert x.grad[0, 0] == 0.0 and x.grad[0, 1] == 0.0
