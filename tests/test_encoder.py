"""Encoder forward/backward tests.

The backward pass is checked two ways: a fully hand-derived single-layer chain
(where dW works out to 1/sqrt(2)) and central finite differences on a random
multi-layer net with a linear readout loss. All parameters live in one flat
vector, so the layout tests check that every named array is a live view into it,
also after a deep copy, and the EMA is checked against m t + (1-m) s bit for bit.
The augmentation operator is checked against its analytic first and second moments.
"""

import copy
import math

import numpy as np
import pytest

from mice.encoder import (
    Layout,
    Params,
    add_bundles,
    augment,
    backward,
    ema_update,
    forward_gating,
    forward_student,
    forward_teacher,
    gating_from_student_tape,
    head_blocks,
    init_params,
)
from mice.errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidMomentumError,
    TapeMismatchError,
)
from mice.numcore import make_rng, row_norms


def small_params(seed=3, input_dim=3, hidden=(5,), embed=4, experts=2):
    return init_params(input_dim, list(hidden), embed, experts, make_rng(seed))


class TestForward:
    def test_zero_weight_head_emits_its_bias(self):
        """Zero weights + unit bias e1: every input maps exactly to e1."""
        e1 = np.array([1.0, 0.0, 0.0])
        params = Params(Layout(2, (), 3, 1))  # all zeros
        params.arrays["heads.bias"][:] = e1
        params.arrays["gating.bias"][:] = e1
        f, _ = forward_student(np.array([[0.4, -1.1], [2.0, 5.0]]), params)
        assert f.shape == (2, 1, 3)
        np.testing.assert_array_equal(f[:, 0, :], np.tile(e1, (2, 1)))
        g, _ = forward_gating(np.array([[9.0, -3.0]]), params)
        np.testing.assert_array_equal(g, e1[np.newaxis])

    def test_outputs_are_unit_rows(self):
        params = small_params()
        x = make_rng(11).standard_normal((7, 3))
        f, _ = forward_student(x, params)
        g, _ = forward_gating(x, params)
        assert f.shape == (7, 2, 4)
        assert g.shape == (7, 4)
        np.testing.assert_allclose(row_norms(f), 1.0, atol=1e-12)
        np.testing.assert_allclose(row_norms(g), 1.0, atol=1e-12)

    def test_teacher_matches_student_after_copy(self):
        params = small_params(seed=5)
        teacher = params.teacher_copy()
        x = make_rng(6).standard_normal((4, 3))
        f, _ = forward_student(x, params)
        v = forward_teacher(x, teacher)
        assert np.array_equal(f, v)

    def test_teacher_copy_is_independent(self):
        params = small_params(seed=5)
        teacher = params.teacher_copy()
        before = teacher.arrays["trunk.0.weight"].copy()
        params.arrays["trunk.0.weight"][:] += 1.0
        np.testing.assert_array_equal(teacher.arrays["trunk.0.weight"], before)
        assert teacher.layout == params.layout.teacher
        assert "gating.weight" not in teacher.arrays

    @pytest.mark.parametrize("hidden, rows", [((5,), 7), ((6, 5), 300), ((), 4), ((5,), 1)])
    def test_gating_from_student_tape_is_forward_gating(self, hidden, rows):
        """One trunk pass serves both families: the gating embedding taken from a
        student tape equals forward_gating's bit for bit (rows=1: a batch of one)."""
        params = small_params(seed=8, hidden=hidden)
        x = make_rng(9).standard_normal((rows, 3))
        _, tape = forward_student(x, params)
        g, _ = forward_gating(x, params)
        got = gating_from_student_tape(tape, params)
        assert got.shape == g.shape and got.tobytes() == g.tobytes()

    @pytest.mark.parametrize("hidden", [(), (5,), (6, 5)])
    def test_matches_the_out_of_place_formula_bitwise(self, hidden):
        """Bias and tanh added in place, then normalized in place: the same floats as
        h = tanh(h W^T + b) per layer and raw / ||raw|| on the head."""
        params = small_params(seed=12, hidden=hidden, experts=3)
        x = make_rng(13).standard_normal((9, 3))

        def reference(head):
            h = x
            for w, b in params.trunk:
                h = np.tanh(h @ w.T + b)
            w, b = params.layer(head)
            raw = h @ w.T + b
            if head == "heads":
                raw = raw.reshape(9, 3, 4)
            return raw / row_norms(raw)[..., np.newaxis]

        f, tape = forward_student(x, params)
        g, _ = forward_gating(x, params)
        for got, want in (
            (f, reference("heads")),
            (forward_teacher(x, params.teacher_copy()), reference("heads")),
            (g, reference("gating")),
            (gating_from_student_tape(tape, params), reference("gating")),
        ):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_gating_from_student_tape_rejects_other_tapes(self):
        params = small_params()
        x = make_rng(2).standard_normal((3, 3))
        with pytest.raises(TapeMismatchError):
            gating_from_student_tape(forward_gating(x, params)[1], params)
        with pytest.raises(TapeMismatchError):
            gating_from_student_tape(forward_student(x, params)[1], small_params(hidden=(6,)))

    def test_input_validation(self):
        params = small_params()
        with pytest.raises(DimensionMismatchError):
            forward_student(np.zeros((2, 5)), params)
        with pytest.raises(InvalidInputError):
            forward_student(np.array([[np.inf, 0.0, 0.0]]), params)
        # one unbatched (d_in,) vector is not a (B, d_in) batch
        for forward, p in ((forward_student, params), (forward_gating, params),
                           (forward_teacher, params.teacher_copy())):
            with pytest.raises(DimensionMismatchError):
                forward(np.zeros(3), p)

    def test_init_bounds_and_reproducibility(self):
        """Weights drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)); equal seeds agree."""
        a = small_params(seed=42, hidden=(6, 5))
        b = small_params(seed=42, hidden=(6, 5))
        assert np.array_equal(a.vec, b.vec)
        assert np.max(np.abs(a.arrays["trunk.0.weight"])) <= 1.0 / math.sqrt(3)
        assert np.max(np.abs(a.arrays["trunk.1.weight"])) <= 1.0 / math.sqrt(6)
        assert np.max(np.abs(a.arrays["heads.weight"])) <= 1.0 / math.sqrt(5)
        with pytest.raises(InvalidInputError):
            init_params(0, [4], 2, 1, make_rng(0))
        with pytest.raises(InvalidInputError):
            init_params(3, [0], 2, 1, make_rng(0))


class TestBackward:
    def test_hand_chain_single_layer(self):
        """input 2.0 through weights (0.5, 0.5): d(f_0)/dW_00 = 1/sqrt(2).

        raw = (1, 1), norm = sqrt(2), f = (1, 1)/sqrt(2). Upstream (1, 0) through
        the normalization Jacobian gives (1/2, -1/2)/sqrt(2); times the input 2.0
        lands on dW = (1/sqrt(2), -1/sqrt(2)).
        """
        params = Params(Layout(1, (), 2, 1))
        params.arrays["heads.weight"][:] = [[0.5], [0.5]]
        params.arrays["gating.bias"][:] = [1.0, 0.0]
        f, tape = forward_student(np.array([[2.0]]), params)
        np.testing.assert_allclose(f[0, 0], [1 / math.sqrt(2)] * 2, rtol=1e-15)
        grads = backward(tape, np.array([[[1.0, 0.0]]]), params)
        np.testing.assert_allclose(
            grads.arrays["heads.weight"],
            [[0.7071067811865475], [-0.7071067811865475]],
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            grads.arrays["heads.bias"],
            [0.35355339059327373, -0.35355339059327373],
            rtol=1e-14,
        )
        # zero-weight gating head was never on this tape
        assert not np.any(grads.arrays["gating.weight"])

    @pytest.mark.parametrize("hidden", [(), (5,), (6, 5)])
    def test_matches_finite_differences(self, hidden):
        """Linear readout sum(c * f) + sum(e * g): analytic grads vs central FD."""
        params = small_params(seed=9, hidden=hidden)
        rng = make_rng(21)
        x = rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 2, 4))
        e = rng.standard_normal((3, 4))

        def loss():
            f, _ = forward_student(x, params)
            g, _ = forward_gating(x, params)
            return float(np.sum(c * f) + np.sum(e * g))

        f, tape_f = forward_student(x, params)
        g, tape_g = forward_gating(x, params)
        grads = add_bundles(backward(tape_f, c, params), backward(tape_g, e, params))

        h = 1e-6
        p_vec = params.vec  # the views forward reads, so a nudge here moves the loss
        for idx in range(p_vec.size):
            orig = p_vec[idx]
            p_vec[idx] = orig + h
            up = loss()
            p_vec[idx] = orig - h
            down = loss()
            p_vec[idx] = orig
            np.testing.assert_allclose(
                grads.vec[idx], (up - down) / (2 * h), rtol=1e-5, atol=1e-8
            )

    @pytest.mark.parametrize("hidden", [(), (5,), (6, 5)])
    @pytest.mark.parametrize("head", ["heads", "gating"])
    def test_matches_the_out_of_place_formula_bitwise(self, hidden, head):
        """The in-place Jacobian and tanh' give the gradients of the out-of-place
        formulas du = (g - f (g.f)) / ||u|| and dz = (dz W) * (1 - h^2) bit for bit."""
        params = small_params(seed=14, hidden=hidden, experts=3)
        x = make_rng(15).standard_normal((7, 3))
        forward = forward_student if head == "heads" else forward_gating
        out, tape = forward(x, params)
        upstream = make_rng(16).standard_normal(out.shape)
        grads = backward(tape, upstream, params)

        f = tape.normalized
        inner = (upstream * f).sum(axis=-1, keepdims=True)
        du = (upstream - f * inner) / tape.norms[..., np.newaxis]
        dz = du.reshape(7, -1)
        inputs = [x] + tape.trunk_outputs
        want = {f"{head}.weight": dz.T @ inputs[-1], f"{head}.bias": dz.sum(axis=0)}
        w_above = params.arrays[f"{head}.weight"]
        for i in range(len(hidden) - 1, -1, -1):
            h_out = tape.trunk_outputs[i]
            dz = (dz @ w_above) * (1.0 - h_out * h_out)
            want[f"trunk.{i}.weight"] = dz.T @ inputs[i]
            want[f"trunk.{i}.bias"] = dz.sum(axis=0)
            w_above = params.arrays[f"trunk.{i}.weight"]
        for name, value in want.items():
            assert grads.arrays[name].tobytes() == value.tobytes(), name

    def test_zero_upstream_gives_zero_bundle(self):
        params = small_params()
        x = make_rng(1).standard_normal((4, 3))
        _, tape = forward_student(x, params)
        grads = backward(tape, np.zeros((4, 2, 4)), params)
        assert grads.layout == params.layout
        assert not np.any(grads.vec)

    def test_gating_tape_leaves_expert_heads_alone(self):
        params = small_params()
        x = make_rng(2).standard_normal((4, 3))
        _, tape = forward_gating(x, params)
        grads = backward(tape, np.ones((4, 4)), params)
        for weight, bias in head_blocks(grads):
            assert not np.any(weight) and not np.any(bias)
        assert np.any(grads.arrays["gating.weight"])

    def test_upstream_shape_mismatch(self):
        params = small_params()
        _, tape = forward_student(make_rng(3).standard_normal((4, 3)), params)
        with pytest.raises(TapeMismatchError):
            backward(tape, np.zeros((4, 2, 5)), params)
        # a batch-of-one tape takes a (1, K, d) upstream, not the unbatched (K, d)
        _, tape = forward_student(make_rng(3).standard_normal((1, 3)), params)
        with pytest.raises(TapeMismatchError):
            backward(tape, np.ones((2, 4)), params)

    def test_tape_from_other_head_count(self):
        params = small_params(experts=2)
        _, tape = forward_student(make_rng(3).standard_normal((4, 3)), params)
        other = small_params(experts=3)
        with pytest.raises(TapeMismatchError):
            backward(tape, np.zeros((4, 2, 4)), other)
        with pytest.raises(TapeMismatchError):
            backward(tape, np.zeros((4, 2, 4)), small_params(hidden=(6,)))

    def test_param_arrays_are_live_views(self):
        """Every named array is a view into the one vector, in layout order, and
        the views survive a deep copy pointing into the copy's own vector."""
        params = small_params()
        assert list(params.arrays) == [
            "trunk.0.weight", "trunk.0.bias", "heads.weight", "heads.bias",
            "gating.weight", "gating.bias",
        ]
        assert params.vec.size == params.layout.size == 3 * 5 + 5 + 2 * 4 * 5 + 2 * 4 + 4 * 5 + 4
        offset = 0
        for name, array in params.arrays.items():
            assert np.shares_memory(array, params.vec)
            assert array.ctypes.data == params.vec.ctypes.data + 8 * offset
            offset += array.size
        assert offset == params.vec.size
        weight, bias = head_blocks(params)[1]
        assert np.shares_memory(weight, params.vec) and weight.shape == (4, 5)
        np.testing.assert_array_equal(weight, params.arrays["heads.weight"][4:8])
        params.vec[:] = 7.0
        assert np.all(params.arrays["gating.bias"] == 7.0) and np.all(bias == 7.0)
        clone = copy.deepcopy(params)
        clone.vec[:] = -1.0
        assert np.all(clone.arrays["trunk.0.weight"] == -1.0)
        assert np.all(params.arrays["trunk.0.weight"] == 7.0)


class TestEma:
    def test_single_step_example(self):
        """teacher 0, student 1, momentum 0.999 -> 0.001, updated in place."""
        params = small_params(seed=8)
        teacher = params.teacher_copy()
        teacher.vec[:] = 0.0
        params.vec[: teacher.vec.size] = 1.0  # trunk + expert heads; gating stays random
        student_before = params.vec.copy()
        out = ema_update(teacher, params, 0.999)
        np.testing.assert_allclose(out.arrays["trunk.0.weight"], 0.001, rtol=1e-12)
        np.testing.assert_allclose(head_blocks(out)[1][1], 0.001, rtol=1e-12)
        # the teacher's own vector is updated and returned; the student is not mutated
        assert out is teacher
        np.testing.assert_array_equal(params.vec, student_before)

    def test_matches_the_textbook_formula_bitwise(self):
        """t *= m; t += (1-m) s is m t + (1-m) s down to the last bit."""
        params = small_params(seed=8)
        teacher = params.teacher_copy()
        teacher.vec[:] = make_rng(9).standard_normal(teacher.vec.size)
        n = teacher.vec.size
        expected = 0.97 * teacher.vec + (1.0 - 0.97) * params.vec[:n]
        ema_update(teacher, params, 0.97)
        assert np.array_equal(teacher.vec, expected)

    @pytest.mark.parametrize("steps", [10, 100])
    def test_geometric_decay_closed_form(self, steps):
        """T repeats against a frozen student: t_T = m^T t_0 + (1 - m^T) s."""
        params = small_params(seed=8)
        teacher = params.teacher_copy()
        teacher.vec[:] = make_rng(10).standard_normal(teacher.vec.size)
        t0 = teacher.vec.copy()
        m = 0.97
        for _ in range(steps):
            teacher = ema_update(teacher, params, m)
        decay = m**steps
        np.testing.assert_allclose(
            teacher.vec,
            decay * t0 + (1 - decay) * params.vec[: t0.size],
            rtol=1e-12,
        )

    def test_momentum_zero_copies_student(self):
        params = small_params(seed=8)
        teacher = params.teacher_copy()
        teacher.arrays["trunk.0.weight"][:] = -5.0
        out = ema_update(teacher, params, 0.0)
        assert np.array_equal(out.vec, params.vec[: out.vec.size])

    def test_momentum_validation(self):
        params = small_params()
        teacher = params.teacher_copy()
        with pytest.raises(InvalidMomentumError):
            ema_update(teacher, params, 1.0)
        with pytest.raises(InvalidMomentumError):
            ema_update(teacher, params, -0.01)
        with pytest.raises(DimensionMismatchError):
            ema_update(small_params(experts=3).teacher_copy(), params, 0.5)


class TestAugment:
    def test_identity_when_disabled(self):
        x = make_rng(4).standard_normal((5, 3))
        out = augment(x, make_rng(0), 0.0, 0.0)
        assert np.array_equal(out, x)

    def test_reproducible(self):
        x = make_rng(4).standard_normal((5, 3))
        a = augment(x, make_rng(77), 0.3, 0.25)
        b = augment(x, make_rng(77), 0.3, 0.25)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, x)

    def test_stream_length_independent_of_config(self):
        """Downstream draws agree whether or not the augmentation was active."""
        x = np.ones((4, 3))
        rng_a = make_rng(15)
        augment(x, rng_a, 0.5, 0.3)
        after_a = rng_a.standard_normal(8)
        rng_b = make_rng(15)
        augment(x, rng_b, 0.0, 0.0)
        after_b = rng_b.standard_normal(8)
        assert np.array_equal(after_a, after_b)

    @pytest.mark.parametrize("sigma, rho", [(0.3, 0.25), (0.0, 0.5), (1.7, 0.0)])
    def test_matches_the_out_of_place_formula_bitwise(self, sigma, rho):
        """The output built in the noise buffer is (x + sigma * noise) * keep, with
        noise and keep drawn from a cloned generator, and consumes the same stream."""
        x = make_rng(4).standard_normal((6, 5))
        x[0, :2] = [0.0, -0.0]
        rng = make_rng(31)
        clone = copy.deepcopy(rng)
        out = augment(x, rng, sigma, rho)
        noise = clone.standard_normal(x.shape)
        keep = clone.random(x.shape) >= rho
        expected = (x + sigma * noise) * keep
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == clone.bit_generator.state

    def test_moments_at_zero_input(self):
        """x = 0: output is sigma * noise * keep with mean 0, variance sigma^2 (1 - rho)."""
        sigma, rho, n = 0.4, 0.3, 40_000
        out = augment(np.zeros((n, 2)), make_rng(100), sigma, rho)
        se = sigma / math.sqrt(n)
        assert abs(float(np.mean(out))) < 4 * se
        var_target = sigma * sigma * (1 - rho)
        np.testing.assert_allclose(float(np.var(out)), var_target, rtol=0.05)

    def test_moments_at_general_input(self):
        """mean (1-rho) x; variance (1-rho)(x^2 + sigma^2) - (1-rho)^2 x^2."""
        sigma, rho, x0, n = 0.25, 0.2, 1.5, 60_000
        out = augment(np.full((n, 1), x0), make_rng(101), sigma, rho)
        mean_target = (1 - rho) * x0
        var_target = (1 - rho) * (x0 * x0 + sigma * sigma) - (1 - rho) ** 2 * x0 * x0
        np.testing.assert_allclose(float(np.mean(out)), mean_target, rtol=0.01)
        np.testing.assert_allclose(float(np.var(out)), var_target, rtol=0.05)

    def test_config_validation(self):
        """A bad sigma or rho raises before any draw, so the stream is untouched."""
        x = np.ones((4, 3))
        rng = make_rng(16)
        before = rng.bit_generator.state
        for sigma, rho in ((-0.1, 0.1), (math.nan, 0.1), (0.1, 1.0), (0.1, -0.1), (0.1, math.nan)):
            with pytest.raises(InvalidInputError):
                augment(x, rng, sigma, rho)
        assert rng.bit_generator.state == before
