import pickle

import numpy as np
import pytest

from acl_dqn.neural import (
    PARAM_NAMES,
    NeuralError,
    QFunction,
    clip_gradients,
    epsilon_greedy,
)
from acl_dqn.replay import Transition

FD_EPS = 1e-5
FD_TOL = 1e-4


def _random_net(rng, input_dim=None, hidden_dim=None, output_dim=None):
    input_dim = input_dim or int(rng.integers(2, 8))
    hidden_dim = hidden_dim or int(rng.integers(2, 10))
    output_dim = output_dim or int(rng.integers(2, 6))
    return QFunction(input_dim, output_dim, hidden_dim=hidden_dim, rng=rng)


def _random_batch(rng, net, size=None):
    size = size or int(rng.integers(1, 8))
    return Transition(
        state=rng.normal(size=(size, net.input_dim)),
        action=rng.integers(0, net.output_dim, size=size),
        reward=rng.normal(size=size),
        next_state=rng.normal(size=(size, net.input_dim)),
        terminal=rng.random(size) < 0.3,
    )


def _block(*minibatches):
    """The minibatches stacked as one block, a step per row."""
    return Transition(*map(np.stack, zip(*minibatches)))


def _fd_gradient(net, batch, gamma, name, index):
    original = net.online[name].flat[index]
    net.online[name].flat[index] = original + FD_EPS
    loss_plus, _ = net.td_loss_and_grads(batch, gamma)
    net.online[name].flat[index] = original - FD_EPS
    loss_minus, _ = net.td_loss_and_grads(batch, gamma)
    net.online[name].flat[index] = original
    return (loss_plus - loss_minus) / (2.0 * FD_EPS)


class TestForward:
    def test_single_and_batch_agree(self, rng):
        net = _random_net(rng)
        states = rng.normal(size=(4, net.input_dim))
        batched = net.forward(states)
        assert batched.shape == (4, net.output_dim)
        for i in range(4):
            np.testing.assert_allclose(net.forward(states[i]), batched[i])

    def test_stack_equals_row_forwards_bit_for_bit(self, rng):
        """An [N, 1, D] stack is row forwards; a 2-D [N, D] batch need not be."""
        net = QFunction(112, 23, rng=rng)
        for n in (1, 3, 100):
            states = rng.random((n, net.input_dim))
            stacked = net.forward(states[:, None, :])
            assert stacked.shape == (n, 1, net.output_dim)
            assert np.array_equal(stacked[:, 0], [net.forward(s) for s in states])

    def test_wrong_state_dim_rejected(self, rng):
        net = QFunction(4, 3, rng=rng)
        with pytest.raises(NeuralError):
            net.forward(np.zeros(5))

    def test_target_starts_equal_then_diverges(self, rng):
        net = _random_net(rng)
        np.testing.assert_array_equal(net.online_flat, net.target_flat)
        net.td_train_steps([_block(_random_batch(rng, net))], 0.9)
        assert not np.array_equal(net.online_flat, net.target_flat)
        net.sync_target()
        np.testing.assert_array_equal(net.online_flat, net.target_flat)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        """100 random small nets, central differences at eps=1e-5."""
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            net = _random_net(rng)
            batch = _random_batch(rng, net)
            gamma = float(rng.uniform(0.0, 1.0))
            _, grads = net.td_loss_and_grads(batch, gamma)
            for name in PARAM_NAMES:
                flat = grads[name].reshape(-1)
                for index in rng.choice(flat.size, size=min(4, flat.size),
                                        replace=False):
                    fd = _fd_gradient(net, batch, gamma, name, index)
                    denom = max(abs(fd), abs(flat[index]), 1e-8)
                    worst = max(worst, abs(fd - flat[index]) / denom)
        assert worst < FD_TOL, worst

    def test_clip_leaves_small_gradients_alone(self, rng):
        grads = {"g": np.array([0.3, 0.4])}
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(grads["g"], [0.3, 0.4])

    def test_clip_scales_large_gradients_to_the_bound(self, rng):
        grads = {"a": np.full(10, 5.0), "b": np.full(7, -3.0)}
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(np.sqrt(313.0))
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total <= 1.0 + 1e-12

    def test_post_clip_norm_never_exceeds_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            net = _random_net(rng)
            batch = _random_batch(rng, net)
            _, grads = net.td_loss_and_grads(batch, float(rng.uniform(0, 1)))
            clip_gradients(grads, net.clip_norm)
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            assert total <= net.clip_norm + 1e-12


class TestTdTargets:
    def test_gamma_zero_targets_are_rewards(self, rng):
        net = _random_net(rng)
        batch = _random_batch(rng, net, size=6)
        q = net.forward(batch.state)
        q_sel = q[np.arange(6), batch.action]
        expected = float(np.mean((q_sel - batch.reward) ** 2))
        [loss], _ = net.td_train_steps([_block(batch)], 0.0)
        assert loss == pytest.approx(expected)

    def test_terminal_transitions_ignore_bootstrap(self, rng):
        net = _random_net(rng)
        batch = _random_batch(rng, net, size=5)
        batch.terminal[:] = True
        l1, g1 = net.td_loss_and_grads(batch, 0.9)
        l2, g2 = net.td_loss_and_grads(batch, 0.0)
        assert l1 == l2
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(g1[name], g2[name])

    def test_nonterminal_bootstrap_uses_target_max(self, rng):
        net = _random_net(rng)
        target = pickle.loads(pickle.dumps(net))  # fresh: its online weights are net's target
        net.td_train_steps([_block(_random_batch(rng, net))], 0.9)
        batch = _random_batch(rng, net, size=4)
        batch.terminal[:] = False
        gamma = 0.9
        y = batch.reward + gamma * target.forward(batch.next_state).max(axis=1)
        q_sel = net.forward(batch.state)[np.arange(4), batch.action]
        expected = float(np.mean((q_sel - y) ** 2))
        loss, _ = net.td_loss_and_grads(batch, gamma)
        assert loss == pytest.approx(expected)

    def test_training_reduces_loss_on_a_fixed_batch(self, rng):
        net = _random_net(rng)
        batch = _random_batch(rng, net, size=8)
        losses, _ = net.td_train_steps([_block(batch)] * 201, 0.9)
        assert losses[-1] < losses[0]

    def test_empty_batch_rejected(self, rng):
        net = QFunction(3, 2, rng=rng)
        empty = Transition(np.zeros((0, 3)), np.zeros(0, dtype=int),
                           np.zeros(0), np.zeros((0, 3)), np.zeros(0, dtype=bool))
        with pytest.raises(NeuralError):
            net.td_train_steps([_block(empty)], 0.9)

    def test_bad_gamma_rejected(self, rng):
        net = QFunction(3, 2, rng=rng)
        with pytest.raises(NeuralError):
            net.td_train_steps([_block(_random_batch(rng, net, size=2))], 1.5)

    def test_out_of_range_action_rejected(self, rng):
        net = QFunction(3, 2, rng=rng)
        batch = _random_batch(rng, net, size=2)
        batch.action[0] = 2
        with pytest.raises(NeuralError):
            net.td_train_steps([_block(batch)], 0.9)

    def test_a_refused_minibatch_keeps_the_steps_before_it(self, rng):
        """Each minibatch is checked before its own step: the first step of
        three stays applied when the second is refused, and the third never runs."""
        net = _random_net(rng)
        twin = pickle.loads(pickle.dumps(net))
        first, bad, third = (_random_batch(rng, net, size=4) for _ in range(3))
        bad.action[0] = net.output_dim
        with pytest.raises(NeuralError, match="action index out of range"):
            net.td_train_steps([_block(first, bad, third)], 0.9)
        twin.td_train_steps([_block(first)], 0.9)
        assert not np.array_equal(net.online_flat, net.target_flat)
        for name in ("online_flat", "_adam_m", "_adam_v"):
            np.testing.assert_array_equal(getattr(net, name), getattr(twin, name))
        assert net._adam_t == twin._adam_t == 1

    def test_nan_parameter_makes_the_step_raise(self, rng):
        net = _random_net(rng)
        net.online["w2"][0, 0] = np.nan
        before = net.online_flat.copy()
        with pytest.raises(NeuralError, match="non-finite TD loss"):
            net.td_train_steps([_block(_random_batch(rng, net))], 0.9)
        np.testing.assert_array_equal(net.online_flat, before)

    def test_a_negative_action_is_refused_after_the_steps_before_it(self, rng):
        """Numpy would read action -1 from the end of the outputs: the second
        minibatch is refused, naming the fault, with the first step applied."""
        net = QFunction(3, 2, rng=rng)
        twin = pickle.loads(pickle.dumps(net))
        first, bad = (_random_batch(rng, net, size=2) for _ in range(2))
        bad.action[:] = [-1, 0]
        with pytest.raises(NeuralError, match="action index out of range: -1 is negative"):
            net.td_train_steps([_block(first), _block(bad)], 0.9)
        twin.td_train_steps([_block(first)], 0.9)
        for name in ("online_flat", "_adam_m", "_adam_v"):
            np.testing.assert_array_equal(getattr(net, name), getattr(twin, name))
        assert net._adam_t == twin._adam_t == 1

    def test_nan_in_the_target_weights_alone_makes_the_first_step_raise(self, rng):
        net = _random_net(rng)
        net.target["w2"][0, 0] = np.nan
        before = [getattr(net, name).copy() for name in ("online_flat", "_adam_m", "_adam_v")]
        block = _block(*(_random_batch(rng, net, size=4) for _ in range(3)))
        with pytest.raises(NeuralError, match="non-finite TD loss"):
            net.td_train_steps([block], 0.9)
        for name, then in zip(("online_flat", "_adam_m", "_adam_v"), before):
            np.testing.assert_array_equal(getattr(net, name), then)
        assert net._adam_t == 0

    @pytest.mark.parametrize("steps", [1, 5, 8])
    def test_a_blocks_stacked_targets_equal_each_minibatchs_bit_for_bit(self, rng, steps):
        """A block's targets take one stacked target forward."""
        net = QFunction(112, 23, rng=rng)  # the student's shape
        net.online_flat += rng.normal(scale=0.1, size=net.online_flat.size)
        net.sync_target()
        minibatches = [_random_batch(rng, net, size=16) for _ in range(steps)]
        w1t = net._target_w1t()
        stacked = net._td_targets(_block(*minibatches), 0.9, w1t)
        assert stacked.shape == (steps, 16)
        for row, minibatch in zip(stacked, minibatches):
            assert row.tobytes() == net._td_targets(minibatch, 0.9, w1t).tobytes()


def _per_array_step(net, params, adam_m, adam_v, t, batch, gamma):
    """The TD step as separate per-array updates: the flat step's oracle."""
    loss, grads = net.td_loss_and_grads(batch, gamma)
    clip_gradients(grads, net.clip_norm)
    b1c = 1.0 - 0.9 ** t
    b2c = 1.0 - 0.999 ** t
    for name in PARAM_NAMES:
        g, m, v = grads[name], adam_m[name], adam_v[name]
        m *= 0.9
        m += 0.1 * g
        v *= 0.999
        v += 0.001 * g * g
        params[name] -= net.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + 1e-8)
    return loss


class TestFlatLayout:
    def test_views_tile_the_flat_buffer_in_param_order(self, rng):
        net = _random_net(rng)
        joined = np.concatenate([net.online[name].reshape(-1) for name in PARAM_NAMES])
        np.testing.assert_array_equal(joined, net.online_flat)
        for name in PARAM_NAMES:
            assert np.shares_memory(net.online[name], net.online_flat)
            assert np.shares_memory(net.target[name], net.target_flat)

    def test_writing_through_a_view_reaches_the_flat_buffer(self, rng):
        net = _random_net(rng)
        offset = net.online["w1"].size + net.online["b1"].size + net.hidden_dim
        net.online["w2"][1, 0] = 7.5
        assert net.online_flat[offset] == 7.5
        s = rng.normal(size=(2, net.input_dim))
        h = np.tanh(s @ net.online["w1"].T + net.online["b1"])
        np.testing.assert_allclose(net.forward(s)[:, 1],
                                   h @ net.online["w2"][1] + net.online["b2"][1])

    def test_sync_target_copies_rather_than_aliases(self, rng):
        net = _random_net(rng)
        net.td_train_steps([_block(_random_batch(rng, net))], 0.9)
        net.sync_target()
        synced = net.target_flat.copy()
        np.testing.assert_array_equal(synced, net.online_flat)
        assert not np.shares_memory(net.target_flat, net.online_flat)
        net.td_train_steps([_block(_random_batch(rng, net))], 0.9)
        net.online["b2"][0] += 1.0
        np.testing.assert_array_equal(net.target_flat, synced)

    def test_pickled_net_keeps_its_views_and_trains_bit_for_bit(self, rng):
        net = _random_net(rng)
        for _ in range(3):
            net.td_train_steps([_block(_random_batch(rng, net))], 0.9)
        copy = pickle.loads(pickle.dumps(net))
        for views, flat in ((copy.online, copy.online_flat), (copy.target, copy.target_flat),
                            (copy._grad_views, copy._grad)):
            for name in PARAM_NAMES:
                assert np.shares_memory(views[name], flat)
        batch = _random_batch(rng, net)
        [copy_loss], _ = copy.td_train_steps([_block(batch)], 0.9)
        [loss], _ = net.td_train_steps([_block(batch)], 0.9)
        assert copy_loss == loss
        for name in ("online_flat", "target_flat", "_adam_m", "_adam_v"):
            np.testing.assert_array_equal(getattr(copy, name), getattr(net, name))
        assert copy._adam_t == net._adam_t
        s = rng.normal(size=(3, net.input_dim))
        np.testing.assert_array_equal(copy.forward(s), net.forward(s))

    def test_flat_step_matches_per_array_updates_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            net = _random_net(rng)
            if trial % 2:
                net.clip_norm = 1e-3  # every step clips
            params = {k: v.copy() for k, v in net.online.items()}
            adam_m = {k: np.zeros_like(v) for k, v in params.items()}
            adam_v = {k: np.zeros_like(v) for k, v in params.items()}
            for t in range(1, 6):
                batch = _random_batch(rng, net)
                expected = _per_array_step(net, params, adam_m, adam_v, t, batch, 0.9)
                [loss], _ = net.td_train_steps([_block(batch)], 0.9)
                assert loss == expected
                for name in PARAM_NAMES:
                    np.testing.assert_array_equal(net.online[name], params[name])


class TestCheckpoint:
    def test_round_trip_is_bit_identical(self, rng, tmp_path):
        net = _random_net(rng)
        net.td_train_steps([_block(_random_batch(rng, net))], 0.9)
        net.sync_target()
        net.td_train_steps([_block(_random_batch(rng, net))], 0.9)
        path = tmp_path / "net.qfn"
        net.save(path)
        loaded = QFunction.load(path)
        assert loaded.online_flat.tobytes() == net.online_flat.tobytes()
        assert loaded.target_flat.tobytes() == net.target_flat.tobytes()
        for name in PARAM_NAMES:
            assert np.shares_memory(loaded.online[name], loaded.online_flat)
            assert np.shares_memory(loaded.target[name], loaded.target_flat)

    def test_round_trip_is_exact(self, rng, tmp_path):
        net = _random_net(rng)
        net.td_train_steps([_block(_random_batch(rng, net))], 0.9)
        path = tmp_path / "net.qfn"
        net.save(path)
        loaded = QFunction.load(path)
        s = rng.normal(size=(5, net.input_dim))
        np.testing.assert_array_equal(net.forward(s), loaded.forward(s))
        assert (loaded.learning_rate, loaded.clip_norm) == (
            net.learning_rate, net.clip_norm)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "net.qfn"
        path.write_text("not-a-checkpoint\n")
        with pytest.raises(NeuralError) as err:
            QFunction.load(path)
        assert str(err.value) == \
            f"{path} line 1: unrecognized checkpoint header 'not-a-checkpoint'"

    def test_short_dims_line_rejected(self, tmp_path):
        path = tmp_path / "net.qfn"
        path.write_text("qfn-v1\n4 8 3\n")
        with pytest.raises(NeuralError) as err:
            QFunction.load(path)
        assert str(err.value) == f"{path} line 2: 3 fields, expected 5"

    def test_long_dims_line_rejected(self, rng, tmp_path):
        path = tmp_path / "net.qfn"
        _random_net(rng).save(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rstrip("\n") + " 7\n"
        path.write_text("".join(lines))
        with pytest.raises(NeuralError) as err:
            QFunction.load(path)
        assert str(err.value) == f"{path} line 2: 6 fields, expected 5"

    def test_truncated_file_rejected(self, rng, tmp_path):
        net = _random_net(rng)
        path = tmp_path / "net.qfn"
        net.save(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2]))
        with pytest.raises(NeuralError) as err:
            QFunction.load(path)
        assert str(err.value) == \
            f"{path} line 9: target w2 holds 0 values, expected {net.online['w2'].size}"

    def test_parameter_line_with_a_value_too_many_rejected(self, rng, tmp_path):
        net = _random_net(rng)
        path = tmp_path / "net.qfn"
        net.save(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rstrip("\n") + " 0.5\n"
        path.write_text("".join(lines))
        with pytest.raises(NeuralError) as err:
            QFunction.load(path)
        n = net.online["w1"].size
        assert str(err.value) == f"{path} line 3: online w1 holds {n + 1} values, expected {n}"

    def test_parameter_counts_are_checked_before_the_net_is_built(self, tmp_path,
                                                                  monkeypatch):
        """A header claiming a large net over a short parameter line is refused
        from the counts alone: no net of the claimed size is ever allocated."""
        def unbuilt(*args, **kwargs):
            raise AssertionError("QFunction built before its parameter lines were checked")

        monkeypatch.setattr(QFunction, "__init__", unbuilt)
        path = tmp_path / "net.qfn"
        path.write_text("qfn-v1\n112 20000 23 0.001 1.0\n0.1 0.2 0.3\n")
        with pytest.raises(NeuralError) as err:
            QFunction.load(path)
        assert str(err.value) == \
            f"{path} line 3: online w1 holds 3 values, expected {20000 * 112}"

    def test_line_after_the_last_parameter_line_rejected(self, rng, tmp_path):
        path = tmp_path / "net.qfn"
        _random_net(rng).save(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("0.5\n")
        with pytest.raises(NeuralError) as err:
            QFunction.load(path)
        assert str(err.value) == \
            f"{path} line 11: unexpected line after the last parameter line"

    def test_dims_below_one_rejected_by_name(self, rng, tmp_path):
        path = tmp_path / "net.qfn"
        _random_net(rng, input_dim=4, hidden_dim=5, output_dim=3).save(path)
        lines = path.read_text().splitlines(keepends=True)
        for i, dim in enumerate(("input_dim", "hidden_dim", "output_dim")):
            dims = lines[1].split()
            dims[i] = "-3" if i == 0 else "0"
            path.write_text("".join([lines[0], " ".join(dims) + "\n", *lines[2:]]))
            with pytest.raises(NeuralError) as err:
                QFunction.load(path)
            assert str(err.value) == f"{path} line 2: {dim} must be >= 1, got {dims[i]}"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_by_name(self, rng, tmp_path, value):
        net = _random_net(rng)
        path = tmp_path / "net.qfn"
        net.save(path)
        lines = path.read_text().splitlines(keepends=True)
        # Lines 3-6 hold the online w1, b1, w2, b2; lines 7-10 the target's.
        target_w2 = lines[8].split()
        target_w2[-1] = value
        lines[8] = " ".join(target_w2) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(NeuralError) as err:
            QFunction.load(path)
        assert str(err.value) == f"{path} line 9: target w2 holds a non-finite value"

    @pytest.mark.parametrize("line, column, field, text, message", [
        (2, 1, "hidden_dim", "eighty", "invalid literal for int() with base 10: 'eighty'"),
        (2, 4, "clip_norm", "one", "could not convert string to float: 'one'"),
        (3, 0, "online w1", "0.1x", "could not convert string to float: '0.1x'"),
        (9, 2, "target w2", "0.1x", "could not convert string to float: '0.1x'"),
    ], ids=["hidden_dim", "clip_norm", "online_w1", "target_w2"])
    def test_malformed_number_names_file_line_and_field(self, rng, tmp_path, line,
                                                        column, field, text, message):
        path = tmp_path / "net.qfn"
        _random_net(rng).save(path)
        lines = path.read_text().splitlines(keepends=True)
        values = lines[line - 1].split()
        values[column] = text
        lines[line - 1] = " ".join(values) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(NeuralError) as err:
            QFunction.load(path)
        assert str(err.value) == f"{path} line {line}: {field}: {message}"


class TestEpsilonGreedy:
    @staticmethod
    def _net(rng, n_outputs=10):
        return QFunction(6, n_outputs, hidden_dim=5, rng=rng)

    def test_greedy_ties_break_to_lowest_index(self, rng):
        q = self._net(rng)
        q.online_flat[:] = 0.0
        assert epsilon_greedy(q, np.zeros(6), 0.0, rng) == 0
        assert epsilon_greedy(q, np.zeros(6), 0.0, rng, (7, 3, 5)) == 7

    def test_mask_hides_higher_valued_outputs(self, rng):
        q = self._net(rng)
        state = rng.normal(size=6)
        values = q.forward(state)
        best_overall = int(np.argmax(values))
        assert epsilon_greedy(q, state, 0.0, rng) == best_overall
        active = tuple(a for a in range(10) if a != best_overall)
        pick = epsilon_greedy(q, state, 0.0, rng, active)
        assert pick in active
        assert values[pick] == max(values[a] for a in active)

    def test_epsilon_one_is_uniform_over_all_outputs(self, rng):
        q = self._net(rng, n_outputs=23)
        picks = [epsilon_greedy(q, np.zeros(6), 1.0, rng) for _ in range(2000)]
        assert set(picks) == set(range(23))
        assert max(picks.count(a) for a in range(23)) < 2 * 2000 / 23

    def test_epsilon_one_is_uniform_over_an_action_set(self, rng):
        q = self._net(rng)
        picks = [epsilon_greedy(q, np.zeros(6), 1.0, rng, [3, 7]) for _ in range(10_000)]
        assert set(picks) == {3, 7}
        assert abs(picks.count(3) / 10_000 - 0.5) < 0.05

    def test_one_action_set_always_chosen(self, rng):
        q = self._net(rng)
        for eps in (0.0, 0.5, 1.0):
            assert epsilon_greedy(q, rng.normal(size=6), eps, rng, (4,)) == 4

    def test_picks_stay_inside_the_set(self, rng):
        q = self._net(rng, n_outputs=30)
        for _ in range(200):
            active = tuple(sorted(rng.choice(30, size=int(rng.integers(1, 30)),
                                             replace=False).tolist()))
            eps = float(rng.random())
            assert epsilon_greedy(q, rng.normal(size=6), eps, rng, active) in active

    def test_draws_one_coin_then_one_index(self, rng):
        """Exploring draws rng.random() then rng.integers(len(set)); exploiting only the coin."""
        q = self._net(rng)
        for actions in (None, (2, 5, 8)):
            ids = range(10) if actions is None else actions
            picker, replay = np.random.default_rng(5), np.random.default_rng(5)
            for _ in range(200):
                state = rng.normal(size=6)
                values = q.forward(state)
                if replay.random() < 0.3:
                    want = ids[int(replay.integers(len(ids)))]
                else:
                    want = ids[int(np.argmax([values[a] for a in ids]))]
                assert epsilon_greedy(q, state, 0.3, picker, actions) == want
            assert picker.bit_generator.state == replay.bit_generator.state

    def test_epsilon_zero_draws_nothing(self, rng):
        q = self._net(rng)
        picker = np.random.default_rng(3)
        before = picker.bit_generator.state
        for actions in (None, (1, 2), (6,)):
            epsilon_greedy(q, rng.normal(size=6), 0.0, picker, actions)
        assert picker.bit_generator.state == before

    def test_empty_set_rejected(self, rng):
        q = self._net(rng)
        for eps in (0.0, 1.0):
            with pytest.raises(ValueError, match="empty action set"):
                epsilon_greedy(q, np.zeros(6), eps, rng, ())

    @pytest.mark.parametrize("eps", [1.5, -0.1, float("nan")])
    def test_epsilon_outside_unit_interval_rejected(self, rng, eps):
        q = self._net(rng)
        with pytest.raises(ValueError, match="epsilon must lie in"):
            epsilon_greedy(q, np.zeros(6), eps, rng)
