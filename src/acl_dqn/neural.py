"""Feed-forward Q-function with manual backprop and a synced target copy.

One hidden tanh layer, linear output head, mean-squared TD loss, and
mini-batch Adam updates on globally norm-clipped gradients.  Used by
both the student and the teacher, which also pick their actions through
the one epsilon-greedy rule here.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PARAM_NAMES = ("w1", "b1", "w2", "b2")
# Gradients are built output layer first; their norm is summed in this order.
GRAD_ORDER = ("w2", "b2", "w1", "b1")


class NeuralError(Exception):
    pass


def _param_shapes(input_dim: int, hidden_dim: int, output_dim: int) -> dict[str, tuple]:
    return {
        "w1": (hidden_dim, input_dim),
        "b1": (hidden_dim,),
        "w2": (output_dim, hidden_dim),
        "b2": (output_dim,),
    }


class QFunction:
    """W2 . tanh(W1 s + b1) + b2, with online and target parameter sets.

    Each parameter set, the two Adam moments and the training step's
    gradient live in one flat float64 array laid out in PARAM_NAMES order;
    ``online`` and ``target`` are dicts of reshaped views into theirs.
    """

    def __init__(self, input_dim: int, output_dim: int, hidden_dim: int = 80,
                 learning_rate: float = 0.001, clip_norm: float = 1.0, *,
                 rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        self._shapes = _param_shapes(input_dim, hidden_dim, output_dim)
        size = sum(int(np.prod(shape)) for shape in self._shapes.values())
        self.online_flat = np.zeros(size)
        self.target_flat = np.empty(size)
        self._adam_m = np.zeros(size)
        self._adam_v = np.zeros(size)
        self._adam_t = 0
        self._scratch = np.empty(size)
        self._grad = np.empty(size)
        self._bind_views()
        s1 = 1.0 / np.sqrt(input_dim)
        s2 = 1.0 / np.sqrt(hidden_dim)
        self.online["w1"][...] = rng.uniform(-s1, s1, size=(hidden_dim, input_dim))
        self.online["w2"][...] = rng.uniform(-s2, s2, size=(output_dim, hidden_dim))
        self.sync_target()

    def _bind_views(self) -> None:
        self.online = self._views(self.online_flat)
        self.target = self._views(self.target_flat)
        views = self._views(self._grad)
        self._grad_views = {name: views[name] for name in GRAD_ORDER}

    def __getstate__(self) -> dict:
        """The flat arrays without their views: a pickled view would come back
        as a copy sharing no memory with its flat array."""
        state = dict(vars(self))
        for name in ("online", "target", "_grad_views"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._bind_views()

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        offset = 0
        for name in PARAM_NAMES:
            shape = self._shapes[name]
            size = int(np.prod(shape))
            out[name] = flat[offset:offset + size].reshape(shape)
            offset += size
        return out

    def forward(self, states: np.ndarray) -> np.ndarray:
        """Action values of one state vector, a [B, input_dim] batch, or a
        [N, 1, input_dim] stack of single rows.

        Numpy computes a stack one row at a time, with the same matmul the
        single-row forward makes, so its rows equal the row forwards bit for
        bit. A 2-D batch takes one matmul over all rows and may differ from
        them in the last bits (by 6.1e-16 on 100 student states).
        """
        states = np.asarray(states, dtype=float)
        single = states.ndim == 1
        if states.shape[-1] != self.input_dim:
            raise NeuralError(
                f"state dim {states.shape[-1]} != input_dim {self.input_dim}")
        params = self.online
        x = states[None, :] if single else states
        h = np.tanh(x @ params["w1"].T + params["b1"])
        q = h @ params["w2"].T + params["b2"]
        return q[0] if single else q

    def _check(self, size: int, low: int, high: int) -> None:
        """Refuse a minibatch of ``size`` transitions, its action indices
        spanning [low, high], when it is empty or an index names no output."""
        if size == 0:
            raise NeuralError("empty minibatch")
        if low < 0:
            raise NeuralError(f"action index out of range: {low} is negative")
        if high >= self.output_dim:
            raise NeuralError(
                f"action index out of range: {high} >= {self.output_dim} outputs")

    def _target_w1t(self) -> np.ndarray:
        """The target w1.T, contiguous: a matmul on it equals one on the
        transposed view and takes less than half the time."""
        return np.ascontiguousarray(self.target["w1"].T)

    def _td_targets(self, batch, gamma: float, target_w1t: np.ndarray) -> np.ndarray:
        """The TD targets y = r + gamma * max_a' Q_target(s') * (1 - terminal)
        of a minibatch, or of a block with a leading step axis, from one
        forward of the target net. Numpy computes a block's
        [k, B, input_dim] stack one minibatch at a time, with the matmul a
        lone minibatch takes, so each row equals its minibatch's targets bit
        for bit."""
        if not 0.0 <= gamma <= 1.0:
            raise NeuralError("gamma must lie in [0, 1]")
        t = self.target
        q_next = np.tanh(batch.next_state @ target_w1t + t["b1"]) @ t["w2"].T + t["b2"]
        return batch.reward + gamma * q_next.max(axis=-1) * (~batch.terminal)

    def _td_backprop(self, s: np.ndarray, actions: np.ndarray, y: np.ndarray,
                     grads: dict[str, np.ndarray]) -> float:
        """The TD loss of one minibatch's states and actions against its
        targets ``y``, with its gradients written into ``grads``."""
        n = len(actions)
        rows = np.arange(n)
        p = self.online
        h = np.tanh(s @ p["w1"].T + p["b1"])
        q = h @ p["w2"].T + p["b2"]
        err = q[rows, actions] - y
        loss = float(np.add.reduce(err * err) / n)

        dq = np.zeros_like(q)
        dq[rows, actions] = 2.0 * err / n
        np.matmul(dq.T, h, out=grads["w2"])
        np.add.reduce(dq, axis=0, out=grads["b2"])
        dpre = dq @ p["w2"]
        dpre *= 1.0 - h * h
        np.matmul(dpre.T, s, out=grads["w1"])
        np.add.reduce(dpre, axis=0, out=grads["b1"])
        return loss

    def td_train_steps(self, blocks, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """One clipped Adam step on the mean-squared TD loss per minibatch of
        ``blocks``, in order, against one copy of the target net. A block is a
        replay ``Transition`` whose fields have a leading step axis: states and
        next states [k, B, input_dim], actions, rewards and terminal flags
        [k, B]. Row i is the minibatch of one step, and a lone minibatch is a
        block with k = 1. Each block's targets take one stacked target
        forward; each minibatch is checked just before its own step, and one
        that fails raises with the steps before it applied.
        Returns each step's pre-step loss and pre-clip gradient norm.
        """
        target_w1t = self._target_w1t()
        g, m, v, tmp = self._grad, self._adam_m, self._adam_v, self._scratch
        losses, norms = [], []
        for block in blocks:
            ys = self._td_targets(block, gamma, target_w1t)
            actions = block.action
            lows = actions.min(axis=1, initial=0).tolist()
            highs = actions.max(axis=1, initial=0).tolist()
            for s, a, y, low, high in zip(block.state, actions, ys, lows, highs):
                self._check(len(a), low, high)
                loss = self._td_backprop(s, a, y, self._grad_views)
                if not math.isfinite(loss):
                    raise NeuralError(f"non-finite TD loss {loss!r}")
                norms.append(clip_gradients(self._grad_views, self.clip_norm, g))
                losses.append(loss)
                self._adam_t += 1
                b1c = 1.0 - 0.9 ** self._adam_t
                b2c = 1.0 - 0.999 ** self._adam_t
                m *= 0.9
                m += np.multiply(0.1, g, out=tmp)
                v *= 0.999
                np.multiply(0.001, g, out=tmp)
                v += np.multiply(tmp, g, out=tmp)
                # The step is lr * (m / b1c) / (sqrt(v / b2c) + 1e-8); g is free
                # now. A correction that has rounded to exactly 1.0 (b1c from
                # t = 356 on, b2c from t = 37 412 on) divides by nothing.
                np.sqrt(v if b2c == 1.0 else np.divide(v, b2c, out=tmp), out=tmp)
                tmp += 1e-8
                np.multiply(self.learning_rate,
                            m if b1c == 1.0 else np.divide(m, b1c, out=g), out=g)
                g /= tmp
                self.online_flat -= g
        return np.array(losses), np.array(norms)

    def sync_target(self) -> None:
        self.target_flat[...] = self.online_flat

    def param_scalar(self) -> float:
        """RMS norm of all online parameters."""
        sq = 0.0
        for v in self.online.values():
            sq += float(np.sum(v * v))
        return float(np.sqrt(sq / self.online_flat.size))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("qfn-v1\n")
            fh.write(f"{self.input_dim} {self.hidden_dim} {self.output_dim} "
                     f"{self.learning_rate!r} {self.clip_norm!r}\n")
            for params in (self.online, self.target):
                for name in PARAM_NAMES:
                    flat = params[name].reshape(-1)
                    fh.write(" ".join(repr(float(x)) for x in flat) + "\n")

    @classmethod
    def load(cls, path) -> "QFunction":
        with open(path, encoding="utf-8") as fh:
            magic = fh.readline().strip()
            if magic != "qfn-v1":
                raise NeuralError(f"{path} line 1: unrecognized checkpoint header {magic!r}")
            head = fh.readline().split()
            if len(head) != 5:
                raise NeuralError(f"{path} line 2: {len(head)} fields, expected 5")
            # Line 2's fields, each with its kind and least value; a float must be finite.
            fields = (("input_dim", int, 1), ("hidden_dim", int, 1), ("output_dim", int, 1),
                      ("learning_rate", float, 0), ("clip_norm", float, 0))
            values = [_number(kind, text, f"{path} line 2: {name}")
                      for (name, kind, _), text in zip(fields, head)]
            for (name, kind, least), value in zip(fields, values):
                if not least <= value < math.inf:
                    bound = f">= {least}" if kind is int else f"finite and >= {least}"
                    raise NeuralError(f"{path} line 2: {name} must be {bound}, got {value}")
            input_dim, hidden_dim, output_dim, lr, clip = values
            # All lines are checked before the net is built: a huge claimed net allocates nothing.
            shapes = _param_shapes(input_dim, hidden_dim, output_dim)
            flats = []
            for line, (kind, name) in enumerate(
                    itertools.product(("online", "target"), PARAM_NAMES), start=3):
                field = f"{path} line {line}: {kind} {name}"
                values = np.array([_number(float, text, field)
                                   for text in fh.readline().split()])
                size = math.prod(shapes[name])
                if values.size != size:
                    raise NeuralError(f"{field} holds {values.size} values, expected {size}")
                if not np.isfinite(values).all():
                    raise NeuralError(f"{field} holds a non-finite value")
                flats.append(values)
            if fh.readline():
                raise NeuralError(f"{path} line {line + 1}: unexpected line after the "
                                  "last parameter line")
        q = cls(input_dim, output_dim, hidden_dim, lr, clip, rng=np.random.default_rng(0))
        for view, values in zip([*q.online.values(), *q.target.values()], flats):
            view[...] = values.reshape(view.shape)
        return q


def _number(kind, text: str, where: str):
    """A checkpoint field converted by kind; one it refuses names where it is."""
    try:
        return kind(text)
    except ValueError as exc:
        raise NeuralError(f"{where}: {exc}") from None


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float, flat: np.ndarray) -> float:
    """Scale ``flat`` in place so its norm is at most clip_norm; returns the
    norm measured before scaling. ``grads`` holds flat's values array by
    array, as a QFunction's gradient views do: each array's squares are
    summed on their own, and the sums added in the order of ``grads``."""
    total = math.sqrt(sum(float(np.add.reduce(g * g, axis=None)) for g in grads.values()))
    if total > clip_norm and total > 0.0:
        flat *= clip_norm / total
    return total


def epsilon_greedy(q: QFunction, state: np.ndarray, epsilon: float,
                   rng: np.random.Generator, actions=None) -> int:
    """Epsilon-greedy pick from ``actions``, output indices (every output when
    None): a uniform draw with probability epsilon, else the highest Q-value,
    ties going to the first. Epsilon 0 draws nothing."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if actions is not None and len(actions) == 0:
        raise ValueError("empty action set")
    if epsilon > 0.0 and rng.random() < epsilon:
        if actions is None:
            return int(rng.integers(q.output_dim))
        return int(actions[int(rng.integers(len(actions)))])
    values = q.forward(state)
    if actions is None:
        return int(np.argmax(values))
    return int(actions[int(np.argmax(values.take(actions)))])
