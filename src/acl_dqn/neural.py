"""Feed-forward Q-function with manual backprop and a synced target copy.

One hidden tanh layer, linear output head, mean-squared TD loss, and
mini-batch Adam updates on globally norm-clipped gradients.  Used by
both the student and the teacher.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PARAM_NAMES = ("w1", "b1", "w2", "b2")


class NeuralError(Exception):
    pass


@dataclass
class Minibatch:
    states: np.ndarray       # [B, input_dim]
    actions: np.ndarray      # [B] int
    rewards: np.ndarray      # [B]
    next_states: np.ndarray  # [B, input_dim]
    terminal: np.ndarray     # [B] bool

    def __len__(self) -> int:
        return self.states.shape[0]


class QFunction:
    """W2 . tanh(W1 s + b1) + b2, with online and target parameter sets."""

    def __init__(self, input_dim: int, output_dim: int, hidden_dim: int = 80,
                 learning_rate: float = 0.001, clip_norm: float = 1.0, *,
                 rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        s1 = 1.0 / np.sqrt(input_dim)
        s2 = 1.0 / np.sqrt(hidden_dim)
        self.online = {
            "w1": rng.uniform(-s1, s1, size=(hidden_dim, input_dim)),
            "b1": np.zeros(hidden_dim),
            "w2": rng.uniform(-s2, s2, size=(output_dim, hidden_dim)),
            "b2": np.zeros(output_dim),
        }
        self.target = {k: v.copy() for k, v in self.online.items()}
        self._adam_m = {k: np.zeros_like(v) for k, v in self.online.items()}
        self._adam_v = {k: np.zeros_like(v) for k, v in self.online.items()}
        self._adam_t = 0

    def forward(self, states: np.ndarray, use_target: bool = False) -> np.ndarray:
        """Action values; accepts one state vector or a [B, input_dim] batch."""
        states = np.asarray(states, dtype=float)
        single = states.ndim == 1
        if states.shape[-1] != self.input_dim:
            raise NeuralError(
                f"state dim {states.shape[-1]} != input_dim {self.input_dim}")
        params = self.target if use_target else self.online
        x = states[None, :] if single else states
        h = np.tanh(x @ params["w1"].T + params["b1"])
        q = h @ params["w2"].T + params["b2"]
        return q[0] if single else q

    def td_loss_and_grads(self, batch: Minibatch,
                          gamma: float) -> tuple[float, dict[str, np.ndarray]]:
        """Mean-squared TD loss and its unclipped gradients w.r.t. the online
        parameters.

        Targets bootstrap from the target copy and are masked on terminal
        transitions: y = r + gamma * max_a' Q_target(s') * (1 - terminal).
        """
        if len(batch) == 0:
            raise NeuralError("empty minibatch")
        if not 0.0 <= gamma <= 1.0:
            raise NeuralError("gamma must lie in [0, 1]")
        if batch.actions.max(initial=0) >= self.output_dim:
            raise NeuralError("action index out of range")

        s = np.asarray(batch.states, dtype=float)
        s2 = np.asarray(batch.next_states, dtype=float)
        rewards = np.asarray(batch.rewards, dtype=float)
        terminal = np.asarray(batch.terminal, dtype=bool)
        actions = np.asarray(batch.actions, dtype=int)
        n = len(batch)

        q_next = self.forward(s2, use_target=True)
        y = rewards + gamma * q_next.max(axis=1) * (~terminal)

        p = self.online
        h = np.tanh(s @ p["w1"].T + p["b1"])
        q = h @ p["w2"].T + p["b2"]
        q_sel = q[np.arange(n), actions]
        err = q_sel - y
        loss = float(np.mean(err * err))

        dq = np.zeros_like(q)
        dq[np.arange(n), actions] = 2.0 * err / n
        grads = {
            "w2": dq.T @ h,
            "b2": dq.sum(axis=0),
        }
        dh = dq @ p["w2"]
        dpre = dh * (1.0 - h * h)
        grads["w1"] = dpre.T @ s
        grads["b1"] = dpre.sum(axis=0)
        return loss, grads

    def td_train_step(self, batch: Minibatch, gamma: float) -> float:
        """One clipped Adam step on the mean-squared TD loss; returns pre-step loss."""
        loss, grads = self.td_loss_and_grads(batch, gamma)
        clip_gradients(grads, self.clip_norm)
        p = self.online
        self._adam_t += 1
        b1c = 1.0 - 0.9 ** self._adam_t
        b2c = 1.0 - 0.999 ** self._adam_t
        for name in PARAM_NAMES:
            g = grads[name]
            m = self._adam_m[name]
            v = self._adam_v[name]
            m *= 0.9
            m += 0.1 * g
            v *= 0.999
            v += 0.001 * g * g
            p[name] -= self.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + 1e-8)
        return loss

    def sync_target(self) -> None:
        for k, v in self.online.items():
            self.target[k] = v.copy()

    def param_scalar(self) -> float:
        """RMS norm of all online parameters."""
        sq = 0.0
        count = 0
        for v in self.online.values():
            sq += float(np.sum(v * v))
            count += v.size
        return float(np.sqrt(sq / count))

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
                raise NeuralError(f"unrecognized checkpoint header {magic!r}")
            head = fh.readline().split()
            if len(head) < 5:
                raise NeuralError(f"checkpoint dims line has {len(head)} fields, expected 5")
            input_dim, hidden_dim, output_dim = (int(x) for x in head[:3])
            lr, clip = float(head[3]), float(head[4])
            q = cls(input_dim, output_dim, hidden_dim, lr, clip,
                    rng=np.random.default_rng(0))
            shapes = {
                "w1": (hidden_dim, input_dim),
                "b1": (hidden_dim,),
                "w2": (output_dim, hidden_dim),
                "b2": (output_dim,),
            }
            for params in (q.online, q.target):
                for name in PARAM_NAMES:
                    values = np.array([float(x) for x in fh.readline().split()])
                    if values.size != int(np.prod(shapes[name])):
                        raise NeuralError(f"truncated checkpoint at {name}")
                    params[name] = values.reshape(shapes[name])
        return q


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> float:
    """Scale gradients in place so their global norm is at most clip_norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > clip_norm and total > 0.0:
        scale = clip_norm / total
        for g in grads.values():
            g *= scale
        return clip_norm
    return total
