"""The per-array TD reference the tests check the flat training path by:
loss and gradients from the target, check and backprop that training runs,
a clipped Adam step written out per array, and random small nets, their
minibatches and blocks."""

import math

import numpy as np

from acl_dqn.neural import GRAD_ORDER, PARAM_NAMES, QFunction
from acl_dqn.replay import Transition

FD_EPS = 1e-5


def random_net(rng, input_dim=None, hidden_dim=None, output_dim=None):
    input_dim = input_dim or int(rng.integers(2, 8))
    hidden_dim = hidden_dim or int(rng.integers(2, 10))
    output_dim = output_dim or int(rng.integers(2, 6))
    return QFunction(input_dim, output_dim, hidden_dim=hidden_dim, rng=rng)


def random_batch(rng, net, size=None):
    size = size or int(rng.integers(1, 8))
    return Transition(
        state=rng.normal(size=(size, net.input_dim)),
        action=rng.integers(0, net.output_dim, size=size),
        reward=rng.normal(size=size),
        next_state=rng.normal(size=(size, net.input_dim)),
        terminal=rng.random(size) < 0.3,
    )


def block_of(*minibatches):
    """The minibatches stacked as one block, a step per row."""
    return Transition(*map(np.stack, zip(*minibatches)))


def loss_and_grads(net, batch, gamma):
    """The mean-squared TD loss of one minibatch and its unclipped gradients
    w.r.t. the online parameters, in fresh arrays in GRAD_ORDER."""
    grads = {name: np.empty(net.online[name].shape) for name in GRAD_ORDER}
    y = net._td_targets(batch, gamma, net._target_w1t())
    actions = batch.action
    net._check(len(actions), actions.min(initial=0), actions.max(initial=0))
    return net._td_backprop(batch.state, actions, y, grads), grads


def fd_gradient(net, batch, gamma, name, index):
    """The central difference of the loss in ``net.online[name].flat[index]``."""
    original = net.online[name].flat[index]
    net.online[name].flat[index] = original + FD_EPS
    up, _ = loss_and_grads(net, batch, gamma)
    net.online[name].flat[index] = original - FD_EPS
    down, _ = loss_and_grads(net, batch, gamma)
    net.online[name].flat[index] = original
    return (up - down) / (2.0 * FD_EPS)


def reference_step(net, batch, gamma):
    """One clipped Adam step of ``net`` on one minibatch, array by array;
    returns the pre-step loss and the pre-clip gradient norm."""
    loss, grads = loss_and_grads(net, batch, gamma)
    norm = math.sqrt(sum(float(np.add.reduce(g * g, axis=None)) for g in grads.values()))
    if norm > net.clip_norm and norm > 0.0:
        scale = net.clip_norm / norm
        for g in grads.values():
            g *= scale
    net._adam_t += 1
    b1c, b2c = 1.0 - 0.9 ** net._adam_t, 1.0 - 0.999 ** net._adam_t
    m, v = net._views(net._adam_m), net._views(net._adam_v)
    for name in PARAM_NAMES:
        g = grads[name]
        m[name][...] = m[name] * 0.9 + 0.1 * g
        v[name][...] = v[name] * 0.999 + 0.001 * g * g
        net.online[name][...] -= (net.learning_rate * (m[name] / b1c)
                                  / (np.sqrt(v[name] / b2c) + 1e-8))
    return loss, norm
