"""Optimizers, including the shared RMSProp used by A3C.

A3C applies gradients from every agent to the *global* parameters using
RMSProp with shared (not per-agent) statistics ``g`` (paper Sections 2.2 and
4.2.3):

    g     <- rho * g + (1 - rho) * grad^2
    theta <- theta - eta * grad / sqrt(g + eps)

The FPGA RMSProp module (:mod:`repro.fpga.rmsprop_module`) implements the
same recurrence as a pipelined datapath; the two are cross-validated in the
test suite.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.nn.parameters import ParameterSet


class Optimizer:
    """Base class: applies gradient sets to a parameter set in-place."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: ParameterSet, grads: ParameterSet,
             learning_rate: typing.Optional[float] = None) -> None:
        """Apply one update.  ``learning_rate`` overrides the stored rate
        (A3C anneals the rate linearly to zero over training)."""
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def step(self, params: ParameterSet, grads: ParameterSet,
             learning_rate: typing.Optional[float] = None) -> None:
        lr = self.learning_rate if learning_rate is None else learning_rate
        for name in grads:
            params[name] -= lr * grads[name]


class RMSProp(Optimizer):
    """RMSProp with the A3C hyper-parameters as defaults.

    ``rho`` (decay) and ``eps`` follow the original A3C publication; the
    statistics ``g`` live in a :class:`ParameterSet` so they can be shared,
    checkpointed, or mirrored into the FPGA simulator's DRAM image.
    """

    def __init__(self, learning_rate: float = 7e-4, rho: float = 0.99,
                 eps: float = 0.1):
        super().__init__(learning_rate)
        self.rho = rho
        self.eps = eps
        self._g: typing.Optional[ParameterSet] = None
        #: Per-parameter scratch pairs, allocated on first use.
        self._scratch: typing.Dict[
            str, typing.Tuple[np.ndarray, np.ndarray]] = {}

    @property
    def statistics(self) -> typing.Optional[ParameterSet]:
        """The shared second-moment estimates (``None`` before first step)."""
        return self._g

    def attach(self, params: ParameterSet) -> None:
        """Pre-allocate statistics matching ``params`` (all zeros)."""
        self._g = params.zeros_like()

    def adopt_statistics(self, g: ParameterSet) -> None:
        """Use an existing statistics set in place of allocating one.

        The multiprocessing backend passes shared-memory views here so
        every worker updates the same ``g``, as A3C requires.
        """
        self._g = g

    def step(self, params: ParameterSet, grads: ParameterSet,
             learning_rate: typing.Optional[float] = None) -> None:
        lr = self.learning_rate if learning_rate is None else learning_rate
        if self._g is None:
            self.attach(params)
        g = self._g
        decay = 1.0 - self.rho
        for name in grads:
            grad = grads[name]
            stat = g[name]
            scratch = self._scratch.get(name)
            if scratch is None:
                scratch = (np.empty_like(stat), np.empty_like(stat))
                self._scratch[name] = scratch
            delta, root = scratch
            # In place, in the operation order of
            #   g     = rho * g + ((1 - rho) * grad) * grad
            #   theta = theta - (lr * grad) / sqrt(g + eps)
            # so results stay bit-identical to the expression form.  g is
            # never rebound: it may be a shared-memory view.
            np.multiply(decay, grad, out=delta)
            delta *= grad
            stat *= self.rho
            stat += delta
            np.add(stat, self.eps, out=root)
            np.sqrt(root, out=root)
            np.multiply(lr, grad, out=delta)
            delta /= root
            params[name] -= delta


class SharedRMSProp(RMSProp):
    """Alias emphasising that statistics are shared across A3C agents.

    Functionally identical to :class:`RMSProp`; a single instance must be
    used for all agents so that ``g`` is shared, as in the original A3C.
    """


class Adam(Optimizer):
    """Adam optimizer (used by some A3C re-implementations; provided for
    the hyper-parameter ablation benches)."""

    def __init__(self, learning_rate: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: typing.Optional[ParameterSet] = None
        self._v: typing.Optional[ParameterSet] = None
        self._t = 0

    def step(self, params: ParameterSet, grads: ParameterSet,
             learning_rate: typing.Optional[float] = None) -> None:
        lr = self.learning_rate if learning_rate is None else learning_rate
        if self._m is None:
            self._m = params.zeros_like()
            self._v = params.zeros_like()
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for name in grads:
            grad = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
