"""Reverse-mode autodiff on numpy arrays with an explicit tape.

A ``Tape`` records every op applied to tensors that require gradients while it
is the innermost active tape.  ``Tape.backward`` replays the records in reverse
and accumulates gradients into the ``.grad`` field of the leaf tensors.  Ops
run eagerly on plain numpy arrays; each op registers a closure that maps the
output gradient to input gradients.

The tape alone owns a step's graph: its records hold the outputs, inputs and
closures, and no tensor refers back to a tape.  When the last reference to a
tape goes, reference counting frees the whole graph at once, activations and
convolution columns included, without waiting for the cyclic collector.

Storage is float32 by default.  ``shadow_precision()`` switches newly created
tensors to float64, which the gradient-check tests use to keep finite
differences clean.  Any op whose forward output contains a NaN or infinity
raises ``NonFiniteError`` immediately, so a diverging loss aborts with a
diagnostic instead of poisoning downstream state.
"""

from contextlib import contextmanager

import numpy as np


class NonFiniteError(ArithmeticError):
    """An op produced NaN or infinite values in its forward output."""


class ShapeError(ValueError):
    """Operands have shapes an op cannot accept."""


class DegenerateBatchError(ValueError):
    """A statistic was requested over too few elements (e.g. batch norm on one value)."""


_DTYPE = np.float32


def current_dtype():
    return _DTYPE


@contextmanager
def shadow_precision():
    """Create tensors in float64 inside the block.  Used by gradient checks."""
    global _DTYPE
    saved = _DTYPE
    _DTYPE = np.float64
    try:
        yield
    finally:
        _DTYPE = saved


def guard_finite(arr, op_name):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op_name} produced non-finite values")


# Innermost entry wins; None suspends recording (see no_grad).
_TAPE_STACK = []


@contextmanager
def no_grad():
    """Suspend recording even if an outer tape is active."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


class Tensor:
    """A numpy array plus gradient bookkeeping.

    Tensors are either leaves (parameters or wrapped inputs) or op outputs.
    Op outputs must not be mutated after creation; optimizers update leaf
    ``.data`` in place between tape lifetimes.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=current_dtype())
        self.requires_grad = requires_grad
        self.grad = None

    @classmethod
    def _raw(cls, arr):
        """Wrap an array computed by an op without casting its dtype."""
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


class _Node:
    # Holding ``out`` itself keeps its id() unique for the tape's lifetime.
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Records ops while active (as a context manager) and replays them backward."""

    def __init__(self):
        self._nodes = []
        self._produced = set()

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        assert _TAPE_STACK and _TAPE_STACK[-1] is self
        _TAPE_STACK.pop()
        return False

    def _record(self, out, inputs, backward_fn):
        self._nodes.append(_Node(out, inputs, backward_fn))
        self._produced.add(id(out))

    def backward(self, output, seed=None):
        """Accumulate d(output)/d(leaf) into leaf ``.grad`` fields.

        ``output`` must be a tensor this tape produced.  ``seed`` is the
        upstream gradient with the same shape as ``output``; omitting it
        requires a scalar output and seeds with 1.  Calling backward twice
        accumulates, matching the usual convention.
        """
        if not isinstance(output, Tensor):
            raise TypeError("backward expects a Tensor")
        if seed is None:
            if output.size != 1:
                raise ShapeError(
                    "backward on a non-scalar output requires an explicit seed gradient"
                )
            seed = np.ones_like(output.data)
        else:
            seed = np.asarray(seed, dtype=output.data.dtype)
            if seed.shape != output.data.shape:
                raise ShapeError(
                    f"seed shape {seed.shape} does not match output shape {output.data.shape}"
                )

        if id(output) not in self._produced:
            raise RuntimeError("output was not produced on this tape")

        pending = {id(output): seed}
        for node in reversed(self._nodes):
            g = pending.pop(id(node.out), None)
            if g is None:
                continue
            grads = node.backward_fn(g)
            for t, gi in zip(node.inputs, grads):
                if gi is None or not t.requires_grad:
                    continue
                if id(t) in self._produced:
                    acc = pending.get(id(t))
                    pending[id(t)] = gi if acc is None else acc + gi
                else:
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                    t.grad += gi


def apply_op(op_name, out_data, inputs, backward_fn):
    """Shared epilogue for every op: finite check, wrap, record if needed."""
    guard_finite(out_data, op_name)
    out = Tensor._raw(out_data)
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._record(out, inputs, backward_fn)
    return out


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_binary(a, b, op_name):
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError(f"{op_name} expects Tensor operands")
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as e:
        raise ShapeError(f"{op_name}: cannot broadcast {a.shape} with {b.shape}") from e


def add(a, b):
    _check_binary(a, b, "add")

    def backward_fn(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return apply_op("add", a.data + b.data, (a, b), backward_fn)


def mul(a, b):
    _check_binary(a, b, "mul")

    def backward_fn(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return apply_op("mul", a.data * b.data, (a, b), backward_fn)


def reshape(a, shape):
    out = np.reshape(a.data, shape)

    def backward_fn(g):
        return (np.reshape(g, a.data.shape),)

    return apply_op("reshape", out, (a,), backward_fn)


def broadcast_to_batch(a, batch):
    """Expand a leading batch dimension of 1 to ``batch`` (gradient sums back)."""
    if a.ndim < 1 or a.shape[0] != 1:
        raise ShapeError(f"broadcast_to_batch expects leading dim 1, got {a.shape}")
    out = np.ascontiguousarray(np.broadcast_to(a.data, (batch,) + a.shape[1:]))

    def backward_fn(g):
        return (g.sum(axis=0, keepdims=True),)

    return apply_op("broadcast_to_batch", out, (a,), backward_fn)
