"""Dense real tensors on a reverse-mode differentiation tape.

Tensors wrap C-contiguous float32/float64 ndarrays. Primitive applications
(see :mod:`peftseg.autodiff.primitives`) record nodes whenever any input
participates in differentiation; ``backward`` replays the recorded nodes in
reverse topological order exactly once. Leaves that never require gradients
are never recorded, so their gradients are exactly zero by construction.
"""

from __future__ import annotations

import ctypes
import itertools
import threading
import weakref

import numpy as np

from ..errors import GraphConsumedError, ShapeError

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_node_counter = itertools.count()
_state = threading.local()

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def _keep_freed_pages_mapped() -> None:
    """Ask the C allocator to keep freed array memory for reuse.

    ``backward`` frees each activation as soon as its rule has run, so the
    process's working set shrinks and grows once per step. With glibc's
    adaptive defaults the freed top of the heap goes back to the system and
    the next pass faults it in again page by page: a 32-sample evaluation
    after training in the same process took about 7,000 page faults and ran
    about a quarter slower. With the settings below, arrays under 32 MB come
    from the heap and up to 256 MB of free heap is kept. A no-op where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_pages_mapped()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Disable tape recording inside a ``with`` block (evaluation paths)."""

    def __enter__(self):
        self._prev = grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Node:
    """One recorded primitive application.

    ``index`` is a process-wide monotonically increasing sequence number, so
    insertion order is a topological order of the graph by construction.
    The output tensor holds its node, so the node refers back to it weakly:
    a graph is freed as soon as its root is, without the cyclic collector.
    """

    __slots__ = ("op_id", "inputs", "_output", "backward_fn", "needs", "index")

    def __init__(self, op_id, inputs, output, backward_fn, needs):
        self.op_id = op_id
        self.inputs = inputs
        self._output = weakref.ref(output)
        self.backward_fn = backward_fn
        self.needs = needs
        self.index = next(_node_counter)

    @property
    def output(self) -> "Tensor | None":
        """The tensor this node produced (None once that tensor is freed)."""
        return self._output()


class Tensor:
    """Dense n-dimensional real array, optionally tracked for differentiation.

    ``data`` is always C-contiguous float32 (default) or float64. ``grad``,
    when present, has the same shape as ``data``. Tensors are immutable once
    produced by a primitive; only optimizers mutate leaf ``data`` in place,
    between forward passes.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        view = self.data.view()
        view.flags.writeable = False
        return view

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # Operator sugar routes through the primitive registry so every graph
    # edge carries a backward rule. Imports are deferred to avoid a cycle.

    def __add__(self, other):
        from . import functional as F

        return F.add(self, _as_tensor(other, self.dtype))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        from . import functional as F

        return F.sub(self, _as_tensor(other, self.dtype))

    def __mul__(self, other):
        from . import functional as F

        if isinstance(other, (int, float)):
            return F.scale(self, float(other))
        return F.mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        from . import functional as F

        return F.neg(self)

    def __matmul__(self, other):
        from . import functional as F

        return F.matmul(self, other)

    def reshape(self, *shape):
        from . import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def transpose(self, *axes):
        from . import functional as F

        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return F.transpose(self, axes)

    def sum(self, axes=None, keepdims=False):
        from . import functional as F

        return F.sum(self, axes, keepdims)

    def mean(self, axes=None, keepdims=False):
        from . import functional as F

        return F.mean(self, axes, keepdims)


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


class Tape:
    """Ordered record of the primitive applications reaching one root.

    Nodes appear in ascending ``index`` order, so every node's inputs precede
    it; a single reversed sweep therefore visits each node exactly once.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Node]):
        self.nodes = nodes

    def op_ids(self) -> list[str]:
        return [n.op_id for n in self.nodes]


def trace(root: Tensor) -> Tape:
    """Extract the tape slice reachable from ``root``, in topological order."""
    if root.node is None:
        raise ShapeError("root tensor was not produced on the tape")
    seen: set[int] = {root.node.index}
    order: list[Node] = [root.node]
    stack: list[Node] = [root.node]
    while stack:
        node = stack.pop()
        for t in node.inputs:
            child = t.node
            if child is not None and child.index not in seen:
                seen.add(child.index)
                order.append(child)
                stack.append(child)
    order.sort(key=lambda n: n.index)
    return Tape(order)


def backward(root: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate gradients of a scalar ``root`` into every requires_grad leaf.

    Returns a map from leaf tensor to its gradient array; each leaf's ``grad``
    attribute is also accumulated (callers zero it between steps).

    Backward consumes the graph: once a node's rule has run, the node drops
    its inputs and its rule (with the arrays the rule saved), so activations
    are freed as the sweep passes them. A second backward through any
    consumed node raises :class:`GraphConsumedError`.
    """
    if root.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    tape = trace(root)
    for node in tape.nodes:
        if node.backward_fn is None:
            raise GraphConsumedError(
                f"backward through a consumed graph ({node.op_id} node {node.index}); "
                "rebuild the forward pass")

    # keyed by node index: an intermediate tensor may be freed before its
    # producer's turn comes, once its consumers have dropped their inputs
    grad_table: dict[int, np.ndarray] = {root.node.index: np.ones_like(root.data)}
    result: dict[Tensor, np.ndarray] = {}

    for node in reversed(tape.nodes):
        gout = grad_table.pop(node.index, None)
        inputs, rule = node.inputs, node.backward_fn
        node.inputs, node.backward_fn = (), None
        if gout is None:
            continue
        gins = rule(gout, node.needs)
        for t, g, needed in zip(inputs, gins, node.needs):
            if not needed or g is None:
                continue
            if t.node is not None:
                key = t.node.index
                if key in grad_table:
                    grad_table[key] = grad_table[key] + g
                else:
                    grad_table[key] = g
            elif t.requires_grad:
                if t in result:
                    result[t] = result[t] + g
                else:
                    # copy: g may be a view into another node's buffer
                    result[t] = np.array(g, copy=True)

    for t, g in result.items():
        t.grad = g if t.grad is None else t.grad + g
    return result
