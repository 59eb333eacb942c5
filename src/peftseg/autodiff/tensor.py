"""Dense real tensors on a reverse-mode differentiation tape.

Tensors wrap C-contiguous float32/float64 ndarrays and have no operators:
every graph edge is added through :mod:`peftseg.autodiff.functional`.
Primitive applications (see :mod:`peftseg.autodiff.primitives`) record nodes
whenever any input participates in differentiation; ``backward`` replays the
recorded nodes in reverse topological order exactly once. Leaves that never
require gradients are never recorded, so their gradients are exactly zero by
construction.
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
# Arrays smaller than this come from the heap, larger ones from fresh pages.
HEAP_ARRAY_BYTES = 32 << 20


def _keep_freed_pages_mapped() -> None:
    """Ask the C allocator to keep freed array memory for reuse.

    ``backward`` frees each activation as soon as its rule has run, so the
    process's working set shrinks and grows once per step. With glibc's
    adaptive defaults the freed top of the heap goes back to the system and
    the next pass faults it in again page by page: a 32-sample evaluation
    after training in the same process took about 7,000 page faults and ran
    about a quarter slower. With the settings below, arrays under
    ``HEAP_ARRAY_BYTES`` (32 MB) come from the heap and up to 256 MB of free
    heap is kept. A no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, HEAP_ARRAY_BYTES)
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
    The node records its output's shape and dtype, so a consumer whose rule
    never reads that output can hold a stand-in instead (see ``stand_in``).
    """

    __slots__ = ("op_id", "inputs", "_output", "shape", "dtype", "backward_fn", "needs", "index")

    def __init__(self, op_id, inputs, output, backward_fn, needs):
        self.op_id = op_id
        self.inputs = inputs
        self._output = weakref.ref(output)
        self.shape, self.dtype = output.shape, output.dtype
        self.backward_fn = backward_fn
        self.needs = needs
        self.index = next(_node_counter)

    @property
    def output(self) -> "Tensor":
        """The tensor this node produced, or its stand-in once that tensor is freed.

        An output is freed when no consumer's rule reads it and the caller
        has dropped it; the stand-in then keeps ``shape``, ``dtype``,
        ``size`` and ``data.nbytes`` but its data are zeros.
        """
        out = self._output()
        return self.stand_in() if out is None else out

    def stand_in(self) -> "Tensor":
        """A tensor on this node with the output's shape and dtype but no storage:
        its data are a read-only, zero-strided broadcast of one zero."""
        return Tensor._wrap(np.broadcast_to(np.zeros((), self.dtype), self.shape), self)


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

    @classmethod
    def _wrap(cls, data: np.ndarray, node: Node | None = None) -> "Tensor":
        """A gradient-free tensor on ``data`` exactly as given: no cast, no copy."""
        t = cls.__new__(cls)
        t.data, t.requires_grad, t.grad, t.node = data, False, None, node
        return t

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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"


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

    Backward consumes the graph: a node drops its inputs and its rule before
    the rule runs, and the rule, with the arrays it saved, is dropped once it
    has run, so activations are freed as the sweep passes them. A rule owns
    its saved arrays: nothing else holds them while it runs, so a rule may
    free one (set its entry to None) once it has read it. A second backward
    through any consumed node raises :class:`GraphConsumedError`.
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
        _step(node, grad_table.pop(node.index, None), grad_table, result)

    for t, g in result.items():
        t.grad = g if t.grad is None else t.grad + g
    return result


def _step(node: Node, gout, grad_table: dict, result: dict) -> None:
    """Run one node's rule on its upstream gradient ``gout`` (None: no
    gradient reached it) and add what it returns to ``grad_table`` (by the
    producer's node index) or ``result`` (by leaf). Everything the rule read
    is freed when this returns."""
    # where each needed gradient goes, so the inputs can go before the rule runs
    dests = [None if not need else t if t.node is None else t.node.index
             for t, need in zip(node.inputs, node.needs)]
    rule = node.backward_fn
    node.inputs, node.backward_fn = (), None
    if gout is None:
        return
    gins = rule(gout, node.needs)
    del rule, gout
    for dest, g in zip(dests, gins):
        if dest is None or g is None:
            continue
        if isinstance(dest, int):
            grad_table[dest] = grad_table[dest] + g if dest in grad_table else g
        elif dest.requires_grad:
            # copy: g may be a view into another node's buffer
            result[dest] = result[dest] + g if dest in result else np.array(g, copy=True)
