"""Reverse-mode automatic differentiation over dense float64 arrays.

The op set is exactly what the separation stack needs: 1-D convolution and
its adjoint, a handful of elementwise/reduction ops, nearest-neighbour
upsampling, and row slicing/concatenation for multi-source plumbing.

Forward computation is plain numpy.  While a :class:`Tape` is active, every
op whose inputs require gradients appends a backward closure to the tape;
:func:`backward` replays the tape in reverse execution order and accumulates
vector-Jacobian products.  With no tape active, ops run as pure forwards,
which is what inference uses.

Memory follows the taped op outputs.  A backward closure keeps only small
statistics beside its inputs, which are already on the tape, and recomputes
masks and normalised values from them.  The reverse sweep frees each
output's gradient as soon as its closure has consumed it, and ``.grad`` is
set on leaves only.

Everything is float64 and single-threaded numpy, so repeated evaluation of
the same graph on the same inputs is bit-identical.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Variance floor for the per-channel normalisation op.
NORM_EPS = 1e-8


class Tensor:
    """A dense float64 array with gradient bookkeeping.

    ``data`` is treated as read-only by the ops; the only sanctioned in-place
    mutation is an optimizer updating leaf parameters between tapes.  After
    :func:`backward`, a leaf's ``grad`` holds an array of the same shape
    (zeros if the tensor did not influence the loss); an op output's stays
    None.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # Arithmetic sugar; scalars are promoted to constant tensors.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self):
        return sum_all(self)

    def mean(self):
        return mean_all(self)


class Tape:
    """Execution-ordered record of differentiable ops.

    Use as a context manager around the forward pass.  Tapes nest; ops record
    onto the innermost active tape only.  One tape per training step, one
    writer thread: nothing here is locked.
    """

    def __init__(self):
        self._nodes = []  # (out, inputs, vjp) in execution order

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._nodes)

    def recorded_output_elems(self) -> int:
        """Total element count over all op outputs on the tape."""
        return int(sum(node[0].data.size for node in self._nodes))


_TAPES: list[Tape] = []


def _active() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _finish(out_data, inputs, make_vjp):
    """Wrap op output; record a backward closure if anything needs grads."""
    tape = _active()
    if tape is None or not any(t.requires_grad for t in inputs):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True)
    tape._nodes.append((out, inputs, make_vjp()))
    return out


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(tape: Tape, loss: Tensor) -> None:
    """Replay ``tape`` in reverse from a scalar ``loss``.

    Sets ``.grad`` on every leaf the tape touched: a requires_grad input that
    no op on the tape produced.  Leaves that did not influence the loss get
    zeros, and repeated appearances of the same leaf (weight sharing)
    accumulate.  An op output's gradient is complete once its node is
    reached, since every consumer comes later on the tape; it is freed right
    after the node's closure has run, and the output's ``.grad`` stays None.
    The tape itself is left intact.
    """
    if not isinstance(loss, Tensor):
        raise ValueError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for out, inputs, vjp in reversed(tape._nodes):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for t, gt in zip(inputs, vjp(g)):
            if gt is None or not t.requires_grad:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = gt if acc is None else acc + gt
    done = {id(out) for out, _, _ in tape._nodes}  # op outputs, then each leaf once set
    for _, inputs, _ in tape._nodes:
        for t in inputs:
            if t.requires_grad and id(t) not in done:
                done.add(id(t))
                g = grads.get(id(t))
                t.grad = g if g is not None else np.zeros_like(t.data)


# ---------------------------------------------------------------------------
# Elementwise and reduction ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def make():
        def vjp(g):
            return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

        return vjp

    return _finish(out, (a, b), make)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def make():
        def vjp(g):
            return (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))

        return vjp

    return _finish(out, (a, b), make)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def make():
        def vjp(g):
            ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
            gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
            return (ga, gb)

        return vjp

    return _finish(out, (a, b), make)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def make():
        def vjp(g):
            return (np.where(x.data > 0, g, 0.0),)

        return vjp

    return _finish(out, (x,), make)


def prelu(x, slope) -> Tensor:
    """max(0, x) + slope * min(0, x) with a scalar or per-channel slope.

    A 1-D slope is applied along axis 0 of ``x``.
    """
    x, slope = _as_tensor(x), _as_tensor(slope)
    if slope.ndim == 0:
        s = slope.data
    elif slope.ndim == 1:
        if slope.data.shape[0] != x.data.shape[0]:
            raise ValueError(
                f"prelu slope has {slope.data.shape[0]} channels but input has {x.data.shape[0]}"
            )
        s = slope.data.reshape((-1,) + (1,) * (x.ndim - 1))
    else:
        raise ValueError(f"prelu slope must be scalar or 1-D, got shape {slope.data.shape}")
    out = np.maximum(x.data, 0.0) + s * np.minimum(x.data, 0.0)

    def make():
        # The mask and the negative part are recomputed from x, which the
        # tape holds anyway, rather than kept as two more x-sized arrays.
        def vjp(g):
            gx = np.where(x.data > 0, g, g * s) if x.requires_grad else None
            gs = None
            if slope.requires_grad:
                prod = g * np.minimum(x.data, 0.0)
                if slope.ndim == 0:
                    gs = np.asarray(prod.sum())
                else:
                    gs = prod.sum(axis=tuple(range(1, x.ndim)))
            return (gx, gs)

        return vjp

    return _finish(out, (x, slope), make)


def softmax(x, axis: int) -> Tensor:
    x = _as_tensor(x)
    if x.data.shape[axis] == 0:
        raise ValueError(f"softmax over empty axis {axis} of shape {x.data.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def make():
        def vjp(g):
            inner = (g * out).sum(axis=axis, keepdims=True)
            return (out * (g - inner),)

        return vjp

    return _finish(out, (x,), make)


def log(x) -> Tensor:
    x = _as_tensor(x)
    out = np.log(x.data)

    def make():
        def vjp(g):
            return (g / x.data,)

        return vjp

    return _finish(out, (x,), make)


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    out = np.asarray(x.data.sum())

    def make():
        def vjp(g):
            return (np.broadcast_to(g, x.data.shape).copy(),)

        return vjp

    return _finish(out, (x,), make)


def mean_all(x) -> Tensor:
    x = _as_tensor(x)
    if x.data.size == 0:
        raise ValueError("mean of an empty tensor")
    out = np.asarray(x.data.mean())

    def make():
        inv = 1.0 / x.data.size

        def vjp(g):
            return (np.broadcast_to(g * inv, x.data.shape).copy(),)

        return vjp

    return _finish(out, (x,), make)


def global_layer_norm(x, gamma, beta, eps: float = NORM_EPS) -> Tensor:
    """Per-channel standardisation over the time axis with learnable affine.

    ``x`` is C x T; statistics are taken along axis 1 independently per
    channel, then scaled by ``gamma`` and shifted by ``beta`` (both shape C).
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.ndim != 2:
        raise ValueError(f"global_layer_norm expects a 2-D input, got shape {x.data.shape}")
    C = x.data.shape[0]
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ValueError(
            f"affine params must have shape ({C},), got {gamma.data.shape} and {beta.data.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = gamma.data[:, None] * (xc * inv) + beta.data[:, None]

    def make():
        # Only the C x 1 statistics are kept; xhat is recomputed by the
        # forward's own ops, so it is bit-identical to the forward's.
        def vjp(g):
            xhat = (x.data - mu) * inv
            ggamma = (g * xhat).sum(axis=1) if gamma.requires_grad else None
            gbeta = g.sum(axis=1) if beta.requires_grad else None
            gx = None
            if x.requires_grad:
                gh = g * gamma.data[:, None]
                gx = inv * (
                    gh
                    - gh.mean(axis=1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=1, keepdims=True)
                )
            return (gx, ggamma, gbeta)

        return vjp

    return _finish(out, (x, gamma, beta), make)


# ---------------------------------------------------------------------------
# Convolution and friends


def _same_geometry(T: int, K: int, stride: int):
    """Output length and symmetric zero-padding for stride-preserving conv.

    Pads so the output length is exactly ceil(T / stride); the extra sample
    of odd padding goes on the right.
    """
    Tp = -(-T // stride)
    total = max(0, K + (Tp - 1) * stride - T)
    left = total // 2
    return Tp, left, total - left


def conv1d(x, w, b=None, stride: int = 1, padding: str = "same") -> Tensor:
    """Multi-channel 1-D cross-correlation.

    ``x`` is Cin x T, ``w`` is Cout x Cin x K, optional ``b`` is Cout.
    padding "same" zero-pads symmetrically so the output length is
    ceil(T / stride); "valid" uses no padding and requires T >= K.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    b = _as_tensor(b) if b is not None else None
    if x.ndim != 2 or w.ndim != 3:
        raise ValueError(f"conv1d expects 2-D input and 3-D weight, got {x.data.shape} and {w.data.shape}")
    if w.data.shape[1] != x.data.shape[0]:
        raise ValueError(
            f"conv1d channel mismatch: input shape {x.data.shape} vs weight shape {w.data.shape}"
        )
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    K = w.data.shape[2]
    T = x.data.shape[1]
    if padding == "same":
        Tp, left, right = _same_geometry(T, K, stride)
    elif padding == "valid":
        if T < K:
            raise ValueError(f"valid conv needs input length >= kernel, got T={T} K={K}")
        Tp = (T - K) // stride + 1
        left = right = 0
    else:
        raise ValueError(f"unknown padding {padding!r}")
    if left or right:
        xpad = np.zeros((x.data.shape[0], T + left + right))
        xpad[:, left:left + T] = x.data
    else:
        xpad = x.data
    win = sliding_window_view(xpad, K, axis=1)[:, ::stride, :]  # (Cin, Tp, K)
    out = np.tensordot(w.data, win, axes=((1, 2), (0, 2)))  # (Cout, Tp)
    if b is not None:
        if b.data.shape != (w.data.shape[0],):
            raise ValueError(f"bias shape {b.data.shape} does not match {w.data.shape[0]} out channels")
        out = out + b.data[:, None]

    inputs = (x, w) if b is None else (x, w, b)

    def make():
        # Tap k of output column j reads input sample j*stride + k - left.
        # Per tap, the columns whose sample lies in x (not in the padding)
        # form a stride-spaced run; the vjp works on those runs of x itself,
        # so neither the padded input nor its windows outlive the forward.
        runs = []  # (tap, its output columns, the input samples they read)
        for k in range(K):
            j0 = max(0, -((k - left) // stride))
            j1 = min(Tp, (T - 1 + left - k) // stride + 1)
            if j1 > j0:
                i0 = j0 * stride + k - left
                runs.append((k, slice(j0, j1), slice(i0, i0 + (j1 - j0 - 1) * stride + 1, stride)))

        def vjp(g):
            gx = gw = gb = None
            if w.requires_grad:
                gw = np.zeros(w.data.shape)
                for k, cols, samples in runs:
                    gw[:, :, k] = g[:, cols] @ x.data[:, samples].T
            if x.requires_grad:
                gx = np.zeros(x.data.shape)
                for k, cols, samples in runs:
                    gx[:, samples] += w.data[:, :, k].T @ g[:, cols]
            if b is not None and b.requires_grad:
                gb = g.sum(axis=1)
            return (gx, gw) if b is None else (gx, gw, gb)

        return vjp

    return _finish(out, inputs, make)


def transposed_conv1d(
    v,
    w,
    b=None,
    stride: int = 1,
    padding: str = "same",
    out_length: int | None = None,
    allow_gaps: bool = False,
) -> Tensor:
    """Overlap-add of stride-spaced kernel copies; the exact adjoint of conv1d.

    ``v`` is Cin x L, ``w`` is Cin x Cout x K (input channels leading),
    optional ``b`` is Cout.  padding "valid" keeps the full overlap-add of
    length (L-1)*stride + K and is the adjoint of a valid conv.  padding
    "same" crops with the same geometry conv1d pads with and yields
    ``out_length`` samples (default L * stride), making it the adjoint of a
    "same" conv over an out_length-sample input.
    """
    v, w = _as_tensor(v), _as_tensor(w)
    b = _as_tensor(b) if b is not None else None
    if v.ndim != 2 or w.ndim != 3:
        raise ValueError(
            f"transposed_conv1d expects 2-D input and 3-D weight, got {v.data.shape} and {w.data.shape}"
        )
    if w.data.shape[0] != v.data.shape[0]:
        raise ValueError(
            f"transposed_conv1d channel mismatch: input shape {v.data.shape} vs weight shape {w.data.shape}"
        )
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    K = w.data.shape[2]
    if stride > K and not allow_gaps:
        raise ValueError(f"stride {stride} > kernel {K} leaves gaps in the output; pass allow_gaps=True")
    L = v.data.shape[1]
    Cout = w.data.shape[1]
    full_len = (L - 1) * stride + K
    tmp = np.tensordot(w.data, v.data, axes=((0,), (0,)))  # (Cout, K, L)
    full = np.zeros((Cout, full_len))
    hi = stride * (L - 1) + 1
    for k in range(K):
        full[:, k:k + hi:stride] += tmp[:, k, :]
    if padding == "valid":
        if out_length is not None and out_length != full_len:
            raise ValueError(f"valid transposed conv produces length {full_len}, not {out_length}")
        out = full
        left = 0
        T_out = full_len
    elif padding == "same":
        T_out = L * stride if out_length is None else out_length
        Tp, left, _right = _same_geometry(T_out, K, stride)
        if Tp != L:
            raise ValueError(
                f"out_length {T_out} with stride {stride} implies {Tp} input samples, got {L}"
            )
        out = np.zeros((Cout, T_out))
        n = min(T_out, full_len - left)
        out[:, :n] = full[:, left:left + n]
    else:
        raise ValueError(f"unknown padding {padding!r}")
    if b is not None:
        if b.data.shape != (Cout,):
            raise ValueError(f"bias shape {b.data.shape} does not match {Cout} out channels")
        out = out + b.data[:, None]

    inputs = (v, w) if b is None else (v, w, b)

    def make():
        n_copy = min(T_out, full_len - left)

        def vjp(g):
            gfull = np.zeros((Cout, full_len))
            gfull[:, left:left + n_copy] = g[:, :n_copy]
            gwin = sliding_window_view(gfull, K, axis=1)[:, ::stride, :]  # (Cout, L, K)
            gv = gw = gb = None
            if v.requires_grad:
                gv = np.tensordot(w.data, gwin, axes=((1, 2), (0, 2)))  # (Cin, L)
            if w.requires_grad:
                gw = np.tensordot(v.data, gwin, axes=((1,), (1,)))  # (Cin, Cout, K)
            if b is not None and b.requires_grad:
                gb = g.sum(axis=1)
            return (gv, gw) if b is None else (gv, gw, gb)

        return vjp

    return _finish(out, inputs, make)


def upsample_nearest(x, length: int) -> Tensor:
    """Stretch a C x L tensor to C x length by repeating samples."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"upsample_nearest expects a 2-D input, got shape {x.data.shape}")
    src = x.data.shape[1]
    if length < src:
        raise ValueError(f"target length {length} is shorter than source length {src}")
    idx = (np.arange(length) * src) // length
    out = x.data[:, idx]

    def make():
        # Each source column owns a contiguous run of output columns.
        bounds = np.searchsorted(idx, np.arange(src))

        def vjp(g):
            return (np.add.reduceat(g, bounds, axis=1),)

        return vjp

    return _finish(out, (x,), make)


def reshape(x, shape) -> Tensor:
    """View with a new shape of the same total size."""
    x = _as_tensor(x)
    out = x.data.reshape(shape).copy()

    def make():
        def vjp(g):
            return (g.reshape(x.data.shape),)

        return vjp

    return _finish(out, (x,), make)


def slice_rows(x, start: int, stop: int) -> Tensor:
    """Rows [start, stop) along axis 0, as a differentiable view-copy."""
    x = _as_tensor(x)
    n = x.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ValueError(f"row slice [{start}, {stop}) out of range for {n} rows")
    out = x.data[start:stop].copy()

    def make():
        def vjp(g):
            gx = np.zeros_like(x.data)
            gx[start:stop] = g
            return (gx,)

        return vjp

    return _finish(out, (x,), make)


def concat_rows(parts) -> Tensor:
    """Concatenate tensors along axis 0."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat_rows needs at least one tensor")
    out = np.concatenate([p.data for p in parts], axis=0)

    def make():
        sizes = [p.data.shape[0] for p in parts]

        def vjp(g):
            grads = []
            off = 0
            for p, sz in zip(parts, sizes):
                grads.append(g[off:off + sz] if p.requires_grad else None)
                off += sz
            return tuple(grads)

        return vjp

    return _finish(out, tuple(parts), make)


# ---------------------------------------------------------------------------
# Finite-difference verification


def grad_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` is a zero-argument callable returning a scalar Tensor; it must be
    deterministic, and ``params`` are the leaf tensors to perturb.  The
    relative error per entry is |a - n| / max(1e-8, |a| + |n|).
    """
    params = list(params)
    with Tape() as tape:
        loss = f()
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ValueError("grad_check needs f() to return a scalar Tensor")
    backward(tape, loss)
    analytic = [
        np.array(p.grad, copy=True) if p.grad is not None else np.zeros_like(p.data)
        for p in params
    ]
    max_err = 0.0
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        a_flat = analytic[pi].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = float(f().data.reshape(()))
            flat[i] = orig - eps
            lm = float(f().data.reshape(()))
            flat[i] = orig
            num = (lp - lm) / (2.0 * eps)
            a = a_flat[i]
            if not (np.isfinite(a) and np.isfinite(num)):
                raise FloatingPointError(
                    f"non-finite gradient at parameter {pi}, entry {i}: analytic={a}, numeric={num}"
                )
            err = abs(a - num) / max(1e-8, abs(a) + abs(num))
            if err > max_err:
                max_err = err
    return max_err
