"""Plain taped ops that the fused ops of ``latref.diffcore`` are tested against.

``upsample_nearest`` is the reference of ``upsample_conv1d`` and
``slice_rows`` that of ``masked_decode``'s per-source row blocks.  Neither
is used by the model, so they live here rather than in the package.
"""

import numpy as np

from latref.diffcore import Tensor, _as_tensor, _finish


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

    def vjp(g):
        # Each source column owns a contiguous run of output columns; its
        # gradient gathers the runs' first columns, then adds each later one.
        starts = np.searchsorted((np.arange(length) * src) // length, np.arange(src))
        runs = np.diff(starts, append=length)
        gx = g[:, starts]
        for r in range(1, int(runs.max())):
            has = runs > r
            gx[:, has] += g[:, starts[has] + r]
        return (gx,)

    return _finish(out, (x,), vjp)


def slice_rows(x, start: int, stop: int) -> Tensor:
    """Rows [start, stop) along axis 0, as a differentiable view-copy."""
    x = _as_tensor(x)
    n = x.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ValueError(f"row slice [{start}, {stop}) out of range for {n} rows")
    out = x.data[start:stop].copy()
    x_shape = x.data.shape

    def vjp(g):
        gx = np.zeros(x_shape)
        gx[start:stop] = g
        return (gx,)

    return _finish(out, (x,), vjp)
