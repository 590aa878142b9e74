"""Reverse-mode automatic differentiation over dense float64 arrays.

The op set is exactly what the separation stack needs:

- elementwise and reductions: ``add``, ``mul``, ``relu``, ``sum_all``;
  ``add`` and ``mul`` take operands of one shape, or a 0-d operand (a
  scalar) broadcast to the other's shape, and no other broadcast;
- ``prelu_norm``: PReLU fused with per-channel normalisation, one node per
  sub-block scale;
- ``conv1d`` and its exact adjoint ``transposed_conv1d``, which share one
  padding geometry and one windowing; a stride above the kernel leaves
  zeros between the transposed conv's kernel copies;
- ``residual``: v + conv1d(u, w), a conv and an add whose taped sum can
  be rebuilt rather than held;
- ``upsample_conv1d``: a x2 nearest upsample followed by a "same" conv,
  run as one conv of the source whose two output phases interleave, one
  node per sub-block up scale;
- ``masked_decode``: the mask net's conv, ReLU of its logits, masking of
  the encoding and one transposed conv per source, fused into one node
  whose vjp runs the transposed conv's own per source in one B x L
  buffer, then the mask conv's own.

Every op is one function: it computes its output in plain numpy, defines
its vector-Jacobian product (vjp) as a closure in its own body and hands
both to :func:`_finish`.  While a :class:`Tape` is active, an op whose
inputs require gradients records that vjp in a node; :func:`backward`
replays the tape in reverse execution order and accumulates the vjps'
terms.  With no tape active, ops run as pure forwards, which is what
inference uses, and the closure is dropped unused.  What only the sweep
needs (a conv's tap runs, ``masked_decode``'s geometry) is worked out
inside the vjp, so no node holds it; conv geometries and tap runs are
memoised by their integer arguments.

A vjp returns the gradient of every input it can form, and the sweep drops
the term of an input that needs none.  A vjp skips a gradient only where a
training regime feeds an input that needs none and the skip saves work or
memory: ``conv1d`` keeps its weight only for its input's gradient (the
encoder's signal and the first conv after a freeze line need none),
``mul`` keeps each operand only for the other's gradient (a constant or a
frozen operand needs none), and ``masked_decode`` forms ``v_enc``'s
gradient only when it needs one (a frozen encoder's does not).

Memory follows what the backward closures (vjps) read.  A node holds the
arrays its vjp reads (its saved arrays) and nothing it can rebuild exactly
from them: ``conv1d``, ``upsample_conv1d``, ``transposed_conv1d`` and
``prelu_norm`` keep their input, ``relu`` its output, ``mul`` the other
operand of each gradient it needs, ``masked_decode`` the latent and the
encoding (never the S x B x L logits), and the summing and adding ops
nothing.  An op output that can be rebuilt carries a recipe: a
:class:`_Recipe`, ``fn(*args)``, whose ``fn`` is the op's own forward and
whose ``args`` are the op's arguments, each Tensor among them entering as
its recipe (built first) or as its array.  The tape notes it under the
output's node, the only place a recipe is kept, and a node of that tape
that would save the output saves the recipe instead; a tensor from
another tape carries none here.  One rule decides which outputs carry
one (:func:`_remake`): ``conv1d``, ``upsample_conv1d`` and ``residual``
(v + conv1d(u, w)) remake their output exactly when every argument this
tape produced is held or carries a recipe, except that a ``residual``
sum over a rebuilt ``residual`` sum is held: no sum's rebuild builds
another sum.  One op keeps a rule of its own: ``prelu_norm`` always notes
its recipe (:class:`_Normalised`, the one subclass), the norm's own input
(or its recipe) and parameters and its C x 1 statistics.  ``add`` notes
none, so a sum it tapes, a U-Net skip sum or a block's output
v + proj(u), is held where a node reads it.

In the model the rule rebuilds the bottleneck's output, every conv over a
norm output (every down conv after a sub-block's first, the first up conv
and the projection), every up conv over a skip sum, from that held sum,
and the first down conv of every sub-block: over a held input, over the
bottleneck's rebuilt output, over the latent a frozen prefix hands over
or over a rebuilt ``residual`` sum.  It holds the skip sums and every
second sub-block input after a block's first one: a sub-block input
after the first is a ``residual`` sum, rebuilt from the input before it
unless that input is a rebuilt sum itself.  So a rebuild can reach down
a sub-block's whole down path, each conv on the build of the norm before
it, through at most one rebuilt sum under the first down conv (whose own
rebuild stops at held arrays), and up its up path only to the skip sum
or deepest norm under the up conv; it never crosses a block boundary,
since a block's output stays held and the next application's first down
conv is rebuilt from it alone.

The sweep builds a recipe bit for bit when a vjp first reads it and keeps
that build (its memo); every later read takes the memo, and the sweep
drops it on reaching the node that produced the output, which comes after
every node that reads it.  A norm's memo is its standardised values, from
which each build makes the output out of place and which the norm's own
vjp takes, so a sweep standardises each norm and runs each rebuilt conv
once.  Masks, normalised values and the fused ops' inner results are
recomputed from the saved arrays, and closures capture only shapes, flags
and C x 1 statistics, never a :class:`Tensor`.  So an op output that no
vjp reads is freed as soon as the forward drops it, and the tape's held
count (:meth:`Tape.held_output_elems`) is what a backward pass keeps.  The
reverse sweep frees each output's gradient as soon as its node's vjp has
consumed it and each node's saved arrays as soon as it reaches the node,
and ``.grad`` is set on leaves only.  So what a sweep keeps alive at a
node can be read off the tape, and :func:`alive_elems` reads it: the
held arrays not yet passed, the gradients, memos and builds alive.  A
vjp masks by multiplying with the comparison (``g * (out > 0)``), never
with ``np.where``: a select branches on every element, which on mixed-sign
activations costs several times the multiply.

Everything is float64 and single-threaded numpy, so repeated evaluation of
the same graph on the same inputs is bit-identical.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import accumulate

import numpy as np

# Variance floor for the per-channel normalisation op.
NORM_EPS = 1e-8


class Tensor:
    """A dense float64 array with gradient bookkeeping.

    ``data`` is treated as read-only by the ops; the only sanctioned in-place
    mutation is an optimizer updating leaf parameters between tapes.  After
    :func:`backward`, a leaf's ``grad`` holds an array of the same shape
    (zeros if the tensor did not influence the loss); an op output's stays
    None.  A taped op output carries its key on the tape that recorded it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_key")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._key = None  # (tape token, node position) of a taped op output

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

    def __mul__(self, other):
        return mul(self, other)


class Tape:
    """Execution-ordered record of differentiable ops.

    Use as a context manager around the forward pass.  Tapes nest; ops record
    onto the innermost active tape only, and a tensor another tape produced
    counts as a leaf here.  One tape per training step, one writer thread:
    nothing here is locked.

    A node is (output element count, input refs, saved arrays, vjp), the
    vjp being the closure the op passed to :func:`_finish`.  An op
    output's key is its node's position; an input ref is that key, the leaf
    Tensor itself (so ``.grad`` can be set), or None when the input needs no
    gradient.  The saved arrays are what the vjp reads, passed to it after
    the output gradient; no op output is held otherwise.  The tape notes
    the recipe (:class:`_Recipe`) of each output that can be rebuilt under
    its node's position; that map is the only place an output's recipe is
    kept, and the sweep drops the recipe's memo there.  A node saves such an
    input as its recipe, which the sweep builds into the array when the vjp
    runs.
    """

    def __init__(self):
        self._token = object()  # names the tape in keys without keeping it alive
        self._nodes = []
        self._held = {}  # id of a saved op-output array -> (producing node, elements)
        self._made = {}  # node position -> the recipe of that node's output, if any
        self._swept = False  # set by backward, which releases the saved arrays

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
        return sum(node[0] for node in self._nodes)

    def held_output_elems(self) -> int:
        """Elements of the op outputs the tape holds for backward (until the
        sweep releases them), each array once."""
        return sum(n for _, n in self._held.values())


_TAPES: list[Tape] = []


def _active() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _recipe_of(t: Tensor):
    """The recipe the active tape notes for ``t``'s node: None for a leaf,
    an untaped output, an output without one or another tape's output."""
    tape, key = _active(), t._key
    on_tape = tape is not None and key is not None and key[0] is tape._token
    return tape._made.get(key[1]) if on_tape else None


def _finish(out_data, inputs, vjp, saved=()):
    """Wrap op output; record a node if anything needs grads.

    ``vjp`` is the backward closure the op defined in its own body, recorded
    as it is and called as ``vjp(g, *saved)``; ``saved`` holds the arrays
    it reads (None for one it does not need).  The array of an input this
    tape produced is saved as the input's recipe if the tape notes one, and
    is then not held.  Any other entry, such as the bound ``take`` of
    ``prelu_norm``'s own recipe, reaches the vjp as it is.
    """
    tape = _active()
    if tape is None or not any(t.requires_grad for t in inputs):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True)
    token, pos = tape._token, len(tape._nodes)
    out._key = (token, pos)
    refs = tuple([None if not t.requires_grad
                  else t._key[1] if t._key is not None and t._key[0] is token
                  else t
                  for t in inputs])
    # An array saved again by a later node maps to the same entry.  An input
    # that carries a recipe is saved as the recipe, so its array is not held.
    kept = []
    for a in saved:
        if a is out_data:
            tape._held[id(a)] = (pos, a.size)
        elif a is not None:
            for t, ref in zip(inputs, refs):
                if type(ref) is int and t.data is a:
                    a = tape._made.get(ref, a)  # the input's recipe if the tape notes one
                    if a is t.data:  # none: the array is held
                        tape._held[id(a)] = (ref, a.size)
                    break
        kept.append(a)
    tape._nodes.append((out_data.size, refs, tuple(kept), vjp))
    return out


def _operand_shapes(a: Tensor, b: Tensor):
    """The shapes of ``add``'s or ``mul``'s operands, which must be one
    shape unless one of them is 0-d (a scalar, broadcast to the other)."""
    sa, sb = a.data.shape, b.data.shape
    if sa != sb and sa and sb:
        raise ValueError(f"operand shapes {sa} and {sb} differ and neither is a scalar")
    return sa, sb


def _unbroadcast(g, shape):
    """A broadcast scalar's gradient: the sum of ``g``; else ``g``."""
    return g if g.shape == shape else g.sum(axis=tuple(range(g.ndim))).reshape(shape)


def backward(tape: Tape, loss: Tensor) -> None:
    """Replay ``tape`` in reverse from a scalar ``loss``.

    Gradients are routed by key: an op output's node position, or the leaf
    Tensor itself.  Sets ``.grad`` on every leaf the tape touched: a
    requires_grad input that no op on the tape produced.  Leaves that did not
    influence the loss get zeros, and repeated appearances of the same leaf
    (weight sharing) accumulate.  An op output's gradient is complete once
    its node is reached, since every consumer comes later on the tape; it is
    freed right after the node's vjp has run, and the output's ``.grad``
    stays None.  Terms are summed in reverse tape order: the second makes a
    new array and later ones add into it in place, never into an array a
    vjp returned (``add``'s vjp passes its ``g`` on).  A saved recipe is
    made (or its memo taken) just before the node's vjp reads it.  The
    sweep releases each node's saved arrays, and drops the memo of the
    recipe its output carries, as it reaches the node, whether or not the
    vjp runs; so a tape is swept once, and its node and element counts stay
    as recorded.
    """
    deque(_sweep(tape, loss), maxlen=0)  # keeps none of what the sweep yields


def _sweep(tape: Tape, loss: Tensor):
    """:func:`backward`'s sweep, one step per node whose vjp runs.  Just
    after the vjp returns, before its terms are summed, it yields (node
    position, the node's gradient, the arguments its vjp read after it,
    the vjp's terms, the gradients pending by key); it keeps none of them
    once the terms are summed."""
    if not isinstance(loss, Tensor):
        raise ValueError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if tape._swept:
        raise ValueError("backward has already swept this tape; record the forward on a new one")
    tape._swept = True
    nodes, token, made = tape._nodes, tape._token, tape._made
    on_tape = loss._key is not None and loss._key[0] is token
    grads = {loss._key[1] if on_tape else loss: np.ones_like(loss.data)}
    owned = set()  # keys whose gradient is a sum backward allocated
    for pos in range(len(nodes) - 1, -1, -1):
        n, refs, saved, vjp = nodes[pos]
        nodes[pos] = (n, refs, None, vjp)  # no later node reads the saved arrays
        g = grads.pop(pos, None)
        if g is not None:
            built = [_built(a) for a in saved]
            terms = vjp(g, *built)
            yield pos, g, built, terms, grads
            built = None
            for ref, gt in zip(refs, terms):
                if ref is None or gt is None:
                    continue
                acc = grads.get(ref)
                if acc is None:
                    grads[ref] = gt
                elif ref in owned:
                    grads[ref] += gt
                else:
                    grads[ref] = acc + gt
                    owned.add(ref)
            g = terms = gt = acc = None  # the next node's peak holds none of them
        if pos in made:  # every node that reads the output came before
            made.pop(pos).memo = None
    leaves = {ref: None for _, refs, _, _ in nodes for ref in refs if isinstance(ref, Tensor)}
    for leaf in leaves:
        g = grads.get(leaf)
        leaf.grad = g if g is not None else np.zeros_like(leaf.data)


def alive_elems(tape: Tape, loss: Tensor):
    """Sweep ``tape`` as :func:`backward` does, yielding the elements alive
    at each node whose vjp runs, just after it returns, as the tape's own
    nodes, refs, saved arrays and recipes give them.  Each array counts
    once among: the held arrays a node not yet reached still saves; the op
    outputs' gradients, pending, the node's own and the vjp's terms; the
    memos of the recipes the tape still notes; and the arrays the node's
    saved recipes built.  Leaves' gradients, which do not grow with the
    activations, and what a vjp or a rebuild allocates and drops inside
    itself are not counted."""
    nodes, made, held = tape._nodes, tape._made, tape._held
    # A held array is freed where the sweep passes the lowest node that
    # saves it: a recipe keeps only arrays an earlier node saves.
    freed = {}
    for pos, (_, _, saved, _) in enumerate(nodes):
        for a in saved:
            if id(a) in held:
                freed.setdefault(id(a), pos)
    held_alive = [0] * len(nodes)  # freed at each position, then summed up to it
    for key, pos in freed.items():
        held_alive[pos] += held[key][1]
    held_alive = list(accumulate(held_alive))
    rebuilt = [[i for i, a in enumerate(saved) if isinstance(a, _Recipe)]
               for _, _, saved, _ in nodes]
    for pos, g, built, terms, grads in _sweep(tape, loss):
        alive = {id(a): a.size for key, a in grads.items() if type(key) is int}
        alive[id(g)] = g.size
        alive.update((id(t), t.size) for ref, t in zip(nodes[pos][1], terms)
                     if type(ref) is int and t is not None)
        alive.update((id(built[i]), built[i].size) for i in rebuilt[pos])
        for r in made.values():
            memo = r.memo.data if isinstance(r.memo, Tensor) else r.memo
            if memo is not None:
                alive[id(memo)] = memo.size
        yield held_alive[pos] + sum(alive.values())


# ---------------------------------------------------------------------------
# Elementwise and reduction ops


def add(a, b) -> Tensor:
    """a + b, a plain sum: no recipe rebuilds one, so a taped sum that a
    later node reads is held (a U-Net skip sum, a block's output)."""
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = _operand_shapes(a, b)
    out = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, sa), _unbroadcast(g, sb))

    return _finish(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = _operand_shapes(a, b)
    out = a.data * b.data
    # Each operand's gradient reads the other operand, which is kept only
    # if that gradient is needed: a constant or a frozen operand needs none.
    saved = (a.data if b.requires_grad else None, b.data if a.requires_grad else None)

    def vjp(g, a_data, b_data):
        ga = None if b_data is None else _unbroadcast(g * b_data, sa)
        gb = None if a_data is None else _unbroadcast(g * a_data, sb)
        return (ga, gb)

    return _finish(out, (a, b), vjp, saved)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def vjp(g, out):  # out > 0 exactly where x > 0
        return (g * (out > 0),)

    return _finish(out, (x,), vjp, (out,))


def _prelu_into(h, x, s):
    """Add s * min(x, 0) to ``h`` (which holds max(x, 0)) in place, through
    one temporary."""
    neg = np.minimum(x, 0.0)
    neg *= s
    h += neg
    return h


def _prelu_slopes(x, s):
    """d prelu / dx: 1 where x > 0, else the slope ``s`` (zero included).
    Built as s * (x <= 0) + (x > 0), exact on both sides and free of the
    data-dependent branches a select takes on mixed-sign input."""
    out = s * (x <= 0)
    out += x > 0
    return out


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    out = np.asarray(x.data.sum())
    shape = x.data.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _finish(out, (x,), vjp)


def prelu_norm(x, slope, gamma, beta) -> Tensor:
    """PReLU, then per-channel standardisation over time with a learnable affine.

    ``x`` is C x T and ``slope``, ``gamma``, ``beta`` have shape C.  The PReLU
    output h = max(0, x) + slope * min(0, x) is standardised along axis 1
    independently per channel, then scaled by ``gamma`` and shifted by
    ``beta``.  One node is taped; h is never kept.
    """
    x, slope = _as_tensor(x), _as_tensor(slope)
    gamma, beta = _as_tensor(gamma), _as_tensor(beta)
    if x.ndim != 2:
        raise ValueError(f"prelu_norm expects a 2-D input, got shape {x.data.shape}")
    C = x.data.shape[0]
    shapes = (slope.data.shape, gamma.data.shape, beta.data.shape)
    if any(shape != (C,) for shape in shapes):
        raise ValueError(f"slope and affine params must have shape ({C},), got {shapes}")
    s = slope.data[:, None]
    h = _prelu_into(np.maximum(x.data, 0.0), x.data, s)
    mu = h.mean(axis=1, keepdims=True)
    h -= mu
    inv = 1.0 / np.sqrt((h * h).mean(axis=1, keepdims=True) + NORM_EPS)
    h *= inv
    _affine(h, gamma.data, beta.data, out=h)
    # Only x and the C x 1 statistics are kept; the PReLU output and xhat are
    # recomputed from x by the forward's own ops, so they are bit-identical
    # to the forward's.  The output's recipe keeps the xhat of its first
    # build in the sweep, and the vjp takes that xhat or, if nothing rebuilt
    # the output, has the recipe make it.
    # With T samples per channel and gh = gamma * g, the norm's gradient
    #   inv * (gh - mean(gh) - xhat * mean(gh * xhat))
    # takes both means from the affine's row sums:
    #   mean(gh) = gamma * gbeta / T, mean(gh * xhat) = gamma * ggamma / T.
    T = x.data.shape[1]
    recipe = _Normalised(_recipe_of(x) or x.data, s, gamma.data, beta.data, mu, inv)

    def vjp(g, x_data, slope_data, gamma_data, take_xhat):
        xhat = take_xhat()
        gbeta = g.sum(axis=1)
        ggamma = np.einsum("ct,ct->c", g, xhat)
        gh = xhat  # xhat's last use: overwrite it with the PReLU output's gradient
        gh *= (-ggamma / T)[:, None]
        gh += g
        gh -= (gbeta / T)[:, None]
        gh *= inv * gamma_data[:, None]
        gs = np.einsum("ct,ct->c", gh, np.minimum(x_data, 0.0))
        gh *= _prelu_slopes(x_data, slope_data[:, None])
        return (gh, gs, ggamma, gbeta)

    out = _finish(h, (x, slope, gamma, beta), vjp, (x.data, slope.data, gamma.data, recipe.take))
    if out._key is not None:
        _active()._made[out._key[1]] = recipe
    return out


def _standardised(x, s, mu, inv):
    """(PReLU(x) - mu) * inv by the forward's own in-place ops, so it equals
    the forward's standardised value bit for bit."""
    h = _prelu_into(np.maximum(x, 0.0), x, s)
    h -= mu
    h *= inv
    return h


def _affine(xhat, gamma, beta, out):
    """xhat * gamma + beta per channel, written to ``out``: xhat itself for
    the forward's in-place affine, None for a new array of the same bits."""
    out = np.multiply(xhat, gamma[:, None], out=out)
    out += beta[:, None]
    return out


class _Recipe:
    """Rebuilds a taped op output exactly as ``fn(*args)``: ``fn`` is the
    op's own forward and ``args`` its arguments, each Tensor among them
    entering as its array or as its recipe, which is built first.

    A node saves an input that carries a recipe as the recipe (see
    :func:`_finish`), and :func:`backward` builds it just before that node's
    vjp reads it.  The first build in a sweep is kept as ``memo`` and every
    later one returns it, so the readers share one array and none writes
    into it.  The sweep drops the memo on reaching the node that produced
    the output, which it reaches after every node that reads it.
    """

    __slots__ = ("fn", "args", "memo")

    def __init__(self, fn, *args):
        self.fn, self.args, self.memo = fn, args, None

    def make(self):
        """``fn`` on the built arguments, once per sweep (the memo)."""
        if self.memo is None:
            self.memo = self.fn(*[_built(a) for a in self.args])
        return self.memo

    def build(self):
        return self.make().data


def _remake(out: Tensor, op, *args) -> Tensor:
    """Note ``op(*args)`` as the recipe of ``out``, the output ``op`` just
    taped, if every argument this tape produced is held or carries a
    recipe, and, for ``residual``'s own sum, if none carries a sum's
    (``residual``'s).  Each Tensor argument enters the recipe as its
    recipe, or as its array if it carries none: one held here, or one no
    node of the tape made (a leaf, an untaped output), which the recipe
    keeps.  So a conv's rebuild may build a sum, but no sum's rebuild
    builds another, and no rebuild reads an array the tape would
    otherwise free."""
    if out._key is None:
        return out
    tape = _active()
    entries = []
    for a in args:
        if isinstance(a, Tensor):
            r = _recipe_of(a)
            if r is None:
                if a._key is not None and a._key[0] is tape._token and id(a.data) not in tape._held:
                    return out  # made here and freed once the forward drops it
                r = a.data
            elif r.fn is residual and op is residual:
                return out  # a sum over a rebuilt sum
            a = r
        entries.append(a)
    tape._made[out._key[1]] = _Recipe(op, *entries)
    return out


class _Normalised(_Recipe):
    """The recipe of a taped ``prelu_norm`` output: its input (or the
    input's recipe), slope and affine and the C x 1 statistics, every one
    an array its node or a parameter already holds.

    Its ``fn`` is :func:`_standardised`, so its memo is the standardised
    values, not the output: each build returns their affine out of place,
    and the norm's own vjp takes them to write over (:meth:`take`), so a
    sweep standardises each norm once.
    """

    __slots__ = ("gamma", "beta")

    def __init__(self, x, s, gamma, beta, mu, inv):
        super().__init__(_standardised, x, s, mu, inv)
        self.gamma, self.beta = gamma, beta

    def build(self):
        return _affine(self.make(), self.gamma, self.beta, out=None)

    def take(self):
        """The standardised values, made now if no build made them, handed
        over with the memo dropped."""
        xhat, self.memo = self.make(), None
        return xhat


def _built(x):
    """``x`` itself if it is an array, its build if it is a recipe."""
    return x.build() if isinstance(x, _Recipe) else x


# ---------------------------------------------------------------------------
# Convolution and friends


@lru_cache(maxsize=256)
def _conv_geometry(T: int, K: int, stride: int, padding: str):
    """(Tp, left, right): the output length and zero padding of a K-tap conv
    over T samples.

    "same" pads so the output length is exactly ceil(T / stride), the extra
    sample of odd padding on the right; "valid" pads nothing and needs T >= K.
    """
    if padding == "same":
        Tp = -(-T // stride)
        total = max(0, K + (Tp - 1) * stride - T)
        return Tp, total // 2, total - total // 2
    if padding == "valid":
        if T < K:
            raise ValueError(f"valid conv needs input length >= kernel, got T={T} K={K}")
        return (T - K) // stride + 1, 0, 0
    raise ValueError(f"unknown padding {padding!r}")


def _conv_operands(name: str, x, w, b, stride: int, in_axis: int):
    """``x``, ``w`` and ``b`` (or None) as tensors, after the checks every conv
    makes: x is C x T, w is 3-D with C on axis ``in_axis`` and the out
    channels on the other of its first two axes, b has one entry per out
    channel, and the stride is positive."""
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    if x.ndim != 2 or w.ndim != 3:
        raise ValueError(f"{name} expects 2-D input and 3-D weight, got {x.data.shape} and {w.data.shape}")
    if w.data.shape[in_axis] != x.data.shape[0]:
        raise ValueError(
            f"{name} channel mismatch: input shape {x.data.shape} vs weight shape {w.data.shape}"
        )
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    cout = w.data.shape[1 - in_axis]
    if b is not None and b.data.shape != (cout,):
        raise ValueError(f"bias shape {b.data.shape} does not match {cout} out channels")
    return x, w, b


def _windows(x, K: int, stride: int, left: int, right: int):
    """C x Tp x K view of the stride-spaced K-sample windows of ``x`` after
    zero-padding it by ``left`` and ``right`` samples."""
    if left or right:
        xpad = np.zeros((x.shape[0], x.shape[1] + left + right))
        xpad[:, left:left + x.shape[1]] = x
        x = xpad
    else:
        x = np.ascontiguousarray(x)  # the view below needs one buffer
    C, T = x.shape
    s0, s1 = x.strides
    return np.ndarray((C, (T - K) // stride + 1, K), x.dtype, x, 0, (s0, s1 * stride, s1))


def conv1d(x, w, b=None, stride: int = 1, padding: str = "same") -> Tensor:
    """Multi-channel 1-D cross-correlation.

    ``x`` is Cin x T, ``w`` is Cout x Cin x K, optional ``b`` is Cout.
    padding "same" zero-pads symmetrically so the output length is
    ceil(T / stride); "valid" uses no padding and requires T >= K.
    Taped, its output is remade (:func:`_remake`) from its input or the
    input's recipe.
    """
    x, w, b = _conv_operands("conv1d", x, w, b, stride, 1)
    Cout, _, K = w.data.shape
    T = x.data.shape[1]
    Tp, left, right = _conv_geometry(T, K, stride, padding)
    # One GEMM over the (Cin K) x Tp window matrix, run as tensordot runs it:
    # a view where the windows' layout allows one (a 1 x 1, stride-1 conv of
    # a contiguous input reads that input itself), else one copy.
    col = _windows(x.data, K, stride, left, right).transpose(0, 2, 1).reshape(-1, Tp)
    out = np.dot(w.data.reshape(Cout, -1), col)  # (Cout, Tp)
    if b is not None:
        out += b.data[:, None]

    x_shape, w_shape = x.data.shape, w.data.shape
    biased = b is not None

    def vjp(g, x_data, w_data):
        gx, gw = _conv_vjp(g, x_data, w_data, x_shape, w_shape, stride, left)
        return (gx, gw, g.sum(axis=1)) if biased else (gx, gw)

    # The weight is kept only for the input's gradient: the encoder's signal,
    # and the first conv after a freeze line, need none.
    saved = (x.data, w.data if x.requires_grad else None)
    out = _finish(out, (x, w, b) if biased else (x, w), vjp, saved)
    return _remake(out, conv1d, x, w, b, stride, padding)


def residual(v, u, w) -> Tensor:
    """``v + conv1d(u, w)``, a residual update, as two taped nodes whose sum
    is remade by ``residual`` itself (:func:`_remake`) when ``v`` and ``u``
    are each held, untaped or rebuilt by a recipe that is not a sum's.  So
    the next node that reads the sum holds no array for it, and a conv
    over it is rebuilt from its recipe; a ``v`` that is itself a rebuilt
    sum leaves this sum held, so no sum's rebuild builds another sum's."""
    return _remake(add(v, conv1d(u, w)), residual, v, u, w)


@lru_cache(maxsize=256)
def _tap_runs(T: int, K: int, stride: int, left: int, Tp: int):
    """(tap, its output columns, the input samples they read) per tap of a conv.

    Tap k of output column j reads input sample j*stride + k - left.  Per
    tap, the columns whose sample lies in the T-sample input (not in the
    padding) form a stride-spaced run; a vjp works on those runs of the
    input itself, so neither the padded input nor its windows outlive the
    forward, and :func:`transposed_conv1d` adds its kernel copies along
    them straight into its output.  Memoised, so the runs are a tuple that
    no caller can change.
    """
    runs = []
    for k in range(K):
        j0 = max(0, -((k - left) // stride))
        j1 = min(Tp, (T - 1 + left - k) // stride + 1)
        if j1 > j0:
            i0 = j0 * stride + k - left
            runs.append((k, slice(j0, j1), slice(i0, i0 + (j1 - j0 - 1) * stride + 1, stride)))
    return tuple(runs)


def _conv_vjp(g, x, w, x_shape, w_shape, stride: int, left: int):
    """(input gradient, weight gradient) of a conv's output gradient ``g``,
    one matmul per tap run of the conv of an ``x_shape`` input ``x`` by a
    ``w_shape`` weight ``w`` at this stride and left padding.  A ``w`` of
    None, which :func:`conv1d` passes for an input that needs no gradient,
    gives no input gradient.  The input gradient is formed first, so the
    weight gradient (an upsample conv's is 2 Cout x Cin x Kp) is not alive
    during the input gradient's matmuls."""
    runs = _tap_runs(x_shape[1], w_shape[2], stride, left, g.shape[1])
    gx = None
    if w is not None:
        gx = np.zeros(x_shape)
        for k, cols, samples in runs:
            gx[:, samples] += w[:, :, k].T @ g[:, cols]
    gw = np.zeros(w_shape)
    for k, cols, samples in runs:
        gw[:, :, k] = g[:, cols] @ x[:, samples].T
    return gx, gw


def _tconv_vjp(g, v, w, K: int, stride: int, left: int, right: int, out=None):
    """(input gradient, weight gradient) of a transposed conv's output
    gradient ``g``: the conv of g in the forward's geometry, both contracted
    from one view of g's windows, window l holding the samples input column
    l's kernel copy landed on, of the forward's input ``v`` and weight
    ``w``.  The input gradient is written into ``out`` if given, which may
    be ``v`` itself: the weight gradient has read it by then."""
    gwin = _windows(g, K, stride, left, right)  # (Cout, L, K)
    gw = np.tensordot(v, gwin, axes=((1,), (1,)))  # (Cin, Cout, K)
    Cin, L = w.shape[0], gwin.shape[1]  # tensordot(w, gwin, ((1, 2), (0, 2)))'s own GEMM
    gv = np.dot(w.reshape(Cin, -1), gwin.transpose(0, 2, 1).reshape(-1, L), out=out)
    return gv, gw


def transposed_conv1d(
    v,
    w,
    b=None,
    stride: int = 1,
    padding: str = "same",
    out_length: int | None = None,
) -> Tensor:
    """The exact adjoint of conv1d: stride-spaced kernel copies, added up.

    ``v`` is Cin x L, ``w`` is Cin x Cout x K (input channels leading),
    optional ``b`` is Cout.  The output is the input side of the conv1d with
    this kernel, stride and padding whose output has L samples: its length
    is ``out_length``, by default L * stride for "same" and the full
    overlap-add (L-1)*stride + K for "valid", and must map back to L.
    Input column l's kernel copy lands where that conv's output l reads;
    the parts that fall in its padding are dropped, and samples no copy
    reaches (stride > K leaves gaps) are zeros before the bias.
    """
    v, w, b = _conv_operands("transposed_conv1d", v, w, b, stride, 0)
    Cout, K = w.data.shape[1:]
    L = v.data.shape[1]
    if out_length is None:
        out_length = L * stride if padding == "same" else (L - 1) * stride + K
    Tp, left, right = _conv_geometry(out_length, K, stride, padding)
    if Tp != L:
        raise ValueError(f"a {padding!r} conv with kernel {K} and stride {stride} maps "
                         f"out_length {out_length} to {Tp} samples, not the input's {L}")
    tmp = np.tensordot(w.data, v.data, axes=((0,), (0,)))  # (Cout, K, L)
    out = np.zeros((Cout, out_length))
    for k, cols, samples in _tap_runs(out_length, K, stride, left, L):
        out[:, samples] += tmp[:, k, cols]
    if b is not None:
        out += b.data[:, None]

    biased = b is not None

    def vjp(g, v_data, w_data):
        gv, gw = _tconv_vjp(g, v_data, w_data, K, stride, left, right)
        return (gv, gw, g.sum(axis=1)) if biased else (gv, gw)

    return _finish(out, (v, w, b) if biased else (v, w), vjp, (v.data, w.data))


@lru_cache(maxsize=256)
def _phase_taps(K: int):
    """Tap map of a stride-1 "same" K-tap conv over a x2 nearest upsample.

    Output column 2m + p (phase p) of that conv reads source column
    m + taps[p][k] - lp through tap k.  So each phase is one "same" conv of
    the source with Kp taps, tap t summing the taps k with taps[p][k] == t,
    whose own left padding is lp.  Returns (taps, Kp, lp), memoised, so
    taps is a tuple of tuples.
    """
    left = (K - 1) // 2
    lp = (left + 1) // 2
    taps = tuple(tuple((p + k - left) // 2 + lp for k in range(K)) for p in (0, 1))
    return taps, taps[1][-1] + 1, lp


def _phase_weights(w, taps, Kp: int):
    """2 Cout x Cin x Kp weights: phase 0's summed taps, then phase 1's."""
    Cout, Cin, K = w.shape
    pw = np.zeros((2, Cout, Cin, Kp))
    for p in (0, 1):
        for k in range(K):
            pw[p, :, :, taps[p][k]] += w[:, :, k]
    return pw.reshape(2 * Cout, Cin, Kp)


def upsample_conv1d(u, w, b, length: int) -> Tensor:
    """A "same" conv by ``w`` and ``b`` of ``u`` upsampled x2 by repeating
    samples, computed at the source rate.

    ``u`` is Cin x src, ``w`` is Cout x Cin x K, ``b`` is Cout, and
    ``length`` is 2 * src or 2 * src - 1.  Nearest upsampling repeats each
    source column twice (the odd length drops the last copy), so each
    output phase (even or odd columns) is a "same" conv of ``u`` itself with
    summed taps; both phases run as one conv of 2 Cout channels, and the
    odd length sums again the last outputs, which would read the dropped
    copy.  One node is taped; its vjp rebuilds the phase weights from ``w``.
    """
    u, w, b = _conv_operands("upsample_conv1d", u, w, b, 1, 1)
    Cout, Cin, K = w.data.shape
    src = u.data.shape[1]
    if src < 1 or length not in (2 * src - 1, 2 * src):
        raise ValueError(f"upsample_conv1d doubles {src} samples to {2 * src - 1} or {2 * src}, "
                         f"not {length}")
    taps, Kp, lp = _phase_taps(K)
    # Plain arrays in, so this call tapes nothing.
    both = conv1d(u.data, _phase_weights(w.data, taps, Kp), np.concatenate((b.data, b.data))).data
    out = np.empty((Cout, length))
    out[:, 0::2] = both[:Cout]
    out[:, 1::2] = both[Cout:, :length // 2]
    # An odd length drops the copy of u[:, src - 1] at column `length`, which
    # output j reads through tap length + left - j.  Those outputs are
    # summed again over the columns they keep, so no tap cancels another.
    left = (K - 1) // 2
    dropped = range(max(0, length + left - K + 1), length) if length % 2 else range(0)
    for j in dropped:
        out[:, j] = b.data
        for k in range(max(0, left - j), length + left - j):
            out[:, j] += w.data[:, :, k] @ u.data[:, (j + k - left) // 2]

    def vjp(g, u_data, w_data):
        gboth = np.zeros((2 * Cout, src))
        gboth[:Cout] = g[:, 0::2]
        gboth[Cout:, :length // 2] = g[:, 1::2]
        gu, gpw = _conv_vjp(gboth, u_data, _phase_weights(w_data, taps, Kp),
                            (Cin, src), (2 * Cout, Cin, Kp), 1, lp)
        gpw = gpw.reshape(2, Cout, Cin, Kp)
        gw = np.empty((Cout, Cin, K))
        for k in range(K):
            gw[:, :, k] = gpw[0, :, :, taps[0][k]] + gpw[1, :, :, taps[1][k]]
        for j in dropped:  # the phase conv's vjp counted the dropped copy: take it out
            k = length + left - j
            gu[:, src - 1] -= w_data[:, :, k].T @ g[:, j]
            gw[:, :, k] -= np.outer(g[:, j], u_data[:, src - 1])
        return (gu, gw, g.sum(axis=1))

    out = _finish(out, (u, w, b), vjp, (u.data, w.data))
    return _remake(out, upsample_conv1d, u, w, b, length)


def _accumulate(acc, term):
    """``acc + term``, added into ``acc`` in place; ``term`` if acc is None."""
    if acc is None:
        return term
    acc += term
    return acc


def _masks(latent, mask_w, mask_b):
    """Every source's mask, (S * B) x L: the ReLU of the mask net's conv of
    ``latent``, rectified in place.  Plain arrays in, so the conv tapes
    nothing."""
    z = conv1d(latent, mask_w, mask_b).data
    return np.maximum(z, 0.0, out=z)


def masked_decode(latent, mask_w, mask_b, v_enc, w, b, stride: int, out_length: int) -> Tensor:
    """Decode every source from ``v_enc`` under the ReLU of its mask logits.

    The mask logits are the stride-1 "same" conv of ``latent`` (C x L) by
    ``mask_w`` ((S * B) x C x Km) and ``mask_b`` (S * B), row block s
    holding source s's B x L logits z_s; ``v_enc`` is B x L, ``w`` is
    B x Cout x K and ``b`` has shape Cout.  Row block s of the
    (S * Cout) x out_length result is the "same" transposed conv of
    relu(z_s) * v_enc (a stride above K leaves zeros between the kernel
    copies).  One node is taped, holding the latent, not the logits: the
    forward makes the masks, masks the encoding in their place and decodes
    it source by source, each into its own Cout x out_length array, and
    drops the masks before it joins those, and the vjp makes the masks
    again with the same conv.
    The vjp is the transposed conv's own, per source in one B x L buffer
    that holds the masked encoding and then its gradient, then the mask's
    chain rule, written over that source's mask (the v_enc term passes
    through the mask's place first), then the mask conv's own.
    """
    latent, mask_w, mask_b = _conv_operands("masked_decode", latent, mask_w, mask_b, 1, 1)
    v_enc, w, b = _as_tensor(v_enc), _as_tensor(w), _as_tensor(b)
    if v_enc.ndim != 2:
        raise ValueError(f"masked_decode expects a 2-D encoding, got {v_enc.data.shape}")
    B, L = v_enc.data.shape
    SB = mask_w.data.shape[0]
    if SB == 0 or SB % B or latent.data.shape[1] != L:
        raise ValueError(f"a mask net of {SB} channels over {latent.data.shape[1]} samples is not "
                         f"whole {B} x {L} source blocks")
    S = SB // B
    Cout, K = w.data.shape[1:]
    rows = [slice(s * B, (s + 1) * B) for s in range(S)]
    masks = _masks(latent.data, mask_w.data, mask_b.data)
    # Each source's mask is masked in place, as it is read no more, and
    # decoded into its own array; plain arrays in, so nothing is taped.
    decoded = [transposed_conv1d(np.multiply(masks[r], v_enc.data, out=masks[r]), w.data, b.data,
                                 stride=stride, padding="same", out_length=out_length).data
               for r in rows]
    masks = None  # dropped before the sources are joined
    out = np.concatenate(decoded)

    # A frozen encoder's v_enc (progressive stage 1 on) needs no gradient,
    # and forming one would put a B x L array where an item's memory peaks.
    need_v = v_enc.requires_grad

    def vjp(g, lat_data, mw_data, mb_data, v_data, w_data):
        _, left, right = _conv_geometry(out_length, K, stride, "same")
        gz = _masks(lat_data, mw_data, mb_data)  # each row block turns into its logit gradient
        buf = np.empty((B, L))  # one source's masked encoding, then its gradient
        gv_enc = gw = gb = None
        # Sources in reverse: the terms of w, b and v_enc then add up in the
        # order backward adds those of one taped op per source, so an item's
        # gradients equal that graph's bit for bit.
        for s in reversed(range(S)):
            gs = g[s * Cout:(s + 1) * Cout]
            mask = gz[rows[s]]
            masked = np.multiply(mask, v_data, out=buf)
            gmasked, gws = _tconv_vjp(gs, masked, w_data, K, stride, left, right,
                                      out=buf)  # (B, L), (B, Cout, K)
            gw = _accumulate(gw, gws)
            gb = _accumulate(gb, gs.sum(axis=1))
            on = mask > 0
            if need_v:  # the v_enc term takes the mask's place, then its copy or sum
                mask *= gmasked
                if gv_enc is None:
                    gv_enc = mask.copy()
                else:
                    gv_enc += mask
            np.multiply(gmasked, v_data, out=mask)
            mask *= on
        buf = masked = gmasked = None  # dropped before the mask conv's vjp
        # the mask conv's own vjp, over its stride-1 "same" geometry
        mleft = _conv_geometry(L, mw_data.shape[2], 1, "same")[1]
        glat, gmw = _conv_vjp(gz, lat_data, mw_data, lat_data.shape, mw_data.shape, 1, mleft)
        return (glat, gmw, gz.sum(axis=1), gv_enc, gw, gb)

    return _finish(out, (latent, mask_w, mask_b, v_enc, w, b), vjp,
                   (latent.data, mask_w.data, mask_b.data, v_enc.data, w.data))


# ---------------------------------------------------------------------------
# Finite-difference verification


def grad_check(f, params) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` is a zero-argument callable returning a scalar Tensor; it must be
    deterministic, and ``params`` are the leaf tensors to perturb, each
    entry by +-1e-5.  The relative error per entry is
    |a - n| / max(1e-8, |a| + |n|).
    """
    eps = 1e-5
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
