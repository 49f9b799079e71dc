"""Graph embedding model with exact hand-written gradients.

Embedding runs in three stages: an encoder MLP lifts bag-of-words node
features to node states, T propagation layers update each state from
directional message sums (separate in/out weights, no biases on message
weights), and a gated-sum aggregator reduces node states to one graph
embedding. Hidden activations are tanh, outputs linear, everything float64.

Training minimizes a margin loss on pair distances,
loss = max(0, margin - label * (1 - distance)), with Adam on analytic
gradients. The backward pass is written out by hand so it can be checked
against finite differences; no autograd framework is involved.

One engine runs every embedding. Its forward pass works on the last two
axes of a PreparedGraph, the one record of prepared features and edges: the
(n, k) node features of one graph, or a bucket, the (B, n, k) stack of B
graphs that share the node count n. The edge scatter flattens the node rows
and reshapes them back, through two flat indices that each forward call
builds once for all its layers, and pooling sums over the node axis.
numpy's stacked matmul runs one GEMM per 2-D slice, with that slice's own
shape, so a graph in a bucket gets the bits it gets in a bucket of one,
whichever graphs share the bucket: a score depends only on its two graphs.
So two prepared objects of one graph embed to equal bits, and a graph is
at distance exactly 0 from itself under one ref or two. One driver,
_embed_pairs, embeds the pairs of a list for training, validation, scoring
and detect alike, one row per prepared object: it stacks the rows one
bucket of up to CHUNK_NODES nodes at a time (_buckets) and embeds each
bucket under every model before it stacks the next. One rule, _distances,
takes every pair distance, with or without a gradient. Everything that
compares embeddings without a gradient (validation AUC, the detector's
scoring and detect) is one pair_distances call on (query, target) pairs of
prepared graphs, which keeps no tape.

A training step runs the driver on the parameters as they are, with a
tape. A row's tape is its slice of every array in its bucket's tape,
equal bit for bit to the graph's own one-graph tape, and the backward pass,
written for one graph, runs on it, so every checkpoint keeps its bits. A
step's tapes live until its last pair's backward. The step keeps the
parameters and both Adam moments as one flat float64 vector each
(TrainState; the name -> tensor dicts are views laid out by ParamLayout),
so Adam and its finite check are a few elementwise operations over the
whole vector. A pair's gradient goes into one reused vector and is added
to the step's total only when it is not all zero (an active hinge at
non-zero distance). Each element still sees the same operations in the
same order as with one gradient dict per pair, so checkpoints are
unchanged bit for bit.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, asdict, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .acfg import AttributedCFG, OpcodeVocabulary, featurize_graph, write_atomic
from .errors import (
    CorruptArtifact,
    Diverged,
    GraphTooLarge,
    InvalidLabel,
    NonFiniteGradient,
    ShapeMismatch,
)
from .evaluation import auc
from .pairgen import FunctionPair

ModelParams = dict[str, np.ndarray]

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int
    node_state_dim: int = 32
    graph_embedding_dim: int = 128
    propagation_layers: int = 5
    encoder_hidden: tuple[int, ...] = (64,)
    update_hidden: tuple[int, ...] = (64,)
    output_hidden: tuple[int, ...] = (128,)
    margin: float = 0.1
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_nodes: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        """ValueError naming the first field out of its range."""
        least = {"feature_dim": 1, "node_state_dim": 1, "graph_embedding_dim": 1,
                 "propagation_layers": 0, "batch_size": 1, "max_nodes": 1}
        for name, low in least.items():
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name in ("margin", "learning_rate"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {value}")
        for name in ("encoder_hidden", "update_hidden", "output_hidden"):
            widths = getattr(self, name)
            if any(width < 1 for width in widths):
                raise ValueError(f"{name} widths must be >= 1, got {widths}")

    @property
    def encoder_sizes(self) -> list[tuple[int, int]]:
        dims = [self.feature_dim, *self.encoder_hidden, self.node_state_dim]
        return list(zip(dims[:-1], dims[1:]))

    @property
    def update_sizes(self) -> list[tuple[int, int]]:
        dims = [3 * self.node_state_dim, *self.update_hidden, self.node_state_dim]
        return list(zip(dims[:-1], dims[1:]))

    @property
    def output_sizes(self) -> list[tuple[int, int]]:
        dims = [
            self.graph_embedding_dim,
            *self.output_hidden,
            self.graph_embedding_dim,
        ]
        return list(zip(dims[:-1], dims[1:]))


def config_to_json(config: ModelConfig) -> dict:
    payload = asdict(config)
    for key in ("encoder_hidden", "update_hidden", "output_hidden"):
        payload[key] = list(payload[key])
    return payload


def config_from_json(payload: dict) -> ModelConfig:
    kwargs = dict(payload)
    for key in ("encoder_hidden", "update_hidden", "output_hidden"):
        kwargs[key] = tuple(kwargs[key])
    return ModelConfig(**kwargs)


# ---------------------------------------------------------------------------
# Parameters

def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


@functools.cache
def _mlp_keys(prefix: str, n_layers: int) -> tuple[tuple[str, str], ...]:
    """(weight, bias) parameter names of each layer of an MLP."""
    return tuple((f"{prefix}.{i}.w", f"{prefix}.{i}.b") for i in range(n_layers))


@functools.cache
def _prop_keys(layer: int) -> tuple[str, str, str]:
    """In and out message weight names and the update MLP prefix of a layer."""
    return f"prop.{layer}.in.w", f"prop.{layer}.out.w", f"prop.{layer}.update"


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in initialization order:
    weights are (fan_out, fan_in), biases (fan_out,)."""
    shapes: dict[str, tuple[int, ...]] = {}

    def mlp(prefix: str, sizes: list[tuple[int, int]]) -> None:
        for (w, b), (fan_in, fan_out) in zip(_mlp_keys(prefix, len(sizes)), sizes):
            shapes[w] = (fan_out, fan_in)
            shapes[b] = (fan_out,)

    mlp("encoder", config.encoder_sizes)
    d = config.node_state_dim
    for t in range(config.propagation_layers):
        in_w, out_w, update = _prop_keys(t)
        shapes[in_w] = (d, d)
        shapes[out_w] = (d, d)
        mlp(update, config.update_sizes)
    e = config.graph_embedding_dim
    shapes["agg.gate.w"] = (e, d)
    shapes["agg.gate.b"] = (e,)
    shapes["agg.proj.w"] = (e, d)
    shapes["agg.proj.b"] = (e,)
    mlp("agg.out", config.output_sizes)
    return shapes


def init_params(config: ModelConfig) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic in config.seed."""
    rng = np.random.default_rng(config.seed)
    return {
        name: _glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape)
        for name, shape in param_shapes(config).items()
    }


def clone_params(params: ModelParams) -> ModelParams:
    return {name: tensor.copy() for name, tensor in params.items()}


# ---------------------------------------------------------------------------
# MLP forward/backward (tanh hidden layers, linear output)

def _mlp_forward(
    x: np.ndarray, params: ModelParams, prefix: str, n_layers: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    acts = [x]
    for i, (w, b) in enumerate(_mlp_keys(prefix, n_layers)):
        z = acts[-1] @ params[w].T + params[b]
        acts.append(np.tanh(z) if i < n_layers - 1 else z)
    return acts[-1], acts


def _mlp_backward(
    dy: np.ndarray,
    acts: list[np.ndarray],
    params: ModelParams,
    prefix: str,
    n_layers: int,
    grads: ModelParams,
) -> np.ndarray:
    d = dy
    keys = _mlp_keys(prefix, n_layers)
    for i in reversed(range(n_layers)):
        w, b = keys[i]
        if i < n_layers - 1:
            d = d * (1.0 - acts[i + 1] ** 2)
        grads[w] += d.T @ acts[i]
        grads[b] += d.sum(axis=0)
        d = d @ params[w]
    return d


# ---------------------------------------------------------------------------
# Graph preparation and bucketing

# Node budget of one bucket: large enough that per-call overhead is shared by
# dozens of typical graphs, small enough to keep activations tiny.
CHUNK_NODES = 512


@dataclass(frozen=True)
class PreparedGraph:
    """Featurized graphs of one node count n: features (n, k) for one graph
    or (B, n, k) for a bucket of B (_stack). Edge endpoints index the
    feature rows flattened to (B * n, k), so graph i's edges are offset by
    i * n. embed_prepared runs one graph through the engine as it is."""

    features: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Nodes per graph."""
        return self.features.shape[-2]


def prepare_graph(
    graph: AttributedCFG, vocab: OpcodeVocabulary, config: ModelConfig
) -> PreparedGraph:
    if len(graph.block_ids) > config.max_nodes:
        raise GraphTooLarge(
            f"{len(graph.block_ids)} nodes exceeds the cap of {config.max_nodes}"
        )
    features = featurize_graph(graph, vocab)
    if features.shape[1] != config.feature_dim:
        raise ShapeMismatch(
            f"feature dim {features.shape[1]} != config {config.feature_dim}"
        )
    index = graph.node_index
    src = np.array([index[a] for a, _ in graph.edges], dtype=np.intp)
    dst = np.array([index[b] for _, b in graph.edges], dtype=np.intp)
    return PreparedGraph(features=features, src=src, dst=dst)


def _stack(graphs: Sequence[PreparedGraph]) -> PreparedGraph:
    """Graphs of one node count n as one (len(graphs), n, k) bucket."""
    n = graphs[0].n_nodes
    return PreparedGraph(
        features=np.stack([g.features for g in graphs]),
        src=np.concatenate([g.src + i * n for i, g in enumerate(graphs)]),
        dst=np.concatenate([g.dst + i * n for i, g in enumerate(graphs)]),
    )


def _buckets(
    graphs: Sequence[PreparedGraph],
) -> Iterator[tuple[list[int], PreparedGraph]]:
    """The positions of graphs that share a node count, up to CHUNK_NODES
    nodes and at least one graph at a time, each with their stacked bucket.
    A bucket is stacked only when the previous one has been taken."""
    by_count: dict[int, list[int]] = {}
    for i, graph in enumerate(graphs):
        by_count.setdefault(graph.n_nodes, []).append(i)
    for n, members in by_count.items():
        size = max(1, CHUNK_NODES // n)
        for start in range(0, len(members), size):
            part = members[start : start + size]
            yield part, _stack([graphs[i] for i in part])


# ---------------------------------------------------------------------------
# The engine: forward pass (with tape) over one graph or a bucket, and the
# backward pass over one graph

def _segment_sum(
    rows: np.ndarray, flat: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """out[index[k]] += rows[k], k ascending, from zeros, where flat is
    index spread over the row width (_forward builds it) and out comes back
    in `shape`.

    Every output element gets its additions one at a time in row order, so
    the result equals np.add.at and a one-segment .sum(axis=0) bit for bit;
    bincount over a flat index is just the fastest way numpy has to do it.
    """
    out = np.bincount(flat, weights=rows.ravel(), minlength=math.prod(shape))
    # bincount of nothing comes back as int64 zeros
    return out.reshape(shape).astype(rows.dtype, copy=False)


def _prop_forward(
    h: np.ndarray,
    batch: PreparedGraph,
    scatter: tuple[np.ndarray, np.ndarray],
    params: ModelParams,
    config: ModelConfig,
    layer: int,
    tape: list | None,
) -> np.ndarray:
    rows = h.reshape(-1, h.shape[-1])
    to_dst, to_src = scatter
    in_w, out_w, update = _prop_keys(layer)
    sum_in = _segment_sum(rows[batch.src], to_dst, h.shape)
    sum_out = _segment_sum(rows[batch.dst], to_src, h.shape)
    m_in = sum_in @ params[in_w].T
    m_out = sum_out @ params[out_w].T
    z = np.concatenate([h, m_in, m_out], axis=-1)
    h_next, acts = _mlp_forward(z, params, update, len(config.update_sizes))
    if tape is not None:
        tape.append((sum_in, sum_out, acts))
    return h_next


def _prop_backward(
    dh_next: np.ndarray,
    tape: tuple,
    graph: PreparedGraph,
    params: ModelParams,
    config: ModelConfig,
    layer: int,
    grads: ModelParams,
) -> np.ndarray:
    sum_in, sum_out, acts = tape
    d = config.node_state_dim
    in_w, out_w, update = _prop_keys(layer)
    dz = _mlp_backward(
        dh_next, acts, params, update, len(config.update_sizes), grads
    )
    dh = dz[:, :d].copy()
    dm_in = dz[:, d : 2 * d]
    dm_out = dz[:, 2 * d :]
    grads[in_w] += dm_in.T @ sum_in
    grads[out_w] += dm_out.T @ sum_out
    if graph.src.size:
        dsum_in = dm_in @ params[in_w]
        dsum_out = dm_out @ params[out_w]
        np.add.at(dh, graph.src, dsum_in[graph.dst])
        np.add.at(dh, graph.dst, dsum_out[graph.src])
    return dh


def _agg_forward(
    h: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    tape: list | None,
) -> np.ndarray:
    gate_lin = h @ params["agg.gate.w"].T + params["agg.gate.b"]
    gate = 1.0 / (1.0 + np.exp(-gate_lin))
    proj = h @ params["agg.proj.w"].T + params["agg.proj.b"]
    pooled = (gate * proj).sum(axis=-2, keepdims=True)
    out, acts = _mlp_forward(pooled, params, "agg.out", len(config.output_sizes))
    if tape is not None:
        tape.append((h, gate, proj, acts))
    return out


def _agg_backward(
    demb: np.ndarray,
    tape: tuple,
    params: ModelParams,
    config: ModelConfig,
    grads: ModelParams,
) -> np.ndarray:
    h, gate, proj, acts = tape
    dpooled = _mlp_backward(
        demb, acts, params, "agg.out", len(config.output_sizes), grads
    )
    dgate = dpooled * proj
    dproj = dpooled * gate
    dgate_lin = dgate * gate * (1.0 - gate)
    grads["agg.gate.w"] += dgate_lin.T @ h
    grads["agg.gate.b"] += dgate_lin.sum(axis=0)
    grads["agg.proj.w"] += dproj.T @ h
    grads["agg.proj.b"] += dproj.sum(axis=0)
    return dgate_lin @ params["agg.gate.w"] + dproj @ params["agg.proj.w"]


def _forward(
    batch: PreparedGraph,
    params: ModelParams,
    config: ModelConfig,
    tape: list | None = None,
) -> np.ndarray:
    """The embedding, (1, embedding) for one graph and (B, 1, embedding)
    for a bucket of B. Given a tape list, every stage appends what its
    backward pass reads (encoder, each layer, aggregator); without one, each
    stage's activations are freed when it returns. The two flat scatter
    indices of the node states (_segment_sum) are built once per call, for
    every propagation layer."""
    h, acts = _mlp_forward(
        batch.features, params, "encoder", len(config.encoder_sizes)
    )
    if tape is not None:
        tape.append(acts)
    d = config.node_state_dim
    cols = np.arange(d)
    scatter = (
        (batch.dst[:, None] * d + cols).ravel(),
        (batch.src[:, None] * d + cols).ravel(),
    )
    for t in range(config.propagation_layers):
        h = _prop_forward(h, batch, scatter, params, config, t, tape)
    return _agg_forward(h, params, config, tape)


def _backward(
    demb: np.ndarray,
    tape: list,
    graph: PreparedGraph,
    params: ModelParams,
    config: ModelConfig,
    grads: ModelParams,
) -> None:
    """Accumulate into grads the gradients of sum(demb * embedding) of one
    graph."""
    enc_acts, *layer_tapes, agg_tape = tape
    dh = _agg_backward(demb, agg_tape, params, config, grads)
    for t in reversed(range(config.propagation_layers)):
        dh = _prop_backward(dh, layer_tapes[t], graph, params, config, t, grads)
    _mlp_backward(dh, enc_acts, params, "encoder", len(config.encoder_sizes), grads)


def embed_prepared(
    prep: PreparedGraph, params: ModelParams, config: ModelConfig
) -> np.ndarray:
    return _forward(prep, params, config)[0]


def _row_tape(tape, j: int):
    """Graph j's tape in a bucket's tape: slice j of every array in it, in
    lists nested as the tape's lists and tuples are."""
    if isinstance(tape, np.ndarray):
        return tape[j]
    return [_row_tape(part, j) for part in tape]


def _embed_pairs(
    pairs: Sequence[tuple[PreparedGraph, PreparedGraph]],
    models: Sequence[ModelParams],
    config: ModelConfig,
    tapes: dict[int, list] | None = None,
) -> tuple[list[PreparedGraph], np.ndarray, np.ndarray]:
    """The distinct prepared graphs of the pairs (one row per object, in
    order of first appearance), each pair's query and target row as a
    (len(pairs), 2) array, and every row's embedding under each model,
    shape (len(models), rows, 1, embedding).

    The rows are stacked one bucket at a time (_buckets), and each bucket
    embeds under every model before the next is stacked. Given a tapes
    dict and one model, the forward keeps its tape, and tapes maps each row
    to its slice of its bucket's tape (_row_tape).
    """
    graphs = list({id(g): g for pair in pairs for g in pair}.values())
    row_of = {id(g): i for i, g in enumerate(graphs)}
    rows = np.array(
        [row_of[id(g)] for pair in pairs for g in pair], dtype=np.intp
    ).reshape(len(pairs), 2)
    emb = np.empty((len(models), len(graphs), 1, config.graph_embedding_dim))
    for members, bucket in _buckets(graphs):
        for out, params in zip(emb, models):
            tape = None if tapes is None else []
            out[members] = _forward(bucket, params, config, tape)
            if tapes is not None:
                for j, row in enumerate(members):
                    tapes[row] = _row_tape(tape, j)
    return graphs, rows, emb


def _distances(emb: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The distance between the two rows of each pair: emb holds one model's
    (rows, 1, embedding) embeddings, rows is _embed_pairs' (pairs, 2).
    Each pair's squares are summed in one row-wise np.sum, which gives the
    bits np.sum gives that pair alone."""
    diff = emb[rows[:, 0], 0] - emb[rows[:, 1], 0]
    return np.sqrt(np.sum(diff**2, axis=-1))


def pair_distances(
    pairs: Sequence[tuple[PreparedGraph, PreparedGraph]],
    models: Sequence[ModelParams],
    config: ModelConfig,
) -> np.ndarray:
    """Embedding distance of each pair under each model, shape
    (len(models), len(pairs)).

    The rows embed without a tape (_embed_pairs). The models embed with
    Fortran-ordered weights (copies, unless they are Fortran-ordered
    already, as a loaded checkpoint's are): w.T is then C-contiguous, which
    the stacked products take by a faster path.
    """
    models = [{name: np.asfortranarray(t) for name, t in m.items()} for m in models]
    _, rows, emb = _embed_pairs(pairs, models, config)
    return np.array([_distances(model_emb, rows) for model_emb in emb])


# ---------------------------------------------------------------------------
# Loss

def euclidean_distance(e1: np.ndarray, e2: np.ndarray) -> float:
    if e1.shape != e2.shape:
        raise ShapeMismatch(f"embedding shapes differ: {e1.shape} vs {e2.shape}")
    return float(np.sqrt(np.sum((e1 - e2) ** 2)))


def pair_loss(distance: float, label: int, margin: float) -> float:
    """max(0, margin - label*(1 - distance)); label +1 pulls below 1-margin,
    label -1 pushes above 1+margin."""
    if label not in (-1, 1):
        raise InvalidLabel(f"label must be -1 or +1, got {label!r}")
    if margin <= 0:
        raise ValueError("margin must be positive")
    return max(0.0, margin - label * (1.0 - distance))


def pair_loss_and_grads(
    query: PreparedGraph,
    target: PreparedGraph,
    label: int,
    params: ModelParams,
    config: ModelConfig,
) -> tuple[float, ModelParams]:
    """Loss for one pair plus exact gradients for every parameter: the
    gradient of grad_step on a batch of one, unscaled, as views into one
    vector.

    At the hinge kink and at zero distance the subgradient 0 is used.
    """
    layout = ParamLayout.of(params)
    total, loss = _batch_gradient(
        [PreparedPair(query, target, label)], params, config, layout
    )
    return loss, layout.views(total)


def _batch_gradient(
    batch: Sequence[PreparedPair],
    params: ModelParams,
    config: ModelConfig,
    layout: ParamLayout,
) -> tuple[np.ndarray, float]:
    """The sums of the pair gradients (one flat vector laid out by layout)
    and of the pair losses of the batch, in pair order.

    Each prepared graph runs forward once, in its bucket, with a tape
    (_embed_pairs), and the pair distances are _distances'. A pair has a
    gradient when its hinge is active at non-zero distance; its two
    backward passes, one graph each, then overwrite flat, which grads
    views. A pair without one adds nothing to the total: the total starts
    at +0.0, and a sum is -0.0 only when both addends are, so the total is
    never -0.0 and an add of all zeros would change no bit. The tapes are
    freed on return.
    """
    tapes: dict[int, list] = {}
    graphs, rows, emb = _embed_pairs(
        [(p.query, p.target) for p in batch], [params], config, tapes
    )
    total = np.zeros(layout.size)
    flat = np.empty(layout.size)
    grads = layout.views(flat)
    loss_sum = 0.0
    distances = _distances(emb[0], rows).tolist()
    for pair, (q, t), distance in zip(batch, rows.tolist(), distances):
        if not np.isfinite(distance):
            # a NaN distance would otherwise read as an inactive hinge
            raise NonFiniteGradient(f"non-finite pair distance {distance}")
        loss = pair_loss(distance, pair.label, config.margin)
        loss_sum += loss
        if loss > 0.0 and distance > 0.0:
            de1 = float(pair.label) * (emb[0, q] - emb[0, t]) / distance
            flat.fill(0.0)
            _backward(de1, tapes[q], graphs[q], params, config, grads)
            _backward(-de1, tapes[t], graphs[t], params, config, grads)
            total += flat
    return total, loss_sum


# ---------------------------------------------------------------------------
# Optimizer and training loop

@dataclass(frozen=True)
class ParamLayout:
    """Where each named tensor lives in one flat float64 vector, in the
    order of the parameter dict it was taken from."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    starts: tuple[int, ...]
    size: int

    @classmethod
    def of(cls, params: ModelParams) -> ParamLayout:
        shapes = tuple(tensor.shape for tensor in params.values())
        starts = [0]
        for shape in shapes:
            starts.append(starts[-1] + math.prod(shape))
        return cls(tuple(params), shapes, tuple(starts[:-1]), starts[-1])

    def flatten(self, params: ModelParams) -> np.ndarray:
        return np.concatenate([params[name].ravel() for name in self.names])

    def views(self, flat: np.ndarray) -> ModelParams:
        """name -> tensor views into flat."""
        stops = (*self.starts[1:], self.size)
        return {
            name: flat[start:stop].reshape(shape)
            for name, shape, start, stop in zip(
                self.names, self.shapes, self.starts, stops
            )
        }

    def name_at(self, position: int) -> str:
        """The tensor that holds element `position` of the flat vector."""
        return self.names[bisect_right(self.starts, position) - 1]


@dataclass
class TrainState:
    """Parameters and Adam moments, each one flat float64 vector laid out
    by `layout`; `params` (and `adam_m`, `adam_v`) are name -> tensor views
    into them."""

    layout: ParamLayout
    flat_params: np.ndarray
    flat_m: np.ndarray
    flat_v: np.ndarray
    step: int = 0
    params: ModelParams = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.params = self.layout.views(self.flat_params)

    @property
    def adam_m(self) -> ModelParams:
        return self.layout.views(self.flat_m)

    @property
    def adam_v(self) -> ModelParams:
        return self.layout.views(self.flat_v)


def init_train_state(config: ModelConfig) -> TrainState:
    params = init_params(config)
    layout = ParamLayout.of(params)
    return TrainState(
        layout=layout,
        flat_params=layout.flatten(params),
        flat_m=np.zeros(layout.size),
        flat_v=np.zeros(layout.size),
        step=0,
    )


@dataclass(frozen=True)
class PreparedPair:
    query: PreparedGraph
    target: PreparedGraph
    label: int


def prepare_pairs(
    pairs: Sequence[FunctionPair],
    vocab: OpcodeVocabulary,
    config: ModelConfig,
    cache: dict | None = None,
) -> list[PreparedPair]:
    cache = {} if cache is None else cache

    def prep(ref, graph):
        if ref not in cache:
            cache[ref] = prepare_graph(graph, vocab, config)
        return cache[ref]

    return [
        PreparedPair(
            query=prep(p.query_ref, p.query),
            target=prep(p.target_ref, p.target),
            label=p.label,
        )
        for p in pairs
    ]


def _adam_update(
    state: TrainState, grad: np.ndarray, config: ModelConfig
) -> TrainState:
    """One Adam step over the flat vectors; every element gets the same
    expression it would get tensor by tensor."""
    finite = np.isfinite(grad)
    if not finite.all():
        name = state.layout.name_at(int(np.argmin(finite)))
        raise NonFiniteGradient(f"non-finite gradient in {name}")
    step = state.step + 1
    lr = config.learning_rate
    bias1 = 1.0 - _ADAM_BETA1**step
    bias2 = 1.0 - _ADAM_BETA2**step
    m = _ADAM_BETA1 * state.flat_m + (1.0 - _ADAM_BETA1) * grad
    v = _ADAM_BETA2 * state.flat_v + (1.0 - _ADAM_BETA2) * grad**2
    params = state.flat_params - lr * (m / bias1) / (np.sqrt(v / bias2) + _ADAM_EPS)
    return TrainState(state.layout, params, m, v, step)


def grad_step(
    batch: Sequence[PreparedPair], state: TrainState, config: ModelConfig
) -> tuple[TrainState, float]:
    """One Adam update on the mean pair loss of the batch (_batch_gradient)."""
    if not batch:
        raise ValueError("empty batch")
    total, loss_sum = _batch_gradient(batch, state.params, config, state.layout)
    scale = 1.0 / len(batch)
    total *= scale
    return _adam_update(state, total, config), loss_sum * scale


PairSource = Callable[[int], Sequence[FunctionPair]]


def train_model(
    train_source: PairSource,
    validation_pairs: Sequence[FunctionPair],
    vocab: OpcodeVocabulary,
    config: ModelConfig,
    epochs: int,
) -> tuple[ModelParams, list[dict]]:
    """Train and return the parameters of the best validation-AUC epoch.

    train_source maps an epoch number to that epoch's pairs; an epoch without
    pairs is a ValueError. With zero epochs the freshly initialized
    parameters come back untouched.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    state = init_train_state(config)
    history: list[dict] = []
    if epochs == 0:
        return clone_params(state.params), history

    cache: dict = {}
    val_prepared = prepare_pairs(validation_pairs, vocab, config, cache)
    best_auc = -np.inf
    best_params = clone_params(state.params)
    for epoch in range(epochs):
        prepared = prepare_pairs(train_source(epoch), vocab, config, cache)
        if not prepared:
            raise ValueError(f"epoch {epoch} has no training pairs")
        loss_sum = 0.0
        try:
            for start in range(0, len(prepared), config.batch_size):
                batch = prepared[start : start + config.batch_size]
                state, batch_loss = grad_step(batch, state, config)
                loss_sum += batch_loss * len(batch)
        except NonFiniteGradient as exc:
            raise Diverged(f"epoch {epoch}: {exc}") from exc
        epoch_loss = loss_sum / len(prepared)
        if not np.isfinite(epoch_loss):
            raise Diverged(f"epoch {epoch}: non-finite loss {epoch_loss}")
        val_auc = _validation_auc(val_prepared, state.params, config)
        history.append(
            {"epoch": epoch, "train_loss": epoch_loss, "val_auc": val_auc}
        )
        if val_auc > best_auc:
            best_auc = val_auc
            best_params = clone_params(state.params)
    return best_params, history


def _validation_auc(
    prepared: Sequence[PreparedPair], params: ModelParams, config: ModelConfig
) -> float:
    """AUC of the pairs ranked by -distance (pair_distances). Not by
    similarity: 1 / (1 + d) can round two distinct distances to one value
    and so turn them into a tie."""
    distance = pair_distances([(p.query, p.target) for p in prepared], [params], config)
    return auc(list(zip((-distance[0]).tolist(), (p.label for p in prepared))))


# ---------------------------------------------------------------------------
# Checkpoints

_CKPT_MAGIC = b"CIDETCK1"
_CKPT_VERSION = 1


def save_checkpoint(
    path: Path | str, params: ModelParams, config: ModelConfig
) -> None:
    """Versioned container: JSON header (config, each tensor's name and
    shape), then raw little-endian float64 tensors in sorted name order,
    written whole (acfg.write_atomic).
    """
    names = sorted(params)
    header = {
        "format_version": _CKPT_VERSION,
        "config": config_to_json(config),
        "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    write_atomic(path, b"".join([
        _CKPT_MAGIC,
        struct.pack("<Q", len(header_bytes)),
        header_bytes,
        *(np.ascontiguousarray(params[name], dtype="<f8").tobytes() for name in names),
    ]))


def _read_header(
    path: Path | str, raw: bytes
) -> tuple[ModelConfig, dict[str, tuple[int, ...]], int]:
    """The config, the tensor shapes by name and the offset of the tensor
    region. A file without the magic, an unknown version or a damaged
    header, including a tensor list other than the config's, raises
    CorruptArtifact."""
    if raw[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CorruptArtifact(f"{path}: not a checkpoint file")
    offset = len(_CKPT_MAGIC) + 8
    header_len = int.from_bytes(raw[len(_CKPT_MAGIC) : offset], "little")
    if len(raw) < offset + header_len:
        raise CorruptArtifact(f"truncated checkpoint {path}: header cut short")
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
        version = header["format_version"]
        payload = header["config"]
        tensors = header["tensors"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CorruptArtifact(
            f"checkpoint {path}: unreadable header ({type(exc).__name__}: {exc})"
        ) from None
    if version != _CKPT_VERSION:
        raise CorruptArtifact(f"{path}: unsupported checkpoint version {version}")
    try:
        config = config_from_json(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifact(f"checkpoint {path}: bad config ({exc})") from None
    shapes = param_shapes(config)
    if tensors != [{"name": n, "shape": list(shapes[n])} for n in sorted(shapes)]:
        raise CorruptArtifact(f"checkpoint {path}: tensors do not match its config")
    return config, shapes, offset + header_len


def load_checkpoint(path: Path | str) -> tuple[ModelParams, ModelConfig]:
    """The tensors come back Fortran-ordered, as pair_distances embeds with
    them, so scoring a loaded model copies no weight. A file cut short, with
    trailing bytes, with a damaged header or with a value that is not
    finite (training raises Diverged before it saves one) raises
    CorruptArtifact naming the path."""
    raw = Path(path).read_bytes()
    config, shapes, offset = _read_header(path, raw)
    names = sorted(shapes)
    counts = [math.prod(shapes[name]) for name in names]
    end = offset + 8 * sum(counts)
    if end != len(raw):
        raise CorruptArtifact(f"checkpoint {path}: {len(raw)} bytes, header says {end}")
    values = np.frombuffer(raw, dtype="<f8", offset=offset)
    finite = np.isfinite(values)  # one check per file: detect loads every model
    if not finite.all():
        bad = np.searchsorted(np.cumsum(counts), np.argmin(finite), side="right")
        raise CorruptArtifact(f"checkpoint {path}: non-finite value in {names[bad]}")
    params: ModelParams = {}
    start = 0
    for name, count in zip(names, counts):
        tensor = values[start : start + count].reshape(shapes[name])
        params[name] = np.array(tensor, np.float64, order="F")
        start += count
    return params, config
