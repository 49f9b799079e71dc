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

One engine runs every embedding. It works on a PreparedBatch, the disjoint
union of graphs used for batched graph networks (the GraphsTuple layout):
stacked node features, edge endpoints offset into the stacked rows, and a
node-to-graph segment id. The forward and backward passes are written once
over that layout. A PreparedGraph is a batch of one and goes in as it is.
Training (gradient steps and validation AUC) feeds the engine one graph at
a time, so its float summation order, and with it every checkpoint, stays
fixed. Inference batches many graphs per call: chunk_graphs packs
consecutive graphs up to CHUNK_NODES nodes, and embed_batch returns one row
per graph and keeps no backward tape.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .acfg import AttributedCFG, OpcodeVocabulary, featurize_graph
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
        if self.feature_dim < 1 or self.node_state_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.graph_embedding_dim < 1 or self.propagation_layers < 0:
            raise ValueError("bad embedding dim or layer count")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_nodes < 1:
            raise ValueError("bad optimizer settings")

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


def _mlp_init(
    params: ModelParams, rng: np.random.Generator, prefix: str,
    sizes: list[tuple[int, int]],
) -> None:
    for i, (fan_in, fan_out) in enumerate(sizes):
        params[f"{prefix}.{i}.w"] = _glorot(rng, fan_out, fan_in)
        params[f"{prefix}.{i}.b"] = np.zeros(fan_out)


def init_params(config: ModelConfig) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic in config.seed."""
    rng = np.random.default_rng(config.seed)
    params: ModelParams = {}
    _mlp_init(params, rng, "encoder", config.encoder_sizes)
    d = config.node_state_dim
    for t in range(config.propagation_layers):
        params[f"prop.{t}.in.w"] = _glorot(rng, d, d)
        params[f"prop.{t}.out.w"] = _glorot(rng, d, d)
        _mlp_init(params, rng, f"prop.{t}.update", config.update_sizes)
    e = config.graph_embedding_dim
    params["agg.gate.w"] = _glorot(rng, e, d)
    params["agg.gate.b"] = np.zeros(e)
    params["agg.proj.w"] = _glorot(rng, e, d)
    params["agg.proj.b"] = np.zeros(e)
    _mlp_init(params, rng, "agg.out", config.output_sizes)
    return params


def clone_params(params: ModelParams) -> ModelParams:
    return {name: tensor.copy() for name, tensor in params.items()}


# ---------------------------------------------------------------------------
# MLP forward/backward (tanh hidden layers, linear output)

def _mlp_forward(
    x: np.ndarray, params: ModelParams, prefix: str, n_layers: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    acts = [x]
    for i in range(n_layers):
        z = acts[-1] @ params[f"{prefix}.{i}.w"].T + params[f"{prefix}.{i}.b"]
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
    for i in reversed(range(n_layers)):
        if i < n_layers - 1:
            d = d * (1.0 - acts[i + 1] ** 2)
        grads[f"{prefix}.{i}.w"] += d.T @ acts[i]
        grads[f"{prefix}.{i}.b"] += d.sum(axis=0)
        d = d @ params[f"{prefix}.{i}.w"]
    return d


# ---------------------------------------------------------------------------
# Graph preparation and batching

# Node budget of one inference chunk: large enough that per-call overhead is
# shared by about ten typical graphs, small enough to keep activations tiny.
CHUNK_NODES = 128


@dataclass(frozen=True)
class PreparedBatch:
    """Featurized graphs as one disjoint union (the GraphsTuple layout).

    Node feature rows of every graph are stacked, edge endpoints index the
    stacked rows, and ``segment`` maps each row to its graph. A batch of one
    graph has no segment array.
    """

    features: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    segment: np.ndarray | None = None
    n_graphs: int = 1

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]


class PreparedGraph(PreparedBatch):
    """One featurized graph: node feature matrix plus positional edge arrays.
    It is a batch of one and goes through the engine as it is."""


def prepare_graph(
    graph: AttributedCFG, vocab: OpcodeVocabulary, config: ModelConfig
) -> PreparedGraph:
    if len(graph.nodes) > config.max_nodes:
        raise GraphTooLarge(
            f"{len(graph.nodes)} nodes exceeds the cap of {config.max_nodes}"
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


def batch_graphs(graphs: Sequence[PreparedGraph]) -> PreparedBatch:
    """Stack graphs into one batch; graph i owns the rows where segment == i.
    A single graph comes back as it is."""
    if len(graphs) == 1:
        return graphs[0]
    sizes = np.array([g.n_nodes for g in graphs], dtype=np.intp)
    offsets = np.cumsum(sizes) - sizes
    return PreparedBatch(
        features=np.concatenate([g.features for g in graphs]),
        src=np.concatenate([g.src + off for g, off in zip(graphs, offsets)]),
        dst=np.concatenate([g.dst + off for g, off in zip(graphs, offsets)]),
        segment=np.repeat(np.arange(len(graphs), dtype=np.intp), sizes),
        n_graphs=len(graphs),
    )


def chunk_graphs(graphs: Iterable[PreparedGraph]) -> list[PreparedBatch]:
    """Consecutive graphs batched up to CHUNK_NODES nodes per batch; every
    batch holds at least one graph, so a larger graph forms its own.

    Each batch is stacked as soon as it closes, so graphs drawn from a
    generator are never all held twice, once alone and once stacked.
    """
    batches: list[PreparedBatch] = []
    chunk: list[PreparedGraph] = []
    nodes = 0
    for graph in graphs:
        if chunk and nodes + graph.n_nodes > CHUNK_NODES:
            batches.append(batch_graphs(chunk))
            chunk, nodes = [], 0
        chunk.append(graph)
        nodes += graph.n_nodes
    if chunk:
        batches.append(batch_graphs(chunk))
    return batches


# ---------------------------------------------------------------------------
# The engine: forward pass (with tape) and backward pass over a batch

def _segment_sum(rows: np.ndarray, index: np.ndarray, n_out: int) -> np.ndarray:
    """out[index[k]] += rows[k], k ascending, from zeros.

    Every output element gets its additions one at a time in row order, so
    the result equals np.add.at and a one-segment .sum(axis=0) bit for bit;
    bincount over a flat index is just the fastest way numpy has to do it.
    """
    width = rows.shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, weights=rows.ravel(), minlength=n_out * width)
    # bincount of nothing comes back as int64 zeros
    return out.reshape(n_out, width).astype(rows.dtype, copy=False)


def _pool(rows: np.ndarray, batch: PreparedBatch) -> np.ndarray:
    """Per-graph row sums, (n_graphs, width). Several graphs pool through
    a one-hot product, whose operands are a fraction of the rows' size."""
    if batch.segment is None:
        return rows.sum(axis=0, keepdims=True)
    members = np.zeros((batch.n_graphs, batch.n_nodes))
    members[batch.segment, np.arange(batch.n_nodes)] = 1.0
    return members @ rows


def _unpool(graph_rows: np.ndarray, batch: PreparedBatch) -> np.ndarray:
    """Per-graph rows broadcast back to the nodes of each graph."""
    if batch.segment is None:
        return graph_rows
    return graph_rows[batch.segment]


def _prop_forward(
    h: np.ndarray,
    batch: PreparedBatch,
    params: ModelParams,
    config: ModelConfig,
    layer: int,
    tape: list | None,
) -> np.ndarray:
    n = h.shape[0]
    sum_in = _segment_sum(h[batch.src], batch.dst, n)
    sum_out = _segment_sum(h[batch.dst], batch.src, n)
    m_in = sum_in @ params[f"prop.{layer}.in.w"].T
    m_out = sum_out @ params[f"prop.{layer}.out.w"].T
    z = np.concatenate([h, m_in, m_out], axis=1)
    h_next, acts = _mlp_forward(
        z, params, f"prop.{layer}.update", len(config.update_sizes)
    )
    if tape is not None:
        tape.append((sum_in, sum_out, acts))
    return h_next


def _prop_backward(
    dh_next: np.ndarray,
    tape: tuple,
    batch: PreparedBatch,
    params: ModelParams,
    config: ModelConfig,
    layer: int,
    grads: ModelParams,
) -> np.ndarray:
    sum_in, sum_out, acts = tape
    d = config.node_state_dim
    dz = _mlp_backward(
        dh_next, acts, params, f"prop.{layer}.update",
        len(config.update_sizes), grads,
    )
    dh = dz[:, :d].copy()
    dm_in = dz[:, d : 2 * d]
    dm_out = dz[:, 2 * d :]
    grads[f"prop.{layer}.in.w"] += dm_in.T @ sum_in
    grads[f"prop.{layer}.out.w"] += dm_out.T @ sum_out
    if batch.src.size:
        dsum_in = dm_in @ params[f"prop.{layer}.in.w"]
        dsum_out = dm_out @ params[f"prop.{layer}.out.w"]
        np.add.at(dh, batch.src, dsum_in[batch.dst])
        np.add.at(dh, batch.dst, dsum_out[batch.src])
    return dh


def _agg_forward(
    h: np.ndarray,
    batch: PreparedBatch,
    params: ModelParams,
    config: ModelConfig,
    tape: list | None,
) -> np.ndarray:
    gate_lin = h @ params["agg.gate.w"].T + params["agg.gate.b"]
    gate = 1.0 / (1.0 + np.exp(-gate_lin))
    proj = h @ params["agg.proj.w"].T + params["agg.proj.b"]
    pooled = _pool(gate * proj, batch)
    out, acts = _mlp_forward(pooled, params, "agg.out", len(config.output_sizes))
    if tape is not None:
        tape.append((h, gate, proj, acts))
    return out


def _agg_backward(
    demb: np.ndarray,
    tape: tuple,
    batch: PreparedBatch,
    params: ModelParams,
    config: ModelConfig,
    grads: ModelParams,
) -> np.ndarray:
    h, gate, proj, acts = tape
    dpooled = _unpool(
        _mlp_backward(demb, acts, params, "agg.out", len(config.output_sizes), grads),
        batch,
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
    batch: PreparedBatch,
    params: ModelParams,
    config: ModelConfig,
    tape: list | None = None,
) -> np.ndarray:
    """(n_graphs, embedding) rows. Given a tape list, every stage appends
    what its backward pass reads (encoder, each layer, aggregator); without
    one, each stage's activations are freed when it returns."""
    h, acts = _mlp_forward(
        batch.features, params, "encoder", len(config.encoder_sizes)
    )
    if tape is not None:
        tape.append(acts)
    for t in range(config.propagation_layers):
        h = _prop_forward(h, batch, params, config, t, tape)
    return _agg_forward(h, batch, params, config, tape)


def _backward(
    demb: np.ndarray,
    tape: list,
    batch: PreparedBatch,
    params: ModelParams,
    config: ModelConfig,
    grads: ModelParams,
) -> None:
    """Accumulate into grads the gradients of sum(demb * embeddings)."""
    enc_acts, *layer_tapes, agg_tape = tape
    dh = _agg_backward(demb, agg_tape, batch, params, config, grads)
    for t in reversed(range(config.propagation_layers)):
        dh = _prop_backward(dh, layer_tapes[t], batch, params, config, t, grads)
    _mlp_backward(dh, enc_acts, params, "encoder", len(config.encoder_sizes), grads)


def embed_batch(
    batch: PreparedBatch, params: ModelParams, config: ModelConfig
) -> np.ndarray:
    """Embeddings of every graph in the batch, one row per graph."""
    return _forward(batch, params, config)


def embed_prepared(
    prep: PreparedGraph, params: ModelParams, config: ModelConfig
) -> np.ndarray:
    return embed_batch(prep, params, config)[0]


def embed(
    graph: AttributedCFG,
    vocab: OpcodeVocabulary,
    params: ModelParams,
    config: ModelConfig,
) -> np.ndarray:
    return embed_prepared(prepare_graph(graph, vocab, config), params, config)


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
    """Loss for one pair plus exact gradients for every parameter.

    At the hinge kink and at zero distance the subgradient 0 is used.
    """
    if label not in (-1, 1):
        raise InvalidLabel(f"label must be -1 or +1, got {label!r}")
    grads = {name: np.zeros_like(tensor) for name, tensor in params.items()}
    tape1: list = []
    tape2: list = []
    e1 = _forward(query, params, config, tape1)
    e2 = _forward(target, params, config, tape2)
    diff = e1[0] - e2[0]
    distance = float(np.sqrt(np.sum(diff**2)))
    if not np.isfinite(distance):
        # a NaN distance would otherwise read as an inactive hinge
        raise NonFiniteGradient(f"non-finite pair distance {distance}")
    active = config.margin - label * (1.0 - distance)
    loss = max(0.0, active)
    if active > 0.0 and distance > 0.0:
        dd = float(label)
        de1 = (dd * diff / distance)[None, :]
        _backward(de1, tape1, query, params, config, grads)
        _backward(-de1, tape2, target, params, config, grads)
    return loss, grads


# ---------------------------------------------------------------------------
# Optimizer and training loop

@dataclass
class TrainState:
    params: ModelParams
    adam_m: ModelParams
    adam_v: ModelParams
    step: int = 0


def init_train_state(config: ModelConfig) -> TrainState:
    params = init_params(config)
    return TrainState(
        params=params,
        adam_m={k: np.zeros_like(v) for k, v in params.items()},
        adam_v={k: np.zeros_like(v) for k, v in params.items()},
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
    state: TrainState, grads: ModelParams, config: ModelConfig
) -> TrainState:
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradient(f"non-finite gradient in {name}")
    step = state.step + 1
    lr = config.learning_rate
    new_params: ModelParams = {}
    new_m: ModelParams = {}
    new_v: ModelParams = {}
    bias1 = 1.0 - _ADAM_BETA1**step
    bias2 = 1.0 - _ADAM_BETA2**step
    for name, param in state.params.items():
        g = grads[name]
        m = _ADAM_BETA1 * state.adam_m[name] + (1.0 - _ADAM_BETA1) * g
        v = _ADAM_BETA2 * state.adam_v[name] + (1.0 - _ADAM_BETA2) * g**2
        new_m[name] = m
        new_v[name] = v
        new_params[name] = param - lr * (m / bias1) / (np.sqrt(v / bias2) + _ADAM_EPS)
    return TrainState(params=new_params, adam_m=new_m, adam_v=new_v, step=step)


def grad_step(
    batch: Sequence[PreparedPair], state: TrainState, config: ModelConfig
) -> tuple[TrainState, float]:
    """One Adam update on the mean pair loss of the batch."""
    if not batch:
        raise ValueError("empty batch")
    total = {name: np.zeros_like(t) for name, t in state.params.items()}
    loss_sum = 0.0
    for pair in batch:
        loss, grads = pair_loss_and_grads(
            pair.query, pair.target, pair.label, state.params, config
        )
        loss_sum += loss
        for name, grad in grads.items():
            total[name] += grad
    scale = 1.0 / len(batch)
    for name in total:
        total[name] *= scale
    new_state = _adam_update(state, total, config)
    return new_state, loss_sum * scale


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
    val_labels = [p.label for p in val_prepared]
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
        val_auc = _validation_auc(val_prepared, val_labels, state.params, config)
        history.append(
            {"epoch": epoch, "train_loss": epoch_loss, "val_auc": val_auc}
        )
        if val_auc > best_auc:
            best_auc = val_auc
            best_params = clone_params(state.params)
    return best_params, history


def _validation_auc(
    prepared: Sequence[PreparedPair],
    labels: Sequence[int],
    params: ModelParams,
    config: ModelConfig,
) -> float:
    # ranking by -distance matches ranking by similarity (monotone transform)
    emb_cache: dict[int, np.ndarray] = {}

    def emb_of(prep: PreparedGraph) -> np.ndarray:
        key = id(prep)
        if key not in emb_cache:
            emb_cache[key] = embed_prepared(prep, params, config)
        return emb_cache[key]

    scores = [
        (-euclidean_distance(emb_of(p.query), emb_of(p.target)), label)
        for p, label in zip(prepared, labels)
    ]
    return auc(scores)


# ---------------------------------------------------------------------------
# Checkpoints

_CKPT_MAGIC = b"CIDETCK1"
_CKPT_VERSION = 1


def save_checkpoint(
    path: Path | str, params: ModelParams, config: ModelConfig
) -> None:
    """Versioned container: JSON header (config, each tensor's name and
    shape), then raw little-endian float64 tensors in sorted name order.
    """
    path = Path(path)
    names = sorted(params)
    header = {
        "format_version": _CKPT_VERSION,
        "config": config_to_json(config),
        "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with path.open("wb") as handle:
        handle.write(_CKPT_MAGIC)
        handle.write(struct.pack("<Q", len(header_bytes)))
        handle.write(header_bytes)
        for name in names:
            handle.write(
                np.ascontiguousarray(params[name], dtype="<f8").tobytes()
            )


def load_checkpoint(path: Path | str) -> tuple[ModelParams, ModelConfig]:
    """A file cut short or with trailing bytes raises CorruptArtifact."""
    raw = Path(path).read_bytes()
    if raw[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    offset = len(_CKPT_MAGIC) + 8
    header_len = int.from_bytes(raw[len(_CKPT_MAGIC) : offset], "little")
    if len(raw) < offset + header_len:
        raise CorruptArtifact(f"truncated checkpoint {path}: header cut short")
    header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    if header["format_version"] != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header['format_version']}")
    offset += header_len
    counts = [math.prod(entry["shape"]) for entry in header["tensors"]]
    end = offset + 8 * sum(counts)
    if end != len(raw):
        raise CorruptArtifact(f"checkpoint {path}: {len(raw)} bytes, header says {end}")
    params: ModelParams = {}
    for entry, count in zip(header["tensors"], counts):
        tensor = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        params[entry["name"]] = tensor.reshape(entry["shape"]).astype(np.float64)
        offset += count * 8
    return params, config_from_json(header["config"])
