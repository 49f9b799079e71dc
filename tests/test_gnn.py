import dataclasses
import re
import weakref

import numpy as np
import pytest

from cidetect.acfg import build_vocabulary, count_opcodes, strip_name
from cidetect.errors import (
    CorruptArtifact,
    Diverged,
    GraphTooLarge,
    InvalidLabel,
    NonFiniteGradient,
    ShapeMismatch,
)
from cidetect import gnn
from cidetect.gnn import (
    ModelConfig,
    PreparedGraph,
    PreparedPair,
    clone_params,
    config_from_json,
    config_to_json,
    embed_prepared,
    euclidean_distance,
    grad_step,
    init_params,
    init_train_state,
    load_checkpoint,
    pair_loss,
    pair_loss_and_grads,
    prepare_graph,
    prepare_pairs,
    save_checkpoint,
    train_model,
)
from cidetect.labeling import Pattern
from cidetect.pairgen import FunctionPair

import oracles
from helpers import OPCODE_POOL, diamond, random_acfg


def _tiny_config(**overrides):
    base = dict(
        feature_dim=4,
        node_state_dim=3,
        graph_embedding_dim=4,
        propagation_layers=2,
        encoder_hidden=(4,),
        update_hidden=(4,),
        output_hidden=(4,),
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def _tiny_setup(seed=0, n_graphs=8):
    rng = np.random.default_rng(seed)
    graphs = [random_acfg(rng, f"f{i}", OPCODE_POOL[:5], max_nodes=4) for i in range(n_graphs)]
    vocab = build_vocabulary(count_opcodes(graphs), max_size=3)
    config = _tiny_config(feature_dim=vocab.feature_dim)
    return graphs, vocab, config


def _make_pair(query, target, label, rng=None):
    return FunctionPair(
        query=query,
        target=target,
        label=label,
        pattern=Pattern.LEAF,
        query_ref=("noinline", "b", query.function_name or "q"),
        target_ref=("inline", "b", target.function_name or "t"),
        bridge="br" if label == 1 else None,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        _tiny_config(feature_dim=0)
    with pytest.raises(ValueError):
        _tiny_config(margin=0.0)
    with pytest.raises(ValueError):
        _tiny_config(propagation_layers=-1)
    with pytest.raises(ValueError):
        _tiny_config(batch_size=0)
    for field, value, message in [
        ("node_state_dim", 0, "must be >= 1, got 0"),
        ("propagation_layers", -1, "must be >= 0, got -1"),
        ("max_nodes", 0, "must be >= 1, got 0"),
        ("learning_rate", 0.0, "must be a finite number > 0, got 0.0"),
        ("learning_rate", float("inf"), "must be a finite number > 0, got inf"),
        ("margin", float("nan"), "must be a finite number > 0, got nan"),
    ]:
        with pytest.raises(ValueError, match=f"^{field} {re.escape(message)}$"):
            _tiny_config(**{field: value})
    for field in ("encoder_hidden", "update_hidden", "output_hidden"):
        for widths in ((0,), (-3,), (4, 0)):
            with pytest.raises(ValueError, match=field):
                _tiny_config(**{field: widths})


def test_config_json_round_trip():
    config = _tiny_config(encoder_hidden=(8, 4))
    assert config_from_json(config_to_json(config)) == config


def test_config_layer_sizes():
    config = _tiny_config(encoder_hidden=(5,), update_hidden=(), output_hidden=(7, 6))
    assert config.encoder_sizes == [(4, 5), (5, 3)]
    assert config.update_sizes == [(9, 3)]
    assert config.output_sizes == [(4, 7), (7, 6), (6, 4)]


def test_init_params_shapes_and_bounds():
    """Every tensor matches the sizes implied by the config; weights stay
    inside the Glorot-uniform limit and biases start at zero."""
    config = _tiny_config()
    params = init_params(config)
    expected_shapes = {}
    for i, (fan_in, fan_out) in enumerate(config.encoder_sizes):
        expected_shapes[f"encoder.{i}.w"] = (fan_out, fan_in)
        expected_shapes[f"encoder.{i}.b"] = (fan_out,)
    d = config.node_state_dim
    for t in range(config.propagation_layers):
        expected_shapes[f"prop.{t}.in.w"] = (d, d)
        expected_shapes[f"prop.{t}.out.w"] = (d, d)
        for i, (fan_in, fan_out) in enumerate(config.update_sizes):
            expected_shapes[f"prop.{t}.update.{i}.w"] = (fan_out, fan_in)
            expected_shapes[f"prop.{t}.update.{i}.b"] = (fan_out,)
    e = config.graph_embedding_dim
    expected_shapes["agg.gate.w"] = (e, d)
    expected_shapes["agg.gate.b"] = (e,)
    expected_shapes["agg.proj.w"] = (e, d)
    expected_shapes["agg.proj.b"] = (e,)
    for i, (fan_in, fan_out) in enumerate(config.output_sizes):
        expected_shapes[f"agg.out.{i}.w"] = (fan_out, fan_in)
        expected_shapes[f"agg.out.{i}.b"] = (fan_out,)

    assert {k: v.shape for k, v in params.items()} == expected_shapes
    for name, tensor in params.items():
        if name.endswith(".b"):
            assert np.all(tensor == 0.0)
        else:
            fan_out, fan_in = tensor.shape if tensor.ndim == 2 else (tensor.shape[0], 1)
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.max(np.abs(tensor)) <= limit


def test_init_params_deterministic():
    config = _tiny_config(seed=5)
    a = init_params(config)
    b = init_params(config)
    for name in a:
        assert np.array_equal(a[name], b[name])
    c = init_params(_tiny_config(seed=6))
    assert any(not np.array_equal(a[name], c[name]) for name in a)


def test_prepare_graph_features_and_edges():
    graphs, vocab, config = _tiny_setup()
    graph = graphs[0]
    prep = prepare_graph(graph, vocab, config)
    assert prep.features.shape == (len(graph.block_ids), vocab.feature_dim)
    index = graph.node_index
    expected = sorted((index[a], index[b]) for a, b in graph.edges)
    got = sorted(zip(prep.src.tolist(), prep.dst.tolist()))
    assert got == expected


def test_prepare_graph_gives_a_named_graph_the_bits_of_its_stripped_copy():
    """A graph reaches a model only as a PreparedGraph, which holds no name,
    so eval and detect, which prepare named corpus graphs, embed what the
    stripped graphs of a FunctionPair give."""
    assert [f.name for f in dataclasses.fields(PreparedGraph)] == ["features", "src", "dst"]
    graphs, vocab, config = _tiny_setup()
    for graph in graphs:
        assert graph.function_name
        named = prepare_graph(graph, vocab, config)
        stripped = prepare_graph(strip_name(graph), vocab, config)
        for field in ("features", "src", "dst"):
            a, b = getattr(named, field), getattr(stripped, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_prepare_graph_limits():
    graphs, vocab, config = _tiny_setup()
    small = ModelConfig(**{**config_to_json(config), "max_nodes": 1})
    big = max(graphs, key=lambda g: len(g.block_ids))
    if len(big.block_ids) > 1:
        with pytest.raises(GraphTooLarge):
            prepare_graph(big, vocab, small)
    wrong_dim = _tiny_config(feature_dim=vocab.feature_dim + 3)
    with pytest.raises(ShapeMismatch):
        prepare_graph(graphs[0], vocab, wrong_dim)


def _oracle_embed(prep, params, config):
    """Independent forward pass written against the documented formulas."""
    def mlp(x, prefix, n):
        for i in range(n):
            x = x @ params[f"{prefix}.{i}.w"].T + params[f"{prefix}.{i}.b"]
            if i < n - 1:
                x = np.tanh(x)
        return x

    h = mlp(prep.features, "encoder", len(config.encoder_sizes))
    n = h.shape[0]
    for t in range(config.propagation_layers):
        sum_in = np.zeros_like(h)
        sum_out = np.zeros_like(h)
        for s, d in zip(prep.src.tolist(), prep.dst.tolist()):
            sum_in[d] += h[s]
            sum_out[s] += h[d]
        m_in = sum_in @ params[f"prop.{t}.in.w"].T
        m_out = sum_out @ params[f"prop.{t}.out.w"].T
        z = np.concatenate([h, m_in, m_out], axis=1)
        h = mlp(z, f"prop.{t}.update", len(config.update_sizes))
    gate = 1.0 / (1.0 + np.exp(-(h @ params["agg.gate.w"].T + params["agg.gate.b"])))
    proj = h @ params["agg.proj.w"].T + params["agg.proj.b"]
    pooled = (gate * proj).sum(axis=0, keepdims=True)
    return mlp(pooled, "agg.out", len(config.output_sizes))[0]


def test_embedding_matches_independent_forward():
    graphs, vocab, config = _tiny_setup()
    params = init_params(config)
    for graph in graphs:
        prep = prepare_graph(graph, vocab, config)
        got = embed_prepared(prep, params, config)
        want = _oracle_embed(prep, params, config)
        assert got.shape == (config.graph_embedding_dim,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _random_prep(rng, n_nodes, n_edges, feature_dim):
    return PreparedGraph(
        features=rng.integers(0, 4, size=(n_nodes, feature_dim)).astype(np.float64),
        src=rng.integers(n_nodes, size=n_edges).astype(np.intp),
        dst=rng.integers(n_nodes, size=n_edges).astype(np.intp),
    )


def _mixed_graphs(config):
    """A one-node graph without edges, one graph twice, and a graph larger
    than the bucket node budget."""
    rng = np.random.default_rng(12)
    lone = _random_prep(rng, 1, 0, config.feature_dim)
    small = _random_prep(rng, 5, 7, config.feature_dim)
    large = _random_prep(
        rng, gnn.CHUNK_NODES + 9, 2 * gnn.CHUNK_NODES, config.feature_dim
    )
    return [small, lone, small, large, _random_prep(rng, 3, 2, config.feature_dim)]


def test_batched_forward_matches_oracle_per_graph():
    _, vocab, config = _tiny_setup()
    params = init_params(config)
    graphs = _mixed_graphs(config)
    want = [_oracle_embed(g, params, config) for g in graphs]
    buckets = list(gnn._buckets(graphs))
    assert [members for members, _ in buckets] == [[0, 2], [1], [3], [4]]
    for members, bucket in buckets:
        assert {graphs[i].n_nodes for i in members} == {bucket.n_nodes}
        got = gnn._forward(bucket, params, config)
        assert got.shape == (len(members), 1, config.graph_embedding_dim)
        np.testing.assert_allclose(
            got[:, 0], np.stack([want[i] for i in members]), rtol=0, atol=1e-12
        )


def _criterion_06_config(**overrides):
    """The model dims of criterion 06."""
    return ModelConfig(
        feature_dim=96, node_state_dim=24, graph_embedding_dim=64,
        propagation_layers=2, encoder_hidden=(32,), update_hidden=(32,),
        output_hidden=(64,), **overrides,
    )


def test_bucketed_embedding_equals_bucket_of_one_bit_for_bit():
    """A graph embeds to the same bits in a bucket of many as in a bucket of
    one, under C-ordered and Fortran-ordered weights, on the model dims of
    criterion 06: numpy's stacked matmul must run one product per graph.
    Under the C-ordered weights that training uses, both equal the graph's
    own forward pass. Covers a one-node graph without edges, graphs above
    the node budget and buckets of one and of many."""
    config = _criterion_06_config()
    params = init_params(config)
    orders = [params, {k: np.asfortranarray(t) for k, t in params.items()}]
    rng = np.random.default_rng(23)
    groups = [[_random_prep(rng, 1, 0, config.feature_dim) for _ in range(9)]]
    groups += [
        [_random_prep(rng, n, int(rng.integers(0, 3 * n)), config.feature_dim)
         for _ in range(int(rng.integers(2, 12)))]
        for n in (*range(2, 25), 40, 64, 100, 164)
    ]
    groups.append(
        [_random_prep(rng, gnn.CHUNK_NODES + 1, gnn.CHUNK_NODES, config.feature_dim)
         for _ in range(2)]
    )
    for graphs in groups:
        for weights in orders:
            many = gnn._forward(gnn._stack(graphs), weights, config)
            for graph, row in zip(graphs, many):
                alone = gnn._forward(gnn._stack([graph]), weights, config)
                np.testing.assert_array_equal(row, alone[0])
                if weights is params:
                    own = gnn._forward(graph, params, config)
                    np.testing.assert_array_equal(row, own)
    # the budget splits a node count into buckets; a larger graph is alone
    sizes = [len(members) for members, _ in gnn._buckets(groups[-1] + groups[0])]
    assert sizes == [1, 1, 9]


def _tape_arrays(tape):
    """The arrays of a tape, in order."""
    if isinstance(tape, np.ndarray):
        return [tape]
    return [array for part in tape for array in _tape_arrays(part)]


def test_bucket_tape_slice_equals_own_tape_bit_for_bit():
    """On the model dims of criterion 06, every array of a graph's slice of
    its bucket's tape equals the graph's own one-graph tape bit for bit, in
    buckets of one and of many: the one-graph backward pass of a training
    step runs on that slice."""
    config = _criterion_06_config()
    params = init_params(config)
    rng = np.random.default_rng(24)
    groups = [[_random_prep(rng, 1, 0, config.feature_dim) for _ in range(7)]]
    groups += [
        [_random_prep(rng, n, int(rng.integers(0, 3 * n)), config.feature_dim)
         for _ in range(int(rng.integers(2, 10)))]
        for n in (*range(2, 25), 40, 64)
    ]
    for graphs in groups:
        for bucket in (graphs, graphs[:1]):
            tape = []
            gnn._forward(gnn._stack(bucket), params, config, tape)
            for j, graph in enumerate(bucket):
                own = []
                gnn._forward(graph, params, config, own)
                got = _tape_arrays(gnn._row_tape(tape, j))
                want = _tape_arrays(own)
                assert len(got) == len(want)
                for slice_array, own_array in zip(got, want):
                    assert slice_array.shape == own_array.shape
                    np.testing.assert_array_equal(slice_array, own_array)


def test_euclidean_distance():
    a = np.array([0.0, 3.0])
    b = np.array([4.0, 0.0])
    assert euclidean_distance(a, b) == 5.0
    assert euclidean_distance(a, a) == 0.0
    with pytest.raises(ShapeMismatch):
        euclidean_distance(a, np.zeros(3))


def test_pair_loss_values():
    assert pair_loss(0.5, 1, 0.1) == 0.0
    assert pair_loss(1.0, 1, 0.1) == pytest.approx(0.1, abs=0)
    assert pair_loss(0.5, -1, 0.1) == pytest.approx(0.6, abs=0)
    with pytest.raises(InvalidLabel):
        pair_loss(0.5, 0, 0.1)
    with pytest.raises(ValueError):
        pair_loss(0.5, 1, 0.0)


def _fd_check(config, graphs, vocab, label, rel_tol=1e-4, h=1e-5):
    """Central finite differences against the analytic gradients; returns the
    worst relative error or None when the sample sits on a hinge kink."""
    params = init_params(config)
    q = prepare_graph(graphs[0], vocab, config)
    t = prepare_graph(graphs[1], vocab, config)
    e1 = embed_prepared(q, params, config)
    e2 = embed_prepared(t, params, config)
    d = euclidean_distance(e1, e2)
    if abs(config.margin - label * (1.0 - d)) < 1e-6 or d < 1e-9:
        return None
    loss, grads = pair_loss_and_grads(q, t, label, params, config)
    worst = 0.0
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = pair_loss(
                euclidean_distance(
                    embed_prepared(q, params, config),
                    embed_prepared(t, params, config),
                ),
                label,
                config.margin,
            )
            flat[k] = orig - h
            down = pair_loss(
                euclidean_distance(
                    embed_prepared(q, params, config),
                    embed_prepared(t, params, config),
                ),
                label,
                config.margin,
            )
            flat[k] = orig
            fd = (up - down) / (2 * h)
            an = grads[name].reshape(-1)[k]
            if abs(fd) < 1e-6 and abs(an) < 1e-6:
                # unused parameter: the difference is rounding noise
                continue
            scale = max(abs(fd), abs(an))
            worst = max(worst, abs(fd - an) / scale)
    assert worst < rel_tol, f"{worst} at label {label}"
    return worst


def test_gradients_match_finite_differences():
    graphs, vocab, config = _tiny_setup(seed=1, n_graphs=2)
    checked = 0
    for label in (1, -1):
        if _fd_check(config, graphs, vocab, label) is not None:
            checked += 1
    assert checked >= 1


def test_inactive_hinge_has_zero_gradients():
    """Once the margin is satisfied the loss is flat, so every gradient is
    exactly zero."""
    graphs, vocab, config = _tiny_setup(seed=2, n_graphs=2)
    params = init_params(config)
    q = prepare_graph(graphs[0], vocab, config)
    t = prepare_graph(graphs[1], vocab, config)
    d = euclidean_distance(
        embed_prepared(q, params, config), embed_prepared(t, params, config)
    )
    # pick the label that deactivates the hinge for this distance
    label = 1 if d < 1.0 - config.margin else -1
    if pair_loss(d, label, config.margin) == 0.0:
        loss, grads = pair_loss_and_grads(q, t, label, params, config)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())


def test_identical_graphs_give_finite_zero_gradients():
    graphs, vocab, config = _tiny_setup(seed=3, n_graphs=2)
    params = init_params(config)
    q = prepare_graph(graphs[0], vocab, config)
    loss, grads = pair_loss_and_grads(q, q, -1, params, config)
    # d == 0 activates the negative hinge but sits on the distance kink
    assert loss == pytest.approx(config.margin + 1.0)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    assert all(np.all(g == 0.0) for g in grads.values())


def test_grad_step_reduces_loss_on_fixed_batch():
    graphs, vocab, config = _tiny_setup(seed=4)
    pos = [_make_pair(graphs[0], graphs[1], 1), _make_pair(graphs[2], graphs[3], -1)]
    prepared = prepare_pairs(pos, vocab, config, {})
    state = init_train_state(config)
    first = None
    last = None
    for _ in range(60):
        state, loss = grad_step(prepared, state, config)
        if first is None:
            first = loss
        last = loss
    assert state.step == 60
    assert last < first


def test_grad_step_rejects_empty_batch():
    _, vocab, config = _tiny_setup()
    with pytest.raises(ValueError):
        grad_step([], init_train_state(config), config)


def _reference_state(state):
    """The dict-of-tensors state of the reference step, copied from state."""
    return oracles.TrainState(
        params=clone_params(state.params),
        adam_m=clone_params(state.adam_m),
        adam_v=clone_params(state.adam_v),
        step=state.step,
    )


def test_grad_step_matches_reference_step_bit_for_bit():
    """Flat vectors, one forward per distinct graph and skipped zero
    gradients change no bit of the state or the loss."""
    rng = np.random.default_rng(14)
    graphs = [
        random_acfg(rng, f"f{i}", OPCODE_POOL[:6], max_nodes=6) for i in range(6)
    ]
    vocab = build_vocabulary(count_opcodes(graphs), max_size=5)
    config = _tiny_config(
        feature_dim=vocab.feature_dim, node_state_dim=5, learning_rate=0.05
    )
    preps = [prepare_graph(g, vocab, config) for g in graphs]
    a, b, c, d, e, f = preps
    batches = [
        # a is used four times, once as both sides of a zero-distance negative
        [PreparedPair(a, b, 1), PreparedPair(a, c, -1), PreparedPair(d, a, 1),
         PreparedPair(a, a, -1), PreparedPair(e, f, -1)],
        [PreparedPair(b, c, 1), PreparedPair(c, d, -1), PreparedPair(b, b, -1)],
        [PreparedPair(e, a, 1), PreparedPair(f, b, -1)],
    ]
    state = init_train_state(config)
    reference = _reference_state(state)
    losses = []
    for step in range(9):
        batch = batches[step % len(batches)]
        losses += [
            oracles.pair_loss_and_grads(
                p.query, p.target, p.label, reference.params, config
            )[0]
            for p in batch
        ]
        state, loss = grad_step(batch, state, config)
        reference, want = oracles.grad_step(batch, reference, config)
        assert loss == want
        assert state.step == reference.step == step + 1
        for name in reference.params:
            assert np.array_equal(state.params[name], reference.params[name]), name
            assert np.array_equal(state.adam_m[name], reference.adam_m[name]), name
            assert np.array_equal(state.adam_v[name], reference.adam_v[name]), name
    # the batches held inactive pairs (zero loss) and active ones
    assert 0.0 in losses and max(losses) > 0.0


def test_grad_step_matches_reference_step_on_criterion_06_dims():
    """On the model dims of criterion 06, with batches whose graphs share
    node counts and so share buckets, the bucketed step changes no bit of
    the state or the loss against the reference, which runs every graph
    alone."""
    config = _criterion_06_config(learning_rate=0.01)
    rng = np.random.default_rng(25)
    preps = [
        _random_prep(rng, n, int(rng.integers(0, 2 * n)), config.feature_dim)
        for n in (1, 1, 3, 3, 3, 4, 4, 5, 5, 5, 5, 6, 8, 8)
    ]
    batches = []
    for _ in range(3):
        picks = rng.integers(len(preps), size=(12, 2))
        labels = rng.choice([-1, 1], size=len(picks))
        batch = [PreparedPair(preps[q], preps[t], int(label))
                 for (q, t), label in zip(picks, labels)]
        # a pair drawn twice and one graph on both sides
        batches.append(batch + [batch[0], PreparedPair(preps[2], preps[2], -1)])
    state = init_train_state(config)
    reference = _reference_state(state)
    losses = []
    for step in range(6):
        batch = batches[step % len(batches)]
        losses += [
            oracles.pair_loss_and_grads(
                p.query, p.target, p.label, reference.params, config
            )[0]
            for p in batch
        ]
        state, loss = grad_step(batch, state, config)
        reference, want = oracles.grad_step(batch, reference, config)
        assert loss == want
        for name in reference.params:
            assert np.array_equal(state.params[name], reference.params[name]), name
            assert np.array_equal(state.adam_m[name], reference.adam_m[name]), name
            assert np.array_equal(state.adam_v[name], reference.adam_v[name]), name
    # the batches held inactive pairs (zero loss) and active ones
    assert 0.0 in losses and max(losses) > 0.0


def test_grad_step_runs_each_prepared_graph_forward_once(monkeypatch):
    """Each prepared object of a step runs forward once, two objects of one
    graph (as under two refs) included, and the step equals the one on a
    single object bit for bit."""
    graphs, vocab, config = _tiny_setup(seed=20)
    a, b, c = (prepare_graph(g, vocab, config) for g in graphs[:3])
    a_copy = prepare_graph(graphs[0], vocab, config)
    assert a_copy is not a
    embedded = []
    forward = gnn._forward

    def counted(bucket, params, config, tape=None):
        assert tape is not None and bucket.features.ndim == 3
        embedded.append(len(bucket.features))
        return forward(bucket, params, config, tape)

    monkeypatch.setattr(gnn, "_forward", counted)
    state = init_train_state(config)
    got, got_loss = grad_step(
        [PreparedPair(a, b, 1), PreparedPair(c, a_copy, -1)], state, config
    )
    assert sum(embedded) == 4
    want, want_loss = grad_step(
        [PreparedPair(a, b, 1), PreparedPair(c, a, -1)], state, config
    )
    assert got_loss == want_loss
    assert np.array_equal(got.flat_params, want.flat_params)


def test_pair_loss_and_grads_matches_reference_bit_for_bit():
    graphs, vocab, config = _tiny_setup(seed=15)
    params = init_params(config)
    preps = [prepare_graph(g, vocab, config) for g in graphs]
    for q, t in [(0, 1), (2, 3), (4, 4), (5, 6)]:
        for label in (1, -1):
            got = pair_loss_and_grads(preps[q], preps[t], label, params, config)
            want = oracles.pair_loss_and_grads(
                preps[q], preps[t], label, params, config
            )
            assert got[0] == want[0]
            assert list(got[1]) == list(want[1])
            for name in params:
                assert np.array_equal(got[1][name], want[1][name]), name


def test_non_finite_gradient_names_the_tensor():
    """The flat finite check names the first tensor (in parameter order)
    holding a non-finite entry, as the per-tensor check did."""
    _, _, config = _tiny_setup()
    state = init_train_state(config)
    names = list(state.params)
    grads = {name: np.zeros_like(t) for name, t in state.params.items()}
    grads[names[5]].reshape(-1)[-1] = np.nan
    grads[names[9]].reshape(-1)[0] = np.inf
    flat = np.concatenate([grads[name].ravel() for name in names])
    with pytest.raises(NonFiniteGradient, match=rf"in {names[5]}$") as got:
        gnn._adam_update(state, flat, config)
    with pytest.raises(NonFiniteGradient) as want:
        oracles._adam_update(_reference_state(state), grads, config)
    assert str(got.value) == str(want.value)


def test_train_model_zero_epochs_returns_init():
    graphs, vocab, config = _tiny_setup(seed=5)
    val = [_make_pair(graphs[0], graphs[1], 1), _make_pair(graphs[2], graphs[3], -1)]
    params, history = train_model(lambda epoch: [], val, vocab, config, 0)
    assert history == []
    init = init_params(config)
    for name in init:
        np.testing.assert_array_equal(params[name], init[name])


def test_train_model_history_and_determinism():
    graphs, vocab, config = _tiny_setup(seed=6)
    pool = [
        _make_pair(graphs[0], graphs[1], 1),
        _make_pair(graphs[2], graphs[3], -1),
        _make_pair(graphs[4], graphs[5], 1),
        _make_pair(graphs[6], graphs[7], -1),
    ]
    val = pool[:2]
    params_a, history_a = train_model(lambda epoch: pool, val, vocab, config, 3)
    params_b, history_b = train_model(lambda epoch: pool, val, vocab, config, 3)
    assert history_a == history_b
    assert [sorted(h) for h in history_a] == [["epoch", "train_loss", "val_auc"]] * 3
    for name in params_a:
        np.testing.assert_array_equal(params_a[name], params_b[name])


@pytest.mark.parametrize("bucket_nodes", [128, 5, 1])
def test_validation_auc_matches_reference_every_epoch(monkeypatch, bucket_nodes):
    """Validation on the batched engine gives, at every epoch, the AUC of
    the reference that embedded one graph at a time, whatever the bucket
    size."""
    graphs, vocab, config = _tiny_setup(seed=16)
    config = _tiny_config(feature_dim=vocab.feature_dim, learning_rate=0.05)

    def pair(i, j, label, target_dataset="inline"):
        return FunctionPair(
            query=graphs[i],
            target=graphs[j],
            label=label,
            pattern=Pattern.LEAF,
            query_ref=("noinline", "b", f"f{i}"),
            target_ref=(target_dataset, "b", f"f{j}"),
            bridge="br" if label == 1 else None,
        )

    val = [
        pair(0, 1, 1), pair(0, 1, 1),  # a pair drawn twice
        pair(1, 0, -1),  # (b, a) next to (a, b), with the other label
        pair(2, 2, -1, "noinline"),  # one graph on both sides
        pair(2, 2, 1),  # the same function under two refs
        pair(3, 4, -1), pair(4, 3, 1), pair(5, 6, 1), pair(6, 7, -1),
        pair(7, 5, -1), pair(3, 6, 1), pair(2, 5, -1),
    ]
    train = [pair(0, 2, 1), pair(1, 3, -1), pair(4, 5, 1), pair(6, 7, -1)]
    monkeypatch.setattr(gnn, "CHUNK_NODES", bucket_nodes)
    seen = []
    batched = gnn._validation_auc

    def both(prepared, params, config):
        labels = [p.label for p in prepared]
        want = oracles._validation_auc(prepared, labels, params, config)
        seen.append((batched(prepared, params, config), want))
        return seen[-1][0]

    monkeypatch.setattr(gnn, "_validation_auc", both)
    _, history = train_model(lambda epoch: train, val, vocab, config, 6)
    assert [row["val_auc"] for row in history] == [got for got, _ in seen]
    assert [got for got, _ in seen] == [want for _, want in seen]
    assert len({want for _, want in seen}) > 1, "the AUC should move in training"


def test_pair_distances_match_per_graph_distances():
    graphs, vocab, config = _tiny_setup(seed=17)
    params = init_params(config)
    preps = [prepare_graph(g, vocab, config) for g in graphs]
    rows = [(0, 1), (1, 0), (2, 2), (3, 7), (7, 3), (5, 6)]
    got = gnn.pair_distances([(preps[q], preps[t]) for q, t in rows], [params], config)
    want = [
        euclidean_distance(
            embed_prepared(preps[q], params, config),
            embed_prepared(preps[t], params, config),
        )
        for q, t in rows
    ]
    assert got.shape == (1, len(rows))
    np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-12)
    assert got[0, 2] == 0.0 and got[0, 0] == got[0, 1] and got[0, 3] == got[0, 4]


def test_pair_distances_put_equal_content_at_distance_zero(monkeypatch):
    """Two prepared objects of one graph, as under two refs, get a row each
    and embed to equal bits: their distance is exactly 0 whatever the
    bucket budget."""
    graphs, vocab, config = _tiny_setup(seed=18)
    params = init_params(config)
    preps = [prepare_graph(g, vocab, config) for g in graphs]
    copy = prepare_graph(graphs[3], vocab, config)
    assert copy is not preps[3]
    pairs = [(p, preps[(i + 1) % len(preps)]) for i, p in enumerate(preps)]
    pairs += [(preps[3], copy), (copy, preps[3])]
    for budget in (1, 5, 128):
        monkeypatch.setattr(gnn, "CHUNK_NODES", budget)
        got = gnn.pair_distances(pairs, [params], config)[0]
        assert got[-2] == 0.0 and got[-1] == 0.0


def test_pair_distances_hold_one_stacked_batch_at_a_time(monkeypatch):
    """Each stacked bucket embeds under every model and is freed before the
    next one is embedded."""
    graphs, vocab, config = _tiny_setup(seed=21, n_graphs=12)
    models = [init_params(config), init_params(_tiny_config(
        feature_dim=vocab.feature_dim, seed=1
    ))]
    preps = [prepare_graph(g, vocab, config) for g in graphs]
    pairs = [(p, preps[(i + 1) % len(preps)]) for i, p in enumerate(preps)]
    stacked = []
    embedded = []
    stack = gnn._stack
    forward = gnn._forward

    def tracked_stack(graphs):
        bucket = stack(graphs)
        stacked.append(weakref.ref(bucket))
        return bucket

    def tracked_forward(bucket, params, config, tape=None):
        assert tape is None
        alive = [ref() for ref in stacked if ref() is not None]
        assert len(alive) == 1 and alive[0] is bucket
        embedded.append(len(bucket.features))
        return forward(bucket, params, config, tape)

    monkeypatch.setattr(gnn, "CHUNK_NODES", 8)
    monkeypatch.setattr(gnn, "_stack", tracked_stack)
    monkeypatch.setattr(gnn, "_forward", tracked_forward)
    gnn.pair_distances(pairs, models, config)
    assert len(stacked) > len({p.n_nodes for p in preps}) > 1
    assert all(ref() is None for ref in stacked)
    assert sum(embedded) == len(models) * len(preps)


def test_pair_distances_take_every_model_in_one_call():
    graphs, vocab, config = _tiny_setup(seed=19)
    other = _tiny_config(feature_dim=vocab.feature_dim, seed=1)
    models = [init_params(config), init_params(other)]
    preps = [prepare_graph(g, vocab, config) for g in graphs]
    pairs = [(preps[0], preps[1]), (preps[2], preps[2]), (preps[4], preps[6])]
    got = gnn.pair_distances(pairs, models, config)
    assert got.shape == (2, len(pairs))
    for row, params in zip(got, models):
        alone = gnn.pair_distances(pairs, [params], config)
        np.testing.assert_array_equal(row, alone[0])
    assert not np.array_equal(got[0], got[1])


def test_train_model_diverges_on_huge_learning_rate():
    """An absurd learning rate overflows float64 inside a couple of steps;
    the non-finite state must surface as Diverged, not a silent zero loss."""
    graphs, vocab, config = _tiny_setup(seed=7)
    config = ModelConfig(**{**config_to_json(config), "learning_rate": 1e200})
    pool = [
        _make_pair(graphs[0], graphs[1], 1),
        _make_pair(graphs[2], graphs[3], -1),
    ]
    with pytest.raises(Diverged):
        with np.errstate(over="ignore", invalid="ignore"):
            train_model(lambda epoch: pool, pool, vocab, config, 20)


def test_checkpoint_round_trip(tmp_path):
    graphs, vocab, config = _tiny_setup(seed=8)
    params = init_params(config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    loaded_params, loaded_config = load_checkpoint(path)
    assert loaded_config == config
    assert set(loaded_params) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded_params[name], params[name])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_value(tmp_path, value):
    """The message names the tensor that holds the value, at either end of
    each tensor."""
    _, _, config = _tiny_setup(seed=8)
    path = tmp_path / "model.ckpt"
    for name in init_params(config):
        for position in (0, -1):
            params = init_params(config)
            params[name].reshape(-1)[position] = value
            save_checkpoint(path, params, config)
            message = f"{path}: non-finite value in {name}"
            with pytest.raises(CorruptArtifact, match=re.escape(message) + "$"):
                load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CorruptArtifact, match="not a checkpoint file"):
        load_checkpoint(path)
