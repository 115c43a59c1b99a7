import io
import tracemalloc

import numpy as np
import pytest

from occfield import (
    ContractionParams,
    FieldModel,
    FourierConfig,
    QueryBatch,
    TrainConfig,
    UNLABELED,
    backward,
    forward_batch,
    init_field_model,
    log_frequency_weights,
    loss,
    read_field_model,
    train,
    write_field_model,
)
from occfield.errors import EmptyBatchError, TrainingDivergedError
from occfield import field as field_module
from occfield.field import (
    RENDER_EPS,
    RaySupervision,
    _backward_from_output_grads,
    _cached_rows,
    _composite,
    _forward_raw,
    _Workspace,
    train_rendering_baseline,
)


def _small_model(seed=0, n_classes=3):
    return init_field_model(
        ContractionParams(10.0, 0.8), n_classes=n_classes,
        grid_size=8, grid_channels=4, fourier=FourierConfig(3, 1.0, 10.0),
        hidden_width=12, hidden_layers=2, seed=seed,
    )


def _randomize(model, rng, scale=0.3):
    for w, b in model.layers:
        w += rng.standard_normal(w.shape) * scale
        b += rng.standard_normal(b.shape) * 0.1
    model.grid.data += rng.standard_normal(model.grid.data.shape) * 0.5
    return model


def _random_batch(rng, n=40, n_classes=3):
    q = np.column_stack([
        rng.uniform(-15, 15, n), rng.uniform(-15, 15, n),
        rng.uniform(-1, 3, n), rng.uniform(-1, 1, n),
    ])
    occ = rng.integers(0, 2, n).astype(np.uint8)
    cls = np.where(occ == 1, rng.integers(0, n_classes, n), UNLABELED).astype(np.uint16)
    return QueryBatch(q, occ, cls)


def _reference_forward(model, queries):
    """The allocating training forward: every layer's activation and
    squareplus derivative in fresh arrays."""
    h, iy, ix, bw = field_module._encode(model, queries)
    acts, derivs = [h], []
    for w, b in model.layers[:-1]:
        a = h @ w + b
        s = np.sqrt(a * a + 4.0)
        h, da = 0.5 * (a + s), 0.5 * (1.0 + a / s)
        acts.append(h)
        derivs.append(da)
    w, b = model.layers[-1]
    out = h @ w + b
    return out[:, 0], out[:, 1:], (iy, ix, bw, acts, derivs)


def _reference_backward(model, cache, d_occ_logit, d_sem_logits):
    """The allocating backward: a fresh input gradient for every layer."""
    iy, ix, bw, acts, derivs = cache
    d = np.concatenate([d_occ_logit[:, None], d_sem_logits], axis=1)
    grads = []
    for li in range(len(model.layers) - 1, -1, -1):
        w, _ = model.layers[li]
        grads.append((acts[li].T @ d, d.sum(axis=0)))
        d = d @ w.T
        if li > 0:
            d = d * derivs[li - 1]
    grads.reverse()
    grid_grad = np.zeros_like(model.grid.data)
    for k in range(4):
        np.add.at(grid_grad, (iy[:, k], ix[:, k]), bw[:, k, None] * d[:, : model.grid.channels])
    return grid_grad, grads


def _reference_adamw_step(opt, grads, step_index):
    """The allocating AdamW update of whole arrays."""
    beta1, beta2 = field_module._ADAM_BETA1, field_module._ADAM_BETA2
    opt.t += 1
    lr = opt.lr_at(step_index)
    b1c, b2c = 1.0 - beta1**opt.t, 1.0 - beta2**opt.t
    for p, g, m, v, decay in zip(opt.params, grads, opt.m, opt.v, opt.decay_mask):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / b1c) / (np.sqrt(v / b2c) + field_module._ADAM_EPS)
        if decay:
            update = update + opt.cfg.weight_decay * p
        p -= lr * update


def _reference_rendering(model, rays, cfg):
    """The rendering baseline that evaluates every coarse sample twice: a
    cache-free coarse pass, then one training forward over all sorted samples.
    Returns the model, the loss history and how many importance depths were
    clipped onto render_near, where they tie with the first coarse depth."""
    f = field_module
    rng = np.random.default_rng(cfg.seed)
    opt = f._AdamW(model.parameters(), f._decay_mask(model), cfg)
    grid_grad = np.empty_like(model.grid.data)
    coarse = np.geomspace(cfg.render_near, cfg.render_far, cfg.render_coarse)
    history, ties = [], 0
    w_c = f._class_weights(model, cfg)
    for step in range(cfg.total_steps):
        idx = rng.integers(0, len(rays), cfg.batch_size)
        org, dirs = rays.origins[idx], rays.directions[idx]
        tgt_d, tgt_c, times = rays.target_depths[idx], rays.target_classes[idx], rays.times[idx]
        b = len(idx)
        pts = org[:, None, :] + coarse[None, :, None] * dirs[:, None, :]
        q = np.concatenate([pts.reshape(-1, 3), np.repeat(times, len(coarse))[:, None]], axis=1)
        occ_c = f.forward_batch(model, q)[0].reshape(b, -1)
        trans_c = np.cumprod(1.0 - occ_c, axis=1)
        w_coarse = np.concatenate([np.ones((b, 1)), trans_c[:, :-1]], axis=1) * occ_c
        mass_c = np.maximum(w_coarse.sum(axis=1), f.RENDER_EPS)
        d_pred = (w_coarse * coarse[None, :]).sum(axis=1) / mass_c
        fine = d_pred[:, None] + rng.uniform(-1.0, 1.0, (b, cfg.render_importance))
        fine = np.clip(fine, cfg.render_near, cfg.render_far)
        ties += int(np.sum(fine == coarse[0]))
        depths = np.sort(np.concatenate([np.broadcast_to(coarse, (b, len(coarse))), fine], axis=1), axis=1)
        ns = depths.shape[1]
        pts = org[:, None, :] + depths[:, :, None] * dirs[:, None, :]
        q = np.concatenate([pts.reshape(-1, 3), np.repeat(times, ns)[:, None]], axis=1)
        occ_logit, sem_logits, cache = _forward_raw(model, q)
        occ = f._sigmoid(occ_logit).reshape(b, ns)
        sem = f._softmax(sem_logits).reshape(b, ns, model.n_classes)
        trans = np.concatenate([np.ones((b, 1)), np.cumprod(1.0 - occ, axis=1)], axis=1)
        w = trans[:, :-1] * occ
        mass = w.sum(axis=1)
        guarded = mass < f.RENDER_EPS
        mass_eff = np.maximum(mass, f.RENDER_EPS)
        depth_r = (w * depths).sum(axis=1) / mass_eff
        sem_r = (w[:, :, None] * sem).sum(axis=1) / mass_eff[:, None]
        labeled = tgt_c != UNLABELED
        depth_err = depth_r - tgt_d
        l_depth = float(np.mean(np.abs(depth_err)))
        l_sem = 0.0
        d_sem_r = np.zeros_like(sem_r)
        n_lab = int(labeled.sum())
        if n_lab:
            p_true = sem_r[labeled, tgt_c[labeled].astype(int)]
            wi = w_c[tgt_c[labeled].astype(int)]
            l_sem = float(np.mean(wi * -np.log(p_true + 1e-12)))
            d_sem_r[labeled, tgt_c[labeled].astype(int)] = wi * (-1.0 / (p_true + 1e-12)) / n_lab
        d_occ_rows, d_sem_rows = f._composite_backward(
            depths, occ, sem, np.sign(depth_err) / b, d_sem_r, w, trans, mass_eff, guarded,
            depth_r, sem_r,
        )
        d_occ_logit = (d_occ_rows * occ * (1.0 - occ)).reshape(-1)
        sm = sem.reshape(-1, model.n_classes)
        ds = d_sem_rows.reshape(-1, model.n_classes)
        d_sem_logits = sm * (ds - (ds * sm).sum(axis=1, keepdims=True))
        grads = _backward_from_output_grads(model, cache, d_occ_logit, d_sem_logits, grid_grad)
        opt.step(f._flatten_grads(grads), step)
        history.append(f.LossReport(l_depth + l_sem, l_depth, l_sem))
    return model, history, ties


def _random_rays(rng, n=300, n_classes=3):
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    classes = rng.integers(0, n_classes + 1, n)
    return RaySupervision(
        rng.uniform(-3, 3, (n, 3)), dirs, rng.uniform(0.5, 12.0, n),
        np.where(classes == n_classes, UNLABELED, classes).astype(np.uint16),
        rng.uniform(-1, 1, n),
    )


def _cache_arrays(occ_logit, sem_logits, cache):
    iy, ix, bw, acts, derivs = cache
    return [occ_logit, sem_logits, iy, ix, bw, *acts, *derivs]


class TestForward:
    def test_zero_init_gives_half_and_uniform(self):
        model = _small_model()
        occ_p, sem_p = forward_batch(model, np.array([[1.0, -2.0, 0.5, 0.1], [30.0, 4.0, -1.0, -0.5]]))
        np.testing.assert_array_equal(occ_p, [0.5, 0.5])
        np.testing.assert_allclose(sem_p, np.full((2, 3), 1 / 3))

    def test_simplex_and_range(self):
        model = _randomize(_small_model(), np.random.default_rng(0))
        q = _random_batch(np.random.default_rng(1), 100).queries
        occ_p, sem_p = forward_batch(model, q)
        np.testing.assert_allclose(sem_p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((occ_p > 0) & (occ_p < 1))

    def test_determinism_same_inputs(self):
        model = _randomize(_small_model(), np.random.default_rng(2))
        q = np.array([[3.0, 4.0, 1.0, 0.5]])
        a = forward_batch(model, q)
        b = forward_batch(model, q)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestInference:
    @pytest.mark.parametrize("widths", [(12, 12), (12, 7)])
    @pytest.mark.parametrize("extra_classes", [0, 2])  # a head of 4 or 6 columns
    def test_bitwise_equal_to_training_forward(self, extra_classes, widths):
        rng = np.random.default_rng(4)
        n_classes = 3 + extra_classes
        base = _randomize(_small_model(n_classes=n_classes), rng)
        sizes = [base.layer_sizes[0], *widths, base.layer_sizes[-1]]
        layers = [
            (rng.standard_normal((i, o)) * 0.5, rng.standard_normal(o) * 0.1)
            for i, o in zip(sizes, sizes[1:])
        ]
        model = FieldModel(base.grid, layers, base.fourier, n_classes)
        q = _random_batch(rng, 300).queries
        occ_logit, sem_logits, _ = _forward_raw(model, q)
        occ_p, sem_p = forward_batch(model, q)
        np.testing.assert_array_equal(occ_p, field_module._sigmoid(occ_logit))
        np.testing.assert_array_equal(sem_p, field_module._softmax(sem_logits))

    @pytest.mark.parametrize("n", [8192, 65536])
    def test_memory_does_not_grow_with_the_batch(self, n):
        width = 160
        model = _randomize(
            init_field_model(ContractionParams(10.0, 0.8), n_classes=3, grid_size=8,
                             hidden_width=width, hidden_layers=4),
            np.random.default_rng(5), scale=0.05,
        )
        q = _random_batch(np.random.default_rng(6), n).queries
        tracemalloc.start()
        try:
            outputs = forward_batch(model, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's input and two activation buffers plus its encoding
        # temporaries hold about 3.4 blocks of activations; the outputs are N-sized
        block = field_module._INFER_ROWS * width * 8
        assert peak - sum(a.nbytes for a in outputs) < 4 * block

    @pytest.fixture(scope="class")
    def six_column_rows(self):
        """A model with a 6-column head, whose rows agree bitwise across batch
        sizes, 2B + 1 queries (B = ``_INFER_ROWS``) and the probabilities of
        one whole-batch training forward pass over them."""
        rng = np.random.default_rng(23)
        model = _randomize(
            init_field_model(ContractionParams(10.0, 0.8), n_classes=5, grid_size=8,
                             hidden_width=160, hidden_layers=4),
            rng, scale=0.05,
        )
        q = _random_batch(rng, 2 * field_module._INFER_ROWS + 1).queries
        occ_logit, sem_logits, _ = _forward_raw(model, q)
        return model, q, field_module._sigmoid(occ_logit), field_module._softmax(sem_logits)

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["1", "2", "B-1", "B", "B+1", "2B+1"])
    def test_block_boundaries_keep_the_bits_of_one_batch(self, six_column_rows, blocks, extra):
        model, q, occ_p, sem_p = six_column_rows
        n = blocks * field_module._INFER_ROWS + extra
        occ, sem = forward_batch(model, q[:n])
        assert occ.shape == (n,) and sem.shape == (n, 5)
        assert occ.tobytes() == occ_p[:n].tobytes() and sem.tobytes() == sem_p[:n].tobytes()

    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_is_refused(self, column, value):
        # a non-finite z or t would otherwise give NaN probabilities
        model = _randomize(_small_model(), np.random.default_rng(24))
        q = _random_batch(np.random.default_rng(25), field_module._INFER_ROWS + 5).queries
        q[-2, column] = value  # in the second block
        with pytest.raises(ValueError, match="finite"):
            forward_batch(model, q)

    def test_one_row_batch_gives_the_batched_bits(self):
        # numpy multiplies a one-row matrix through a matrix-vector product,
        # which rounds otherwise; forward_batch runs such a batch as two rows
        rng = np.random.default_rng(19)
        model = _randomize(
            init_field_model(ContractionParams(10.0, 0.8), n_classes=3,
                             grid_size=8, hidden_width=160, hidden_layers=4),
            rng, scale=0.05,
        )
        q = _random_batch(rng, 64).queries
        batched = forward_batch(model, q)
        for i in range(len(q)):
            single = forward_batch(model, q[i : i + 1])
            for whole, one in zip(batched, single):
                assert one.shape[0] == 1
                np.testing.assert_array_equal(one, whole[i : i + 1])

    def test_zero_classes_rejected(self):
        with pytest.raises(ValueError, match="n_classes"):
            _small_model(n_classes=0)


class TestTrainingForward:
    @pytest.mark.parametrize("widths", [(12, 12), (12, 7)])
    @pytest.mark.parametrize("extra_classes", [0, 2])  # a head of 4 or 6 columns
    def test_forward_and_backward_equal_allocating_reference(self, extra_classes, widths):
        rng = np.random.default_rng(16)
        n_classes = 3 + extra_classes
        base = _randomize(_small_model(n_classes=n_classes), rng)
        sizes = [base.layer_sizes[0], *widths, base.layer_sizes[-1]]
        layers = [
            (rng.standard_normal((i, o)) * 0.5, rng.standard_normal(o) * 0.1)
            for i, o in zip(sizes, sizes[1:])
        ]
        model = FieldModel(base.grid, layers, base.fourier, n_classes)
        q = _random_batch(rng, 700).queries  # more than one squareplus block
        ref = _reference_forward(model, q)
        got = _forward_raw(model, q)
        for r, g in zip(_cache_arrays(*ref), _cache_arrays(*got)):
            np.testing.assert_array_equal(g, r)
        d_occ, d_sem = (rng.standard_normal(a.shape) for a in got[:2])
        ref_grid, ref_layers = _reference_backward(model, ref[2], d_occ, d_sem)
        grads = _backward_from_output_grads(model, got[2], d_occ, d_sem)
        np.testing.assert_array_equal(grads.grid, ref_grid)
        for (dw, db), (rw, rb) in zip(grads.layers, ref_layers):
            np.testing.assert_array_equal(dw, rw)
            np.testing.assert_array_equal(db, rb)

    def test_rows_do_not_depend_on_their_batch(self):
        # The rendering baseline reuses coarse rows computed in a batch of
        # 12,288 next to 4,096 importance rows, in place of one pass over all
        # 16,384 sorted samples; that is exact only while every cached row
        # depends on its own query alone, whatever BLAS does with the batch.
        # A one-row batch is the exception: numpy multiplies it through a
        # matrix-vector product, which may round differently.  The head has
        # six columns: with four (three classes), OpenBLAS multiplies batches
        # of up to about a thousand rows through another kernel, which rounds
        # otherwise (see CHANGES.md).
        rng = np.random.default_rng(17)
        model = _randomize(
            init_field_model(ContractionParams(10.0, 0.8), n_classes=5,
                             grid_size=8, hidden_width=160, hidden_layers=2),
            rng, scale=0.05,
        )
        q = _random_batch(rng, 16384).queries
        whole = [a.copy() for a in _cache_arrays(*_forward_raw(model, q))]

        work = _Workspace(16384)
        _forward_raw(model, q[:12288], work)
        _forward_raw(model, q[12288:], work, 12288)
        for w, g in zip(whole, _cache_arrays(*_cached_rows(model, work, 0, 16384))):
            np.testing.assert_array_equal(g, w)
        del work

        perm = rng.permutation(16384)
        for w, g in zip(whole, _cache_arrays(*_forward_raw(model, q[perm]))):
            np.testing.assert_array_equal(g, w[perm])
        for pair in ([0, 16383], [4095, 12288]):
            for w, g in zip(whole, _cache_arrays(*_forward_raw(model, q[pair]))):
                np.testing.assert_array_equal(g, w[pair])

    def test_reused_workspace_gives_the_bytes_of_a_fresh_one(self):
        rng = np.random.default_rng(18)
        model = _randomize(_small_model(), rng)
        batch = _random_batch(rng, 300)
        cfg = TrainConfig(seed=0)
        first, second = rng.integers(0, 300, 64), rng.integers(0, 300, 64)
        work = _Workspace(64)
        backward(model, batch, cfg, first, work=work)
        reused, rep_reused = backward(model, batch, cfg, second, work=work)
        fresh, rep_fresh = backward(model, batch, cfg, second)
        assert rep_reused == rep_fresh
        np.testing.assert_array_equal(reused.grid, fresh.grid)
        for (w1, b1), (w2, b2) in zip(reused.layers, fresh.layers):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)


class TestLoss:
    def test_occ_half_gives_ln2(self):
        model = _small_model()  # zero heads -> occ prob 0.5, uniform semantics
        rng = np.random.default_rng(3)
        batch = _random_batch(rng, 50)
        cfg = TrainConfig(lambda_sem=0.0, seed=0)
        rep = loss(model, batch, cfg)
        assert rep.occ == pytest.approx(np.log(2.0), abs=1e-12)

    def test_uniform_semantics_gives_ln_n(self):
        model = _small_model(n_classes=5)
        rng = np.random.default_rng(4)
        n = 30
        q = rng.uniform(-5, 5, (n, 4))
        batch = QueryBatch(
            q, np.ones(n, np.uint8), rng.integers(0, 5, n).astype(np.uint16),
        )
        cfg = TrainConfig(seed=0)  # unweighted classes
        rep = loss(model, batch, cfg)
        assert rep.sem == pytest.approx(np.log(5.0), abs=1e-12)

    def test_total_is_weighted_sum(self):
        model = _randomize(_small_model(), np.random.default_rng(5))
        batch = _random_batch(np.random.default_rng(6))
        cfg = TrainConfig(lambda_occ=1.0, lambda_sem=0.5, seed=0)
        rep = loss(model, batch, cfg)
        assert rep.total == pytest.approx(1.0 * rep.occ + 0.5 * rep.sem, abs=1e-9)

    def test_perfect_predictions_drive_terms_to_zero(self):
        model = _small_model(n_classes=2)
        # push the occupancy head bias very positive and class-0 logit high
        w, b = model.layers[-1]
        b[0] = 30.0
        b[1] = 30.0
        n = 10
        q = np.random.default_rng(7).uniform(-5, 5, (n, 4))
        batch = QueryBatch(q, np.ones(n, np.uint8), np.zeros(n, np.uint16))
        rep = loss(model, batch, TrainConfig(seed=0))
        assert rep.occ < 1e-10
        assert rep.sem < 1e-10

    def test_empty_batch_error(self):
        model = _small_model()
        empty = QueryBatch(np.zeros((0, 4)), np.zeros(0, np.uint8), np.zeros(0, np.uint16))
        with pytest.raises(EmptyBatchError):
            loss(model, empty, TrainConfig(seed=0))


class TestBackward:
    def test_finite_difference_all_parameter_classes(self):
        rng = np.random.default_rng(8)
        model = _randomize(_small_model(), rng)
        batch = _random_batch(rng, 60)
        cfg = TrainConfig(class_weights=np.array([1.2, 0.7, 1.1]), seed=0)
        grads, _ = backward(model, batch, cfg)
        flat = [grads.grid] + [g for pair in grads.layers for g in pair]
        h = 1e-5
        worst = 0.0
        for p, g in zip(model.parameters(), flat):
            for _ in range(10):
                idx = tuple(rng.integers(0, s) for s in p.shape)
                old = p[idx]
                p[idx] = old + h
                lp = loss(model, batch, cfg).total
                p[idx] = old - h
                lm = loss(model, batch, cfg).total
                p[idx] = old
                fd = (lp - lm) / (2 * h)
                rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-10)
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_untouched_grid_cells_have_zero_gradient(self):
        rng = np.random.default_rng(9)
        model = _randomize(_small_model(), rng)
        # single query far in a corner touches at most 4 cells
        batch = QueryBatch(
            np.array([[2.0, 2.0, 0.5, 0.0]]), np.array([1], np.uint8),
            np.array([0], np.uint16),
        )
        grads, _ = backward(model, batch, TrainConfig(seed=0))
        touched = np.any(grads.grid != 0, axis=2)
        assert touched.sum() <= 4
        assert np.all(grads.grid[~touched] == 0)

    def test_loss_scaling_scales_gradients(self):
        rng = np.random.default_rng(10)
        model = _randomize(_small_model(), rng)
        batch = _random_batch(rng, 30)
        k = 3.0
        g1, _ = backward(model, batch, TrainConfig(1.0, 0.5, seed=0))
        g2, _ = backward(model, batch, TrainConfig(k, k * 0.5, seed=0))
        np.testing.assert_allclose(g2.grid, k * g1.grid, rtol=1e-12, atol=1e-15)
        for (w1, b1), (w2, b2) in zip(g1.layers, g2.layers):
            np.testing.assert_allclose(w2, k * w1, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(b2, k * b1, rtol=1e-12, atol=1e-15)

    def test_reused_grid_grad_buffer_is_zeroed_and_returned(self):
        rng = np.random.default_rng(14)
        model = _randomize(_small_model(), rng)
        batch = _random_batch(rng, 30)
        fresh, _ = backward(model, batch, TrainConfig(seed=0))
        buf = np.full_like(model.grid.data, 7.0)
        reused, _ = backward(model, batch, TrainConfig(seed=0), grid_grad=buf)
        assert reused.grid is buf
        np.testing.assert_array_equal(buf, fresh.grid)


class TestTrain:
    def test_deterministic_and_finite(self):
        rng = np.random.default_rng(11)
        batch = _random_batch(rng, 200)
        cfg = TrainConfig(total_steps=40, batch_size=32, warmup_steps=5, seed=4)
        m1, h1 = train(_small_model(seed=1), batch, cfg)
        m2, h2 = train(_small_model(seed=1), batch, cfg)
        assert all(np.isfinite(r.total) for r in h1)
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1, p2)
        assert [r.total for r in h1] == [r.total for r in h2]

    def test_chunked_optimizer_matches_whole_array_update(self, monkeypatch):
        rng = np.random.default_rng(15)
        batch = _random_batch(rng, 200)
        cfg = TrainConfig(total_steps=10, batch_size=32, warmup_steps=2, seed=4)
        whole, h1 = train(_small_model(seed=1), batch, cfg)
        # 5 elements a slice: the 8x8x4 grid and the weights go one row at a
        # time, the 12-element biases in two slices
        monkeypatch.setattr(field_module, "_ADAM_CHUNK", 5)
        chunked, h2 = train(_small_model(seed=1), batch, cfg)
        for p1, p2 in zip(whole.parameters(), chunked.parameters()):
            np.testing.assert_array_equal(p1, p2)
        assert [r.total for r in h1] == [r.total for r in h2]

    def test_optimizer_matches_allocating_reference(self):
        rng = np.random.default_rng(20)
        cfg = TrainConfig(total_steps=6, warmup_steps=2, weight_decay=0.1, seed=0)
        models = [_small_model(seed=3), _small_model(seed=3)]
        opts = [
            field_module._AdamW(m.parameters(), field_module._decay_mask(m), cfg)
            for m in models
        ]
        for step in range(cfg.total_steps):
            grads = [rng.standard_normal(p.shape) for p in models[0].parameters()]
            opts[0].step(grads, step)
            _reference_adamw_step(opts[1], grads, step)
        for p1, p2 in zip(models[0].parameters(), models[1].parameters()):
            np.testing.assert_array_equal(p1, p2)

    def test_loss_decreases_on_learnable_task(self):
        rng = np.random.default_rng(12)
        n = 400
        q = np.column_stack([
            rng.uniform(-8, 8, n), rng.uniform(-8, 8, n),
            rng.uniform(0, 2, n), np.zeros(n),
        ])
        occ = (q[:, 0] > 0).astype(np.uint8)  # occupied half-space
        cls = np.where(occ == 1, 0, UNLABELED).astype(np.uint16)
        batch = QueryBatch(q, occ, cls)
        cfg = TrainConfig(total_steps=300, batch_size=128, warmup_steps=20,
                          learning_rate=3e-3, seed=0)
        model = init_field_model(
            ContractionParams(10.0, 0.8), n_classes=1,
            grid_size=16, grid_channels=4, fourier=FourierConfig(3, 1.0, 10.0),
            hidden_width=16, hidden_layers=2, seed=0,
        )
        model, hist = train(model, batch, cfg)
        first = np.mean([r.total for r in hist[:20]])
        last = np.mean([r.total for r in hist[-20:]])
        assert last < 0.25 * first

    def test_divergence_raises_with_step(self):
        rng = np.random.default_rng(13)
        batch = _random_batch(rng, 100)
        cfg = TrainConfig(total_steps=200, batch_size=64, warmup_steps=1,
                          learning_rate=1e12, seed=0)
        model = _randomize(_small_model(), rng, scale=3.0)
        with pytest.raises(TrainingDivergedError) as e:
            train(model, batch, cfg)
        assert 0 <= e.value.step < 200


class TestRenderRay:
    """The rendering baseline's compositor on closed-form rays."""

    def test_single_opaque_sample(self):
        sem = np.array([[[0.25, 0.75]]])
        trans, w, _, guarded, depth, sem_r = _composite(np.array([[5.0]]), np.array([[1.0]]), sem)
        assert depth[0] == 5.0
        assert trans[0, -1] == 0.0
        assert not guarded[0]
        np.testing.assert_array_equal(sem_r, sem[:, 0])

    def test_fully_transparent_flag(self):
        # a ray whose opacity mass is below the guard keeps the floored mass,
        # so its rendered depth and semantics shrink toward zero
        depths = np.array([[2.0, 4.0, 6.0], [2.0, 4.0, 6.0]])
        occ = np.array([[1e-9, 1e-9, 1e-9], [0.01, 0.0, 0.0]])
        sem = np.full((2, 3, 2), 0.5)
        _, w, mass_eff, guarded, depth, sem_r = _composite(depths, occ, sem)
        assert guarded.tolist() == [True, False]
        assert mass_eff[0] == RENDER_EPS
        assert depth[0] == pytest.approx(1e-9 * (2 + 4 + 6) / RENDER_EPS, rel=1e-6)
        np.testing.assert_allclose(sem_r[0], 0.5 * w[0].sum() / RENDER_EPS)
        assert depth[1] == pytest.approx(2.0)
        np.testing.assert_allclose(sem_r[1], 0.5)

    def test_two_sample_closed_form(self):
        # opacities (0.5, 1.0) at depths (2, 4): weights (0.5, 0.5), depth 3;
        # opacities (0.5, 0.5): weights (0.5, 0.25), normalized by their mass
        depths = np.array([[2.0, 4.0], [2.0, 4.0]])
        occ = np.array([[0.5, 1.0], [0.5, 0.5]])
        sem = np.array([[[1.0, 0.0], [0.0, 1.0]]] * 2)
        trans, w, mass_eff, _, depth, sem_r = _composite(depths, occ, sem)
        np.testing.assert_array_equal(trans, [[1.0, 0.5, 0.0], [1.0, 0.5, 0.25]])
        np.testing.assert_array_equal(w, [[0.5, 0.5], [0.5, 0.25]])
        np.testing.assert_array_equal(mass_eff, [1.0, 0.75])
        assert depth[0] == 3.0
        assert depth[1] == pytest.approx((0.5 * 2 + 0.25 * 4) / 0.75)
        np.testing.assert_allclose(sem_r, [[0.5, 0.5], [2 / 3, 1 / 3]])


class TestRenderingBaseline:
    @pytest.mark.parametrize("importance, occ_bias", [(0, 0.0), (1, 0.0), (16, 0.0), (16, 6.0)])
    def test_matches_the_step_that_evaluates_coarse_samples_twice(self, importance, occ_bias):
        rng = np.random.default_rng(21)
        rays = _random_rays(rng)
        cfg = TrainConfig(total_steps=4, batch_size=24, warmup_steps=2, seed=5,
                          render_near=0.5, render_far=20.0, render_coarse=12,
                          render_importance=importance)
        models = []
        for _ in range(2):
            model = _randomize(_small_model(seed=2), np.random.default_rng(22))
            model.layers[-1][1][0] += occ_bias  # near-opaque first samples: d_pred ~ render_near
            models.append(model)
        ref, ref_hist, ties = _reference_rendering(models[0], rays, cfg)
        got, got_hist = train_rendering_baseline(models[1], rays, cfg)
        assert got_hist == ref_hist
        for p1, p2 in zip(ref.parameters(), got.parameters()):
            np.testing.assert_array_equal(p2, p1)
        if occ_bias:
            assert ties > 0  # importance depths clipped onto the first coarse depth

    def test_step_after_the_first_allocates_less_than_two_activations(self, monkeypatch):
        rays, width = _random_rays(np.random.default_rng(23)), 160
        cfg = TrainConfig(total_steps=3, batch_size=64, warmup_steps=1, seed=0,
                          render_far=20.0, render_coarse=48, render_importance=16)
        model = init_field_model(ContractionParams(10.0, 0.8), n_classes=3, grid_size=8,
                                 hidden_width=width, hidden_layers=4)
        step, memory = field_module._AdamW.step, []

        def traced_step(opt, grads, step_index):
            step(opt, grads, step_index)
            memory.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()

        monkeypatch.setattr(field_module._AdamW, "step", traced_step)
        tracemalloc.start()
        try:
            train_rendering_baseline(model, rays, cfg)
        finally:
            tracemalloc.stop()
        activation = 64 * (48 + 16) * width * 8
        (after_first, _), (_, peak_second), (_, peak_third) = memory
        # about 0.66: the encoding's temporaries; a gather through a buffered
        # np.take reaches 1.0, and the step that allocated its cache about 9
        assert max(peak_second, peak_third) - after_first < activation


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(14)
        model = _randomize(_small_model(), rng)
        buf = io.BytesIO()
        write_field_model(model, buf)
        back = read_field_model(io.BytesIO(buf.getvalue()))
        q = _random_batch(rng, 20).queries
        a = forward_batch(model, q)
        b = forward_batch(back, q)
        # parameters cross the float32 file format
        np.testing.assert_allclose(a[0], b[0], atol=1e-4)
        np.testing.assert_allclose(a[1], b[1], atol=1e-4)

    def test_write_is_deterministic(self):
        model = _randomize(_small_model(), np.random.default_rng(15))
        b1, b2 = io.BytesIO(), io.BytesIO()
        write_field_model(model, b1)
        write_field_model(model, b2)
        assert b1.getvalue() == b2.getvalue()


class TestClassWeights:
    def test_log_frequency_normalized_to_mean_one(self):
        w = log_frequency_weights(np.array([0.9, 0.09, 0.01]))
        assert w.mean() == pytest.approx(1.0)
        assert w[2] > w[1] > w[0] > 0

    def test_single_class_degenerate(self):
        np.testing.assert_array_equal(log_frequency_weights(np.array([1.0])), [1.0])
