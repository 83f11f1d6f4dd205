"""Grid/parametric inference, animation, interpolation, and alignment tests."""

from dataclasses import replace

import numpy as np
import pytest

from patchflow.core import (
    DisplacementField,
    DisplacementGrid,
    Encoder,
    MixedMotion,
    ParametricMotion,
    VectorField,
    _PolynomialObjective,
    _smoothness_value_grad,
    decode,
    encode,
    eval_positions,
    support_offsets,
)
from patchflow.datagen import synthetic_textures, warp
from patchflow.inference import (
    STOP_REASONS,
    InferConfig,
    _candidate_order,
    _newton_steps,
    _NewtonSystem,
    _positive_definite,
    animate,
    infer_pairs,
    infer_positions,
    interpolate_frames,
    write_field,
)
from patchflow.errors import ShapeError

from matrix_form import (
    ZeroSupportTable,
    align_recurrent,
    coeff_products,
    descent_alone,
    estimate_velocity,
    grid_alone,
    grid_scores,
    stack_scores,
    taylor_terms,
)


def orthonormal_encoder(p, stride, rng):
    q, _ = np.linalg.qr(rng.standard_normal((p * p, p * p)))
    return Encoder(q.T.reshape(p * p // 2, 2, p * p), p, stride)


def identity_model(grid, k, d, off_scale=2.0):
    """Identity at delta=0, scaled identity elsewhere (strictly worse there)."""
    m = ZeroSupportTable.identity(grid, k, d).matrices[:, 0].copy()
    zero = grid.index_of((0.0, 0.0))
    m *= off_scale
    m[zero] = np.eye(d)
    return ZeroSupportTable(grid, m)


class TestInferGrid:
    def test_identical_frames_zero_field(self):
        rng = np.random.default_rng(1)
        enc = Encoder.random(4, 2, 8, 4, rng=rng)
        img = rng.random((40, 40))
        grid = DisplacementGrid(-2, 2, 0.5)
        model = identity_model(grid, 4, 2)
        fld = grid_alone(enc, model, img, img, InferConfig(margin=8))
        assert np.all(fld.vectors == 0)

    def test_matches_exhaustive_loop_oracle(self):
        rng = np.random.default_rng(2)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        img_t = rng.random((28, 28))
        img_t1 = rng.random((28, 28))
        grid = DisplacementGrid(-1, 1, 0.5)
        model = ZeroSupportTable(
            grid, np.eye(2) + 0.3 * rng.standard_normal((grid.num_candidates, 3, 2, 2))
        )
        fld = grid_alone(enc, model, img_t, img_t1, InferConfig(margin=4))
        cands = grid.candidates()
        mags = np.sum(cands * cands, axis=1)
        for n, pos in enumerate(fld.positions):
            v0 = encode(enc, img_t, pos[None]).vectors[0]
            v1 = encode(enc, img_t1, pos[None]).vectors[0]
            best, best_key = None, None
            for c in range(grid.num_candidates):
                r = v1 - np.einsum("kde,ke->kd", model.matrices[c, 0], v0)
                key = (float(np.sum(r * r)), mags[c], cands[c, 0], cands[c, 1])
                if best_key is None or key < best_key:
                    best, best_key = c, key
            np.testing.assert_array_equal(fld.vectors[n], cands[best])

    def test_tie_break_prefers_smallest_norm(self):
        # all-equal matrices on identical frames: every candidate ties at zero
        rng = np.random.default_rng(3)
        enc = Encoder.random(2, 2, 8, 8, rng=rng)
        img = rng.random((32, 32))
        grid = DisplacementGrid(-1, 1, 1.0)
        model = ZeroSupportTable.identity(grid, 2, 2)
        fld = grid_alone(enc, model, img, img)
        assert np.all(fld.vectors == 0)

    def test_mixed_positions_inset(self):
        rng = np.random.default_rng(4)
        enc = Encoder.random(2, 2, 8, 4, rng=rng)
        grid = DisplacementGrid(-1, 1, 1.0)
        off = support_offsets(4, 2)
        model = MixedMotion.identity(grid, off, 2, 2)
        pos = infer_positions(enc, model, (40, 40), margin=0)
        assert pos[:, 0].min() >= 8  # patch half-width 4 plus support 4

    def test_residual_at_choice_is_minimal(self):
        rng = np.random.default_rng(6)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        img_t = rng.random((24, 24))
        img_t1 = warp(img_t, np.full((24, 24, 2), 0.7))
        grid = DisplacementGrid(-1, 1, 0.5)
        model = ZeroSupportTable(
            grid, np.eye(2) + 0.1 * rng.standard_normal((grid.num_candidates, 3, 2, 2))
        )
        fld = grid_alone(enc, model, img_t, img_t1, InferConfig(margin=4))
        for n, pos in enumerate(fld.positions):
            v0 = encode(enc, img_t, pos[None]).vectors[0]
            v1 = encode(enc, img_t1, pos[None]).vectors[0]
            ci = grid.index_of(fld.vectors[n])
            r = v1 - np.einsum("kde,ke->kd", model.matrices[ci, 0], v0)
            chosen = float(np.sum(r * r))
            for c in range(grid.num_candidates):
                r2 = v1 - np.einsum("kde,ke->kd", model.matrices[c, 0], v0)
                assert chosen <= float(np.sum(r2 * r2)) + 1e-12


def random_table(variant, grid, k, d, rng):
    """A nonparametric or mixed table of random matrices near the identity."""
    if variant == "nonparametric":
        return ZeroSupportTable(grid, np.eye(d) + 0.3 * rng.standard_normal((grid.num_candidates, k, d, d)))
    off = support_offsets(2, 2)
    return MixedMotion(grid, off, 0.3 * rng.standard_normal((grid.num_candidates, len(off), k, d, d)))


class TestBlockwiseScores:
    """Grid scores, reduced one sub-vector block at a time, against the whole
    prediction reduced in its layout (`matrix_form.grid_scores`), bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_scores_equal_the_whole_prediction_reduced(self, variant, clamp, d):
        rng = np.random.default_rng(50 + d)
        enc = Encoder.random(3, d, 8, 4, rng=rng)
        model = random_table(variant, DisplacementGrid(-1, 1, 0.5), 3, d, rng)
        img_t, img_t1 = rng.random((2, 28, 28))
        # clamped, as interpolation scores it: the full lattice, supports clipped at the border
        pos = enc.grid.positions(28, 28) if clamp else eval_positions(enc, model, (28, 28))
        v1 = encode(enc, img_t1, pos).vectors
        scores = stack_scores(enc, model, img_t[None], v1[None], pos, clamp)[0]
        assert scores.shape == (len(pos), model.grid.num_candidates)
        assert np.array_equal(scores, grid_scores(enc, model, img_t, v1, pos, clamp))

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_stacks_of_two_frame_sizes_score_each_pair_alone(self, variant):
        rng = np.random.default_rng(53)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        model = random_table(variant, DisplacementGrid(-1, 1, 0.5), 3, 2, rng)
        order = _candidate_order(model.grid)
        for shape in ((24, 24), (36, 28)):
            imgs_t = rng.random((3,) + shape)
            imgs_t1 = np.stack([warp(imgs_t[0], np.full(shape + (2,), 0.5)), imgs_t[1], rng.random(shape)])
            positions, fields, _ = infer_pairs(enc, model, list(zip(imgs_t, imgs_t1)), InferConfig(margin=4))
            pos = positions[0]
            targets = np.stack([encode(enc, img, pos).vectors for img in imgs_t1])
            for i, scores in enumerate(stack_scores(enc, model, imgs_t, targets, pos)):
                want = grid_scores(enc, model, imgs_t[i], targets[i], pos)
                assert np.array_equal(scores, want), (shape, i)
                choice = order[np.argmin(want[:, order], axis=1)]
                assert np.array_equal(fields[i], model.grid.candidates()[choice])
                alone = grid_alone(enc, model, imgs_t[i], imgs_t1[i], InferConfig(margin=4))
                assert np.array_equal(alone.positions, pos) and np.array_equal(alone.vectors, fields[i])

    def test_tie_break_order_is_computed_once_per_grid(self):
        grid = DisplacementGrid(-1, 1, 0.5)
        order = _candidate_order(grid)
        assert _candidate_order(DisplacementGrid(-1, 1, 0.5)) is order and not order.flags.writeable


class TestInferParametric:
    def make_pair(self, seed=7, shape=(48, 48)):
        rng = np.random.default_rng(seed)
        enc = Encoder.random(4, 2, 8, 4, rng=rng)
        model = ParametricMotion(0.05 * rng.standard_normal((5, 4, 2, 2)))
        img = synthetic_textures(1, shape, seed=seed)[0]
        return enc, model, img

    def test_identical_frames_zero_init_stays_zero(self):
        enc, model, img = self.make_pair()
        cfg = InferConfig(smoothness_weight=0.0, init="zeros")
        fld, _ = descent_alone(enc, model, img, img, cfg)
        assert np.all(fld.vectors == 0)

    def test_objective_prefix_monotone(self):
        enc, model, img = self.make_pair(8)
        img2 = warp(img, np.full(img.shape + (2,), 0.8))
        values = []
        for iters in (1, 3, 6, 12):
            cfg = InferConfig(init="zeros", max_iters=iters, smoothness_weight=0.1)
            fld, _ = descent_alone(enc, model, img, img2, cfg)
            # evaluate the descent objective at the returned field
            from patchflow.core import _smoothness_value_grad

            pos = fld.positions
            v0 = encode(enc, img, pos).vectors
            v1 = encode(enc, img2, pos).vectors
            m, _, _ = taylor_terms(model, fld.vectors)
            r = v1 - np.einsum("nkde,nke->nkd", m, v0)
            ny, nx = len(np.unique(pos[:, 0])), len(np.unique(pos[:, 1]))
            sval, _ = _smoothness_value_grad(fld.vectors, (ny, nx))
            values.append(float(np.sum(r * r)) + 0.1 * sval)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_large_smoothness_flattens_field(self):
        enc, model, img = self.make_pair(9)
        ctrl = np.random.default_rng(10).uniform(-1.5, 1.5, (3, 3, 2))
        from patchflow.datagen import interpolate_field

        img2 = warp(img, interpolate_field(ctrl, img.shape, -2, 2))
        variances = []
        for lam in (0.0, 5.0, 500.0):
            cfg = InferConfig(init="zeros", smoothness_weight=lam, max_iters=150, rng_seed=11)
            fld, _ = descent_alone(enc, model, img, img2, cfg)
            variances.append(float(np.var(fld.vectors, axis=0).sum()))
        assert variances[1] <= variances[0] + 1e-9
        assert variances[2] <= variances[1] + 1e-9

    def test_random_init_is_seeded(self):
        enc, model, img = self.make_pair(12)
        img2 = warp(img, np.full(img.shape + (2,), -0.4))
        cfg = InferConfig(init="random", rng_seed=13, max_iters=5)
        a, _ = descent_alone(enc, model, img, img2, cfg)
        b, _ = descent_alone(enc, model, img, img2, cfg)
        assert np.array_equal(a.vectors, b.vectors)


def lattice_laplacian(grid_shape):
    """Dense graph Laplacian L of the 4-neighbour lattice, (N, N)."""
    ny, nx = grid_shape
    idx = np.arange(ny * nx).reshape(ny, nx)
    a = np.concatenate([idx[1:, :].ravel(), idx[:, 1:].ravel()])
    b = np.concatenate([idx[:-1, :].ravel(), idx[:, :-1].ravel()])
    lap = np.zeros((ny * nx, ny * nx))
    lap[a, b] = lap[b, a] = -1.0
    lap[np.diag_indices_from(lap)] = -lap.sum(axis=1)
    return lap


def descent_objective(enc, model, img, img2, field, lam):
    """The descent objective at ``field`` in matrix form, from ``taylor_terms``."""
    pos = field.positions
    v0 = encode(enc, img, pos).vectors
    v1 = encode(enc, img2, pos).vectors
    m, _, _ = taylor_terms(model, field.vectors)
    r = v1 - np.einsum("nkde,nke->nkd", m, v0)
    ny, nx = len(np.unique(pos[:, 0])), len(np.unique(pos[:, 1]))
    return float(np.sum(r * r)) + lam * _smoothness_value_grad(field.vectors, (ny, nx))[0]


class TestPolynomialObjective:
    """The polynomial residual against the matrix form and finite differences."""

    LAM = 0.3
    GRID = (3, 4)

    def setup_method(self):
        rng = np.random.default_rng(40)
        k, d = 3, 2
        n = self.GRID[0] * self.GRID[1]
        self.model = ParametricMotion(0.3 * rng.standard_normal((5, k, d, d)))
        self.v0 = rng.standard_normal((n, k, d))
        self.v1 = rng.standard_normal((n, k, d))
        self.deltas = rng.uniform(-1.5, 1.5, (n, 2))
        self.obj = _PolynomialObjective(self.model.coeffs, self.v0, self.v1, self.LAM, self.GRID)

    def reference(self, deltas):
        """Value, gradient and per-position residual Hessians from the matrix
        form M(delta), its first derivatives and its constant second ones."""
        m, dm1, dm2 = taylor_terms(self.model, deltas)
        r = self.v1 - np.einsum("nkde,nke->nkd", m, self.v0)
        p = [np.einsum("nkde,nke->nkd", dm, self.v0) for dm in (dm1, dm2)]
        _, _, b11, b22, b12 = self.model.coeffs
        second = [[2.0 * b11, b12], [b12, 2.0 * b22]]  # d^2 M / d delta_a d delta_b
        sval, sgrad = _smoothness_value_grad(deltas, self.GRID)
        grad = -2.0 * np.stack([np.sum(r * pa, axis=(1, 2)) for pa in p], axis=1)
        hess = np.empty((len(deltas), 2, 2))
        for a in range(2):
            for b in range(2):
                q = np.einsum("kde,nke->nkd", second[a][b], self.v0)
                hess[:, a, b] = 2.0 * np.sum(p[a] * p[b] - r * q, axis=(1, 2))
        return float(np.sum(r * r)) + self.LAM * sval, grad + self.LAM * sgrad, hess

    def test_derivatives_match_matrix_form(self):
        value, r = self.obj.value(self.deltas)
        grad, hess = self.obj.derivatives(self.deltas, r)
        ref_value, ref_grad, ref_hess = self.reference(self.deltas)
        assert value == pytest.approx(ref_value, rel=1e-10)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10 * np.abs(ref_grad).max())
        np.testing.assert_allclose(hess, ref_hess, rtol=1e-10, atol=1e-10 * np.abs(ref_hess).max())

    def test_derivatives_match_central_differences(self):
        h = 1e-5
        value, r = self.obj.value(self.deltas)
        grad, hess = self.obj.derivatives(self.deltas, r)
        n = len(self.deltas)
        fd_grad = np.zeros((n, 2))
        fd_hess = np.zeros((n, 2, 2))
        for i in range(n):
            for a in range(2):
                step = np.zeros((n, 2))
                step[i, a] = h
                fd_grad[i, a] = (self.obj.value(self.deltas + step)[0] - self.obj.value(self.deltas - step)[0]) / (2 * h)
                # the residual part of the Hessian: the gradient less its smoothness term
                up = self.obj.derivatives(self.deltas + step, self.obj.value(self.deltas + step)[1])[0]
                down = self.obj.derivatives(self.deltas - step, self.obj.value(self.deltas - step)[1])[0]
                smooth = self.LAM * (
                    _smoothness_value_grad(self.deltas + step, self.GRID)[1]
                    - _smoothness_value_grad(self.deltas - step, self.GRID)[1]
                )
                fd_hess[i, :, a] = (up - down - smooth)[i] / (2 * h)
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-6, atol=1e-7)

    def test_laplacian_is_the_smoothness_hessian(self):
        # the smoothness energy is quadratic: its gradient is 2 (L (x) I_2) delta
        lap = np.kron(lattice_laplacian(self.GRID), np.eye(2))
        want = _smoothness_value_grad(self.deltas, self.GRID)[1].ravel()
        np.testing.assert_allclose(2.0 * lap @ self.deltas.ravel(), want, atol=1e-12)


    def test_gradient_alone_skips_the_hessian(self):
        _, r = self.obj.value(self.deltas)
        grad, hess = self.obj.derivatives(self.deltas, r)
        grad_only, none = self.obj.derivatives(self.deltas, r, hessian=False)
        assert none is None
        assert np.array_equal(grad_only, grad)


class TestCoefficientProducts:
    """The set-up's products u_j = B_j v0 against the einsum they replace."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("pairs", [1, 12, 32])
    def test_equal_einsum_bit_for_bit(self, pairs, d):
        # d = 8 is past the block sizes the products sum for, and takes the einsum itself
        rng = np.random.default_rng(60 + d)
        k, n = 4, 20
        coeffs = 0.3 * rng.standard_normal((5, k, d, d))
        coeffs[0, 0] = 0.0  # zero coefficients against negative entries: products of -0
        v0 = rng.standard_normal((pairs, n, k, d))
        v0[:, 0, 0] = -1.0
        v1 = rng.standard_normal((pairs, n, k, d))
        for a0, a1 in ((v0, v1), (v0[0], v1[0])):  # a stack, and one pair without the stack axis
            u = _PolynomialObjective(coeffs, a0, a1, 0.05, (4, 5)).u
            want = coeff_products(coeffs, a0)
            assert u.flags.c_contiguous
            assert u.shape == want.shape
            assert np.array_equal(u.view(np.int64), want.view(np.int64))  # the signs of zeros too


class TestNewtonSystem:
    """Elimination over the lattice rows against one dense solve."""

    @staticmethod
    def dense(hess, lam, grid_shape, mu):
        full = np.kron(2.0 * lam * lattice_laplacian(grid_shape), np.eye(2))
        for i, h in enumerate(hess):
            full[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] += h
        return full + mu * np.eye(len(full))

    @pytest.mark.parametrize("grid_shape", [(1, 1), (1, 5), (5, 1), (3, 4), (6, 6)])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_solve_matches_dense(self, grid_shape, lam):
        rng = np.random.default_rng(41)
        n = grid_shape[0] * grid_shape[1]
        a = rng.standard_normal((n, 2, 2))
        hess = a @ np.swapaxes(a, 1, 2) - 0.2 * np.eye(2)  # some blocks indefinite
        hess[-1] = -0.5 * np.eye(2)  # negative definite, with a positive determinant
        first_row_fails = hess.copy()
        first_row_fails[0] = -5.0 * np.eye(2)
        grad = rng.standard_normal((n, 2))
        # one stack: the pair at four dampings, and a pair that fails in the first lattice row
        stack = np.stack([hess] * 4 + [first_row_fails])
        mus = np.array([0.0, 0.1, 1.0, 10.0, 1.0])
        grads = np.stack([grad] * 4 + [-grad])
        system = _NewtonSystem(stack, lam, grid_shape)
        solved, steps = system.solve(mus, grads, np.arange(len(stack)))
        assert len(steps) == solved.sum()
        for p, step in zip(np.flatnonzero(solved), steps):
            full = self.dense(stack[p], lam, grid_shape, mus[p])
            want = np.linalg.solve(full, -grads[p].ravel()).reshape(n, 2)
            np.testing.assert_allclose(step, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())
        for p in range(len(stack)):
            definite = np.linalg.eigvalsh(self.dense(stack[p], lam, grid_shape, mus[p])).min() > 0
            assert solved[p] == definite
            # the pair alone, and as part of a sub-stack of the system, gets the same bits
            alone = _NewtonSystem(stack[p : p + 1], lam, grid_shape).solve(mus[p : p + 1], grads[p : p + 1], np.arange(1))
            part = system.solve(mus[[p, 0]], grads[[p, 0]], np.array([p, 0]))
            assert alone[0][0] == part[0][0] == definite
            if definite:
                want = steps[solved[:p].sum()]
                assert np.array_equal(alone[1][0], want) and np.array_equal(part[1][0], want)
        assert not solved.all() and solved.any()

    def test_positive_definite_bisects_a_failing_stack(self, monkeypatch):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((64, 6, 6))
        matrices = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(6)
        matrices[17] -= 50.0 * np.eye(6)  # negative definite
        matrices[40, 0, 0] = -1.0  # indefinite
        want = []
        for m in matrices:
            try:
                np.linalg.cholesky(m)
                want.append(True)
            except np.linalg.LinAlgError:
                want.append(False)
        calls = []
        cholesky = np.linalg.cholesky

        def counted(m):
            calls.append(len(m))
            return cholesky(m)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        definite = _positive_definite(matrices)
        assert definite.tolist() == want and want.count(False) == 2
        assert len(calls) <= 25  # testing each matrix alone after the stack takes 65
        calls.clear()
        assert _positive_definite(matrices[:17]).all() and calls == [17]

    def test_null_step_when_converged_to_rounding(self):
        rng = np.random.default_rng(42)
        obj = _PolynomialObjective(
            0.3 * rng.standard_normal((5, 3, 2, 2)), rng.standard_normal((2, 6, 3, 2)),
            rng.standard_normal((2, 6, 3, 2)), 0.3, (2, 3),
        )
        deltas = rng.uniform(-1, 1, (2, 6, 2))
        _, r = obj.value(deltas)
        grad, hess = obj.derivatives(deltas, r)
        unbeatable = np.full(2, -np.inf)  # a value nothing can undercut: no damped step descends
        stepped, step, kept, kept_r = _newton_steps(obj, deltas, unbeatable, r, grad, hess, np.zeros(2), tol=1e3)
        assert stepped.all() and not step.any() and np.all(kept == -np.inf) and np.array_equal(kept_r, r)
        mu = np.zeros(2)
        assert not _newton_steps(obj, deltas, unbeatable, r, grad, hess, mu, tol=0.0)[0].any()
        assert np.all(mu > 0)  # raised on every failed damping


class TestNewtonDescent:
    """Damped Newton steps against backtracking gradient steps on seeded pairs."""

    LAM = 0.05

    def pair(self, seed, shape=(48, 48)):
        rng = np.random.default_rng(seed)
        enc = Encoder.random(4, 2, 8, 4, rng=rng)
        model = ParametricMotion(0.05 * rng.standard_normal((5, 4, 2, 2)))
        img = synthetic_textures(1, shape, seed=seed)[0]
        from patchflow.datagen import interpolate_field

        img2 = warp(img, interpolate_field(rng.uniform(-1, 1, (3, 3, 2)), img.shape, -2, 2))
        return enc, model, img, img2

    @pytest.mark.parametrize("seed", range(6))
    def test_newton_stops_on_tol_no_worse_than_gradient_cap(self, seed):
        enc, model, img, img2 = self.pair(seed)
        cfg = InferConfig(init="zeros", smoothness_weight=self.LAM, max_iters=200)
        newton, (iters, reason) = descent_alone(enc, model, img, img2, cfg)
        gradient, _ = descent_alone(enc, model, img, img2, cfg, newton=False)
        assert reason == "tol" and iters <= 20  # a count, not a timing
        got = descent_objective(enc, model, img, img2, newton, self.LAM)
        assert got <= descent_objective(enc, model, img, img2, gradient, self.LAM)

    def test_large_lattice_memory_grows_with_rows_not_positions_squared(self):
        # 784 positions: one dense (2N)^2 matrix would take 19.7 MB; the
        # elimination keeps two (ny, 2 nx, 2 nx) arrays of 0.7 MB each
        import tracemalloc

        enc, model, img, img2 = self.pair(1, shape=(128, 128))
        cfg = InferConfig(init="zeros", smoothness_weight=self.LAM)
        tracemalloc.start()
        try:
            fld, stop = descent_alone(enc, model, img, img2, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fld.positions) == 784
        assert stop[1] == "tol"
        assert peak < 8 * 2**20

    def test_stop_reasons(self):
        enc, model, img, img2 = self.pair(0)
        stops = [
            descent_alone(enc, model, img, img, InferConfig(init="zeros"))[1],
            descent_alone(enc, model, img, img2, InferConfig(init="zeros", max_iters=1), newton=False)[1],
        ]
        assert stops == [(0, "no_descent"), (1, "cap")]
        assert {reason for _, reason in stops} < set(STOP_REASONS)


def reference_gradient_step(objective, deltas, value, grad, step_size):
    """One pair's backtracking gradient step, (step, value, residual), or None."""
    if not grad.any():
        return None
    step = step_size
    for _ in range(40):
        s = -step * grad
        trial_value, trial_r = objective.value(deltas + s)
        if trial_value < value:
            return s, trial_value, trial_r
        step *= 0.5
    return None


def reference_descent(objective, deltas, config, newton=False):
    """One pair's descent, as it ran before pairs were stacked: backtracking
    gradient steps, or damped Newton steps with gradient steps as the fallback."""
    value, r = objective.value(deltas)
    mu = 0.0
    for it in range(config.max_iters):
        grad, hess = objective.derivatives(deltas, r, hessian=newton)
        accepted = None
        if newton and grad.any():
            accepted, mu = reference_newton_step(objective, deltas, value, r, grad, hess, mu, config.tol)
        if accepted is None:
            accepted = reference_gradient_step(objective, deltas, value, grad, config.step_size)
        if accepted is None:
            return deltas, it, "no_descent"
        s, value, r = accepted
        mean_update = float(np.mean(np.linalg.norm(s, axis=1)))
        deltas = deltas + s
        if mean_update < config.tol:
            return deltas, it + 1, "tol"
    return deltas, config.max_iters, "cap"


def reference_newton_step(objective, deltas, value, r, grad, hess, mu, tol):
    """One pair's damped Newton step: ((step, value, residual) or None, next mu)."""
    lam, grid_shape = objective.lam, objective.grid_shape
    if lam == 0:
        diag = hess[:, [0, 1], [0, 1]]
    else:
        blocks = reference_newton_blocks(hess, lam, grid_shape)
        k = np.arange(blocks.shape[1])
        diag = blocks[:, k, k]
    mu_floor = 1e-3 * float(np.mean(np.abs(diag)))
    for _ in range(12):
        s = reference_newton_solve(hess, lam, grid_shape, mu, grad)
        if s is not None:
            trial_value, trial_r = objective.value(deltas + s)
            if trial_value < value:
                return (s, trial_value, trial_r), mu / 3.0
            if np.mean(np.linalg.norm(s, axis=-1)) < tol:
                return (np.zeros_like(s), value, r), mu
        mu = max(4.0 * mu, mu_floor)
    return None, mu


def reference_newton_blocks(hess, lam, grid_shape):
    """The diagonal blocks (ny, 2 nx, 2 nx) of one pair's Newton matrix over the lattice rows."""
    ny, nx = grid_shape
    w = 2.0 * lam
    blocks = np.zeros((ny, 2 * nx, 2 * nx))
    for i in range(ny):
        for j in range(nx):
            blocks[i, 2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = hess[i * nx + j]
            degree = (i > 0) + (i < ny - 1) + (j > 0) + (j < nx - 1)
            blocks[i, 2 * j, 2 * j] += w * degree
            blocks[i, 2 * j + 1, 2 * j + 1] += w * degree
            if j:
                for a in (0, 1):
                    blocks[i, 2 * j + a, 2 * j - 2 + a] = blocks[i, 2 * j - 2 + a, 2 * j + a] = -w
    return blocks


def reference_newton_solve(hess, lam, grid_shape, mu, grad):
    """One pair's damped Newton solve: closed-form 2x2 systems without smoothness,
    else block elimination over the lattice rows with one Cholesky test and one
    inverse per row; None when the damped matrix is not positive definite."""
    if lam == 0:
        a = hess[:, 0, 0] + mu
        b = hess[:, 0, 1]
        c = hess[:, 1, 1] + mu
        det = a * c - b * b
        if not (np.all(a > 0) and np.all(det > 0)):
            return None
        g1, g2 = grad[:, 0], grad[:, 1]
        return np.stack([b * g2 - c * g1, b * g1 - a * g2], axis=1) / det[:, None]
    w = 2.0 * lam
    blocks = reference_newton_blocks(hess, lam, grid_shape)
    ny, m = blocks.shape[:2]
    y = -grad.reshape(ny, m)
    inv = np.empty_like(blocks)
    for i in range(ny):
        pivot = blocks[i] + mu * np.eye(m)
        if i:
            pivot -= w * w * inv[i - 1]
            y[i] += w * (inv[i - 1] @ y[i - 1])
        try:
            np.linalg.cholesky(pivot)
        except np.linalg.LinAlgError:
            return None
        inv[i] = np.linalg.inv(pivot)
    s = np.empty_like(y)
    s[-1] = inv[-1] @ y[-1]
    for i in range(ny - 2, -1, -1):
        s[i] = inv[i] @ (y[i] + w * s[i + 1])
    return s.reshape(-1, 2)


class TestStackedDescent:
    """A stack of pairs descends each pair exactly as that pair's own descent."""

    SHIFTS = (0.0, 0.2, 0.5, 1.0, 1.5, -0.8)  # the first pair is two identical frames

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(50)
        enc = Encoder.random(3, 2, 8, 8, rng=rng)
        model = ParametricMotion(0.3 * rng.standard_normal((5, 3, 2, 2)))
        imgs = synthetic_textures(len(self.SHIFTS), (32, 32), seed=51)
        frames_t1 = [warp(img, np.full(img.shape + (2,), shift)) if shift else img for img, shift in zip(imgs, self.SHIFTS)]
        return enc, model, np.stack(imgs), np.stack(frames_t1)

    # (smoothness, tol, iteration cap, step size, start) of each stack; every
    # stack mixes stop reasons and iteration counts, together they stop on all
    # three, and at step size 2 several pairs backtrack in the same iteration
    CASES = {
        "smooth_tol": (0.3, 1e-3, 80, 2.0, "zeros"),
        "rough_tol_and_cap": (0.0, 1e-5, 60, 2.0, "zeros"),
        "rounding_and_cap": (0.0, 0.0, 400, 0.25, "zeros"),
        "smooth_rounding": (0.3, 0.0, 400, 2.0, "warm"),
        "warm_tol_and_cap": (0.0, 3e-4, 40, 0.25, "warm"),
    }

    def run(self, problem, case):
        lam, tol, cap, step, start = self.CASES[case]
        cfg = InferConfig(margin=0, smoothness_weight=lam, step_size=step, max_iters=cap, tol=tol, init="zeros")
        starts = self.starts(problem, cfg, start)
        return cfg, starts, self.descend(problem, cfg, newton=False, starts=starts)

    @staticmethod
    def descend(problem, cfg, newton, starts=None):
        """The descent of the problem's pairs, one stack in `infer_pairs`:
        (positions (N, 2), fields (P, N, 2), iterations (P,), stop reasons (P,))."""
        enc, model, frames_t, frames_t1 = problem
        positions, fields, stops = infer_pairs(enc, model, list(zip(frames_t, frames_t1)), cfg, newton, starts)
        iters, reasons = zip(*stops)
        return positions[0], np.stack(fields), np.array(iters), np.array(reasons, dtype=object)

    @classmethod
    def starts(cls, problem, cfg, start):
        """The starts of a stack: None for zeros; else a few steps of a rougher
        descent, the identical pair's start off zero."""
        if start != "warm":
            return None
        fields = cls.descend(problem, replace(cfg, smoothness_weight=0.0, max_iters=3), newton=False)[1]
        fields[0] += 0.3
        return fields

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stack_matches_each_pair_alone(self, problem, case):
        enc, model, frames_t, frames_t1 = problem
        cfg, starts, (pos, fields, iters, reasons) = self.run(problem, case)
        grid_shape = tuple(len(np.unique(pos[:, i])) for i in (0, 1))
        starts = np.zeros_like(fields) if starts is None else starts
        for i, (a, b) in enumerate(zip(frames_t, frames_t1)):
            alone = _PolynomialObjective(
                model.coeffs, encode(enc, a, pos).vectors, encode(enc, b, pos).vectors,
                cfg.smoothness_weight, grid_shape,
            )
            want, want_iters, want_reason = reference_descent(alone, starts[i], cfg)
            assert np.array_equal(fields[i], want)
            assert (iters[i], reasons[i]) == (want_iters, want_reason)
            one, stop = descent_alone(enc, model, a, b, cfg, newton=False, start=starts[i])
            assert np.array_equal(one.vectors, want) and stop == (want_iters, want_reason)
        assert len(set(iters.tolist())) > 2  # pairs leave the stack at different iterations

    def test_cases_stop_on_every_reason(self, problem):
        seen = set()
        for case in self.CASES:
            _, _, (_, _, iters, reasons) = self.run(problem, case)
            seen |= {(reason, it > 0) for it, reason in zip(iters, reasons)}
        assert {("tol", True), ("cap", True), ("no_descent", False), ("no_descent", True)} <= seen

    # (smoothness, tol, iteration cap, start) of each Newton stack; at tol 0 pairs
    # descend to rounding, where no damped step descends and gradient steps take over
    NEWTON_CASES = {
        "smooth_tol": (0.3, 1e-3, 40, "zeros"),
        "rough_rounding": (0.0, 0.0, 40, "zeros"),
        "smooth_rounding": (0.3, 0.0, 40, "warm"),
        "rough_tol_and_cap": (0.0, 3e-4, 4, "warm"),
    }

    def test_newton_stack_matches_each_pair_alone(self, problem, monkeypatch):
        import patchflow.inference as inference

        enc, model, frames_t, frames_t1 = problem
        calls = []  # (step kind, pairs) of each call, in order

        def logged(kind, fn):
            def wrapper(objective, deltas, *args):
                calls.append((kind, len(deltas)))
                return fn(objective, deltas, *args)

            return wrapper

        monkeypatch.setattr(inference, "_newton_steps", logged("newton", inference._newton_steps))
        monkeypatch.setattr(inference, "_gradient_steps", logged("gradient", inference._gradient_steps))
        seen, mixed = set(), False
        for case, (lam, tol, cap, start) in self.NEWTON_CASES.items():
            cfg = InferConfig(margin=0, smoothness_weight=lam, max_iters=cap, tol=tol, init="zeros")
            starts = self.starts(problem, cfg, start)
            calls.clear()
            pos, fields, iters, reasons = self.descend(problem, cfg, newton=True, starts=starts)
            # a gradient fallback for some pairs of a Newton iteration, the rest stepping by Newton
            mixed |= any(a[0] == "newton" and b == ("gradient", b[1]) and b[1] < a[1] for a, b in zip(calls, calls[1:]))
            grid_shape = tuple(len(np.unique(pos[:, i])) for i in (0, 1))
            starts = np.zeros_like(fields) if starts is None else starts
            for i, (a, b) in enumerate(zip(frames_t, frames_t1)):
                alone = _PolynomialObjective(
                    model.coeffs, encode(enc, a, pos).vectors, encode(enc, b, pos).vectors, lam, grid_shape,
                )
                want, want_iters, want_reason = reference_descent(alone, starts[i], cfg, newton=True)
                assert np.array_equal(fields[i], want), (case, i)
                assert (iters[i], reasons[i]) == (want_iters, want_reason), (case, i)
                one, stop = descent_alone(enc, model, a, b, cfg, start=starts[i])
                assert np.array_equal(one.vectors, want) and stop == (want_iters, want_reason)
            seen |= {(lam > 0, reason) for reason in reasons}
            assert len(set(iters.tolist())) > 1, case  # pairs leave the stack at different iterations
            assert start == "warm" or (iters[0], reasons[0]) == (0, "no_descent")  # the identical frames
        assert mixed
        assert {(True, "tol"), (False, "tol"), (False, "cap"), (False, "no_descent"), (True, "no_descent")} <= seen


class TestInferPairs:
    """The driver from pairs of any frame sizes to their fields: each pair's
    result is its own stack of one, however the pairs are cut into stacks."""

    SHAPES = ((32, 32), (48, 40), (32, 32), (48, 40), (32, 32))

    @staticmethod
    def pairs(seed):
        rng = np.random.default_rng(seed)
        out = []
        for i, shape in enumerate(TestInferPairs.SHAPES):
            img = synthetic_textures(1, shape, seed=seed + i)[0]
            out.append((img, warp(img, np.full(shape + (2,), rng.uniform(-1, 1)))))
        return out

    @pytest.mark.parametrize("newton", [True, False])
    def test_starts_give_each_pairs_own_descent(self, monkeypatch, newton):
        import patchflow.inference as inference

        rng = np.random.default_rng(70)
        enc = Encoder.random(3, 2, 8, 8, rng=rng)
        model = ParametricMotion(0.3 * rng.standard_normal((5, 3, 2, 2)))
        pairs = self.pairs(71)
        cfg = InferConfig(margin=0, smoothness_weight=0.3, max_iters=30, tol=1e-3, init="zeros")
        starts = [rng.uniform(-1, 1, (len(infer_positions(enc, model, a.shape, 0)), 2)) for a, _ in pairs]
        alone = [descent_alone(enc, model, a, b, cfg, newton=newton, start=s) for (a, b), s in zip(pairs, starts)]
        zero_start = infer_pairs(enc, model, pairs, cfg, newton=newton)[1]
        for threads, budget in ((1, inference.NEWTON_STACK_BYTES), (2, inference.NEWTON_STACK_BYTES), (1, 1)):
            monkeypatch.setattr(inference, "NEWTON_STACK_BYTES", budget)  # 1 byte: every pair its own stack
            positions, fields, stops = infer_pairs(enc, model, pairs, cfg, newton=newton, starts=starts, threads=threads)
            for i, (fld, stop) in enumerate(alone):
                assert np.array_equal(positions[i], fld.positions), (threads, budget, i)
                assert np.array_equal(fields[i], fld.vectors), (threads, budget, i)
                assert stops[i] == stop, (threads, budget, i)
        assert len({stop for _, stop in alone}) > 1  # the pairs stop at different iterations
        assert not any(np.array_equal(a.vectors, z) for (a, _), z in zip(alone, zero_start))  # the starts count

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_table_models_score_each_pair_alone(self, monkeypatch, variant):
        import patchflow.inference as inference

        rng = np.random.default_rng(72)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        model = random_table(variant, DisplacementGrid(-1, 1, 0.5), 3, 2, rng)
        pairs = self.pairs(73)
        cfg = InferConfig(margin=4)
        alone = [grid_alone(enc, model, a, b, cfg) for a, b in pairs]
        for threads, budget in ((1, inference.CHUNK_BYTES), (3, inference.CHUNK_BYTES), (1, 1)):
            monkeypatch.setattr(inference, "CHUNK_BYTES", budget)  # 1 byte: every pair its own stack
            positions, fields, stops = infer_pairs(enc, model, pairs, cfg, threads=threads)
            assert stops == []
            for i, fld in enumerate(alone):
                assert np.array_equal(positions[i], fld.positions) and np.array_equal(fields[i], fld.vectors)

    def test_every_size_is_checked_before_any_stack(self, monkeypatch):
        import patchflow.inference as inference
        from patchflow.errors import ConfigError, DataFormatError

        enc = Encoder.random(2, 2, 8, 8, rng=74)
        model = ParametricMotion.zeros(2, 2)
        pairs = self.pairs(75)
        ran = []
        monkeypatch.setattr(inference, "_infer_stack", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(ConfigError, match="margin 13 leaves no evaluation position in a 32x32 frame"):
            infer_pairs(enc, model, pairs[1:], InferConfig(margin=13))  # the 48x40 frames, first, keep some
        with pytest.raises(DataFormatError):
            infer_pairs(enc, model, pairs + [(np.zeros((6, 40)), np.zeros((6, 40)))])
        with pytest.raises(ShapeError):
            infer_pairs(enc, model, pairs + [(np.zeros((32, 32)), np.zeros((40, 32)))])
        assert ran == []

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed", "parametric"])
    def test_each_stack_gathers_twice_on_its_sizes_lattice(self, monkeypatch, variant):
        import patchflow.inference as inference

        rng = np.random.default_rng(76)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        if variant == "parametric":
            model = ParametricMotion(0.3 * rng.standard_normal((5, 3, 2, 2)))
        else:
            model = random_table(variant, DisplacementGrid(-1, 1, 0.5), 3, 2, rng)
        calls = {"stacks": 0, "gathers": 0, "positions": 0, "lattices": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for key, name in (("stacks", "_infer_stack"), ("gathers", "offset_encodings"),
                          ("positions", "infer_positions"), ("lattices", "lattice_axes")):
            monkeypatch.setattr(inference, name, counted(key, getattr(inference, name)))
        for budget in ("NEWTON_STACK_BYTES", "CHUNK_BYTES"):
            monkeypatch.setattr(inference, budget, 1)  # 1 byte: every pair its own stack
        infer_pairs(enc, model, self.pairs(77), InferConfig(margin=4, max_iters=5))
        # five pairs of two sizes
        assert calls == {"stacks": 5, "gathers": 10, "positions": 2, "lattices": 2}


class TestAnimate:
    def test_empty_fields(self):
        enc = Encoder.random(2, 2, 8, 8, rng=14)
        grid = DisplacementGrid(-1, 1, 1.0)
        model = ZeroSupportTable.identity(grid, 2, 2)
        img = np.random.default_rng(15).random((24, 24))
        assert animate(enc, model, img, []) == []

    def test_zero_fields_reduce_to_iterated_autoencode(self):
        rng = np.random.default_rng(16)
        enc = orthonormal_encoder(8, 8, rng)  # tight frame, s = p
        grid = DisplacementGrid(-1, 1, 1.0)
        model = identity_model(grid, enc.num_blocks, 2)
        img = rng.random((32, 32))
        pos = enc.grid.positions(32, 32)
        zeros = [DisplacementField(pos, np.zeros((len(pos), 2)))] * 3
        frames = animate(enc, model, img, zeros)
        ref = img
        for frame in frames:
            ref = decode(enc, encode(enc, ref), img.shape)
            np.testing.assert_allclose(frame, ref, atol=1e-12)
        np.testing.assert_allclose(frames[-1], img, atol=1e-9)

    def test_mixed_animation_runs_full_lattice(self):
        rng = np.random.default_rng(18)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        grid = DisplacementGrid(-1, 1, 0.5)
        off = support_offsets(2, 2)
        model = MixedMotion.identity(grid, off, 3, 2)
        img = rng.random((24, 24))
        pos = enc.grid.positions(24, 24)
        frames = animate(enc, model, img, [DisplacementField(pos, np.zeros((len(pos), 2)))] * 2)
        assert all(f.shape == img.shape for f in frames)
        assert all(np.all(np.isfinite(f)) for f in frames)


    def test_field_on_a_coarser_lattice_fills_from_the_nearest_position(self):
        rng = np.random.default_rng(19)
        enc = Encoder.random(2, 2, 8, 4, rng=rng)
        model = ParametricMotion(0.2 * rng.standard_normal((5, 2, 2, 2)))
        img = rng.random((32, 32))
        rr, cc = np.meshgrid([8, 16, 24], [8, 16, 24], indexing="ij")
        coarse = DisplacementField(np.stack([rr.ravel(), cc.ravel()], axis=1), rng.uniform(-1, 1, (9, 2)))
        # reference: the first nearest position in row-major order, ties included
        full = enc.grid.positions(32, 32)
        d2 = ((full[:, None, :] - coarse.positions[None, :, :]) ** 2).sum(axis=2)
        filled = DisplacementField(full, coarse.vectors[np.argmin(d2, axis=1)])
        assert np.array_equal(animate(enc, model, img, [coarse])[0], animate(enc, model, img, [filled])[0])

    def test_margin_trimmed_field_at_512_fills_in_small_memory(self):
        # the fill of 4,096 lattice positions from a 3,844-position field takes
        # one argmin per axis, not an (N, M, 2) distance array (378 MB)
        import tracemalloc

        rng = np.random.default_rng(20)
        enc = Encoder.random(2, 2, 8, 8, rng=rng)
        model = ParametricMotion(0.1 * rng.standard_normal((5, 2, 2, 2)))
        img = rng.random((512, 512))
        pos = infer_positions(enc, model, img.shape, margin=8)
        fld = DisplacementField(pos, rng.uniform(-1, 1, (len(pos), 2)))
        tracemalloc.start()
        try:
            frames = animate(enc, model, img, [fld])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pos) == 3844 and frames[0].shape == (512, 512)
        assert peak < 16 * 2**20


class TestInterpolateFrames:
    def test_identical_endpoints_succeed_immediately(self):
        rng = np.random.default_rng(19)
        enc = Encoder.random(2, 2, 8, 8, rng=rng)
        grid = DisplacementGrid(-1, 1, 1.0)
        model = ZeroSupportTable.identity(grid, 2, 2)
        img = rng.random((24, 24))
        frames, ok = interpolate_frames(enc, model, img, img)
        assert ok and len(frames) == 1
        assert frames[0] is not None and np.array_equal(frames[0], img)

    def test_single_step_matches_selection_oracle(self):
        rng = np.random.default_rng(20)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        grid = DisplacementGrid(-1, 1, 1.0)
        model = ZeroSupportTable(
            grid, np.eye(2) + 0.25 * rng.standard_normal((grid.num_candidates, 3, 2, 2))
        )
        img0 = rng.random((24, 24))
        img1 = rng.random((24, 24))
        frames, _ = interpolate_frames(enc, model, img0, img1, max_steps=1, stop_thresh=0.0)
        pos = enc.grid.positions(24, 24)
        v_t = encode(enc, img1, pos).vectors
        v_0 = encode(enc, img0, pos).vectors
        cands = grid.candidates()
        mags = np.sum(cands * cands, axis=1)
        chosen = np.zeros((len(pos), 3, 2))
        for n in range(len(pos)):
            best_key, best_pred = None, None
            for c in range(grid.num_candidates):
                pred = np.einsum("kde,ke->kd", model.matrices[c, 0], v_0[n])
                r = v_t[n] - pred
                key = (float(np.sum(r * r)), mags[c], cands[c, 0], cands[c, 1])
                if best_key is None or key < best_key:
                    best_key, best_pred = key, pred
            chosen[n] = best_pred
        want = decode(enc, VectorField(pos, chosen), img0.shape)
        np.testing.assert_allclose(frames[1], want, atol=1e-12)

    @pytest.mark.parametrize("variant", ["nonparametric", "mixed"])
    def test_step_is_animate_along_the_grid_argmin(self, variant):
        # the argmin on the full lattice, supports clamped at the border, then animate's step
        rng = np.random.default_rng(23)
        enc = Encoder.random(3, 2, 8, 4, rng=rng)
        model = random_table(variant, DisplacementGrid(-1, 1, 0.5), 3, 2, rng)
        img0, img1 = rng.random((2, 28, 28))
        frames, _ = interpolate_frames(enc, model, img0, img1, max_steps=1, stop_thresh=0.0)
        pos = enc.grid.positions(28, 28)
        scores = grid_scores(enc, model, img0, encode(enc, img1, pos).vectors, pos, clamp=True)
        order = _candidate_order(model.grid)
        field = DisplacementField(pos, model.grid.candidates()[order[np.argmin(scores[:, order], axis=1)]])
        assert len(frames) == 2 and np.array_equal(frames[1], animate(enc, model, img0, [field])[0])

    def test_step_cap_reports_failure(self):
        rng = np.random.default_rng(21)
        enc = Encoder.random(2, 2, 8, 8, rng=rng)
        grid = DisplacementGrid(-1, 1, 1.0)
        model = ZeroSupportTable.identity(grid, 2, 2)
        img0 = np.zeros((24, 24))
        img1 = np.ones((24, 24))
        frames, ok = interpolate_frames(enc, model, img0, img1, max_steps=2)
        assert not ok and len(frames) == 3


class TestAlignment:
    def setup_method(self):
        rng = np.random.default_rng(22)
        self.rng = rng
        self.enc = Encoder.random(3, 2, 8, 4, rng=rng)
        self.grid = DisplacementGrid(-1, 1, 1.0)
        self.model = ZeroSupportTable(
            self.grid, np.eye(2) + 0.2 * rng.standard_normal((9, 3, 2, 2))
        )
        self.frames = [rng.random((24, 24)) for _ in range(4)]
        self.pos = (12, 12)

    def test_zero_horizon_returns_single_encoding(self):
        u, score = align_recurrent(self.enc, self.model, self.frames[:1], self.pos, (1.0, 0.0))
        v = encode(self.enc, self.frames[0], np.asarray([self.pos])).vectors[0]
        np.testing.assert_array_equal(u, v)
        assert score == pytest.approx(float(np.sum(v * v)))

    def test_identity_model_sums_encodings(self):
        model = ZeroSupportTable.identity(self.grid, 3, 2)
        u, _ = align_recurrent(self.enc, model, self.frames, self.pos, (0.0, 1.0))
        want = sum(
            encode(self.enc, f, np.asarray([self.pos])).vectors[0] for f in self.frames
        )
        np.testing.assert_allclose(u, want, atol=1e-12)

    def test_recurrent_equals_direct_power_sum(self):
        delta = (1.0, -1.0)
        u, score = align_recurrent(self.enc, self.model, self.frames, self.pos, delta)
        ci = self.grid.index_of(delta)
        m = len(self.frames) - 1
        want = np.zeros((3, 2))
        for i, frame in enumerate(self.frames):
            v = encode(self.enc, frame, np.asarray([self.pos])).vectors[0]
            for k in range(3):
                mk = np.linalg.matrix_power(self.model.matrices[ci, 0, k], m - i)
                want[k] += mk @ v[k]
        np.testing.assert_allclose(u, want, atol=1e-10)
        assert score == pytest.approx(float(np.sum(want * want)), abs=1e-10)

    def test_estimate_velocity_matches_brute_force(self):
        got = estimate_velocity(self.enc, self.model, self.frames, self.pos)
        cands = self.grid.candidates()
        mags = np.sum(cands * cands, axis=1)
        best_key, best = None, None
        for c in range(9):
            _, score = align_recurrent(self.enc, self.model, self.frames, self.pos, cands[c])
            key = (-score, mags[c], cands[c, 0], cands[c, 1])
            if best_key is None or key < best_key:
                best_key, best = key, cands[c]
        np.testing.assert_array_equal(got, best)

    def test_single_frame_returns_zero_candidate(self):
        got = estimate_velocity(self.enc, self.model, self.frames[:1], self.pos)
        np.testing.assert_array_equal(got, [0.0, 0.0])


class TestFieldFiles:
    @pytest.mark.parametrize("rows, cols", [([8, 16, 40], [8, 16]), ([8, 16], [4, 8, 20])])
    def test_rejects_unevenly_spaced_lattice(self, tmp_path, rows, cols):
        rr, cc = np.meshgrid(rows, cols, indexing="ij")
        fld = DisplacementField(np.stack([rr.ravel(), cc.ravel()], axis=1), np.zeros((rr.size, 2)))
        with pytest.raises(ShapeError):
            write_field(tmp_path / "f.v1fd", fld)
        assert not (tmp_path / "f.v1fd").exists()
