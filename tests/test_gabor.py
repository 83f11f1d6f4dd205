"""Gabor evaluation/fitting, bandwidth and phase statistics, filter rendering."""

import math

import numpy as np
import pytest

from patchflow.core import DisplacementGrid, Encoder, NonParametricMotion, ParametricMotion
from patchflow.errors import PatchflowError
from patchflow.gabor import (
    HALF_MAG,
    GaborFit,
    animate_filters,
    bandwidth_octaves,
    canonicalize_gabor,
    envelope_shape,
    filter_montage,
    fit_all_units,
    fit_gabor,
    fold_phase,
    gabor_eval,
    population_stats,
    quadrature_stats,
    write_unit_csv,
)

from matrix_form import motion_matrices


def random_gabor_params(rng, p=16):
    return np.array(
        [
            rng.uniform(0.5, 2.0),
            rng.uniform(p * 0.3, p * 0.7),
            rng.uniform(p * 0.3, p * 0.7),
            rng.uniform(0.0, math.pi),
            rng.uniform(1.5, 4.0),
            rng.uniform(1.5, 4.0),
            rng.uniform(0.06, 0.25),
            rng.uniform(0.0, 2 * math.pi),
        ]
    )


def params_close(fit, true_params, tol=1e-3):
    ref = canonicalize_gabor(GaborFit(*true_params, r2=1.0))
    got = fit.params()
    want = ref.params()
    if np.max(np.abs(got[:7] - want[:7])) > tol:
        return False
    return abs(math.remainder(got[7] - want[7], 2 * math.pi)) <= tol


class TestGaborEval:
    def test_zero_amplitude(self):
        patch = gabor_eval([0.0, 8, 8, 0.3, 2, 3, 0.1, 0.5], 16)
        assert patch.shape == (16, 16)
        assert np.all(patch == 0)

    def test_y_reflection_symmetry(self):
        # theta = 0, phi = 0, centered: even in y'
        patch = gabor_eval([1.0, 7.0, 7.0, 0.0, 2.5, 3.5, 0.15, 0.0], 15)
        for k in range(1, 8):
            np.testing.assert_allclose(patch[7 + k, :], patch[7 - k, :], atol=1e-12)

    def test_spot_values_match_scalar_formula(self):
        a, x0, y0, th, sx, sy, f, ph = 1.3, 6.0, 9.0, 0.7, 2.0, 3.0, 0.12, 1.1
        patch = gabor_eval([a, x0, y0, th, sx, sy, f, ph], 16)
        for (row, col) in [(0, 0), (9, 6), (12, 3)]:
            x, y = float(col), float(row)
            xr = (x - x0) * math.cos(th) + (y - y0) * math.sin(th)
            yr = -(x - x0) * math.sin(th) + (y - y0) * math.cos(th)
            want = (
                a
                * math.exp(-((xr / (math.sqrt(2) * sx)) ** 2) - (yr / (math.sqrt(2) * sy)) ** 2)
                * math.cos(2 * math.pi * f * xr + ph)
            )
            assert patch[row, col] == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestFitGabor:
    def test_self_synthesis_recovery(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            true = random_gabor_params(rng)
            fit = fit_gabor(gabor_eval(true, 16))
            assert fit.r2 > 0.999
            assert params_close(fit, true)

    def test_pure_grating_recovers_frequency_and_orientation(self):
        true = np.array([1.0, 8.0, 8.0, 0.4, 50.0, 50.0, 0.15, 0.3])
        fit = fit_gabor(gabor_eval(true, 16))
        assert fit.frequency == pytest.approx(0.15, abs=0.01)
        dth = abs(fit.theta - 0.4) % math.pi
        assert min(dth, math.pi - dth) < 0.05

    def test_constant_unit_rejected(self):
        with pytest.raises(PatchflowError):
            fit_gabor(np.full((16, 16), 0.3))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        unit = gabor_eval(random_gabor_params(rng), 16)
        a = fit_gabor(unit)
        b = fit_gabor(unit)
        assert np.array_equal(a.params(), b.params())

    def test_accepts_flat_rows(self):
        rng = np.random.default_rng(3)
        unit = gabor_eval(random_gabor_params(rng), 16)
        fit = fit_gabor(unit.ravel())
        assert fit.r2 > 0.999


class TestCanonicalize:
    def test_negative_amplitude(self):
        fit = canonicalize_gabor(GaborFit(-1.0, 0, 0, 0.5, 2, 2, 0.1, 0.2, r2=1.0))
        assert fit.amplitude == 1.0
        # phase advances by pi, wrapped into (-pi, pi]
        assert fit.phase == pytest.approx(0.2 + math.pi - 2 * math.pi)

    def test_negative_frequency(self):
        fit = canonicalize_gabor(GaborFit(1.0, 0, 0, 0.5, 2, 2, -0.1, 0.2, r2=1.0))
        assert fit.frequency == 0.1
        assert fit.phase == pytest.approx(-0.2)

    def test_theta_wraps_with_phase_flip(self):
        raw = GaborFit(1.0, 8, 8, 0.3 + math.pi, 2, 3, 0.12, 0.7, r2=1.0)
        fit = canonicalize_gabor(raw)
        assert fit.theta == pytest.approx(0.3)
        # same function values after canonicalization
        np.testing.assert_allclose(gabor_eval(fit, 16), gabor_eval(raw, 16), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        raw = GaborFit(*random_gabor_params(rng), r2=1.0)
        once = canonicalize_gabor(raw)
        twice = canonicalize_gabor(once)
        np.testing.assert_allclose(once.params(), twice.params(), atol=1e-15)


class TestBandwidth:
    def test_one_octave_case(self):
        # 2 pi sigma f = 3 sqrt(2 ln 2) gives log2((3c + c) / (3c - c)) = 1
        c = HALF_MAG
        f = 0.125
        sigma = 3.0 * c / (2.0 * math.pi * f)
        fit = GaborFit(1.0, 0, 0, 0, sigma, 1.0, f, 0.0, r2=1.0)
        # bit-exact against an independent evaluation of the formula
        x = 2.0 * math.pi * sigma * f
        assert bandwidth_octaves(fit) == math.log2((x + c) / (x - c))
        assert bandwidth_octaves(fit) == pytest.approx(1.0, abs=1e-12)

    def test_limit_to_zero(self):
        fit = GaborFit(1.0, 0, 0, 0, 1e9, 1.0, 0.2, 0.0, r2=1.0)
        assert bandwidth_octaves(fit) < 1e-8

    def test_sentinel_for_broad_units(self):
        fit = GaborFit(1.0, 0, 0, 0, 0.5, 1.0, 0.01, 0.0, r2=1.0)
        assert bandwidth_octaves(fit) == math.inf

    def test_strictly_decreasing_in_product(self):
        values = []
        for prod in np.linspace(0.5, 10.0, 30):
            sigma = prod / (2 * math.pi * 0.1)
            values.append(bandwidth_octaves(GaborFit(1, 0, 0, 0, sigma, 1, 0.1, 0, r2=1.0)))
        finite = [v for v in values if math.isfinite(v)]
        assert all(b < a for a, b in zip(finite, finite[1:]))


class TestFoldPhase:
    def test_basic_values(self):
        assert fold_phase(0.0) == 0.0
        assert fold_phase(math.pi) == pytest.approx(0.0, abs=1e-12)
        assert fold_phase(2.0) == pytest.approx(math.pi - 2.0)

    def test_idempotent_and_pi_periodic(self):
        rng = np.random.default_rng(5)
        for phi in rng.uniform(-10, 10, 50):
            folded = fold_phase(phi)
            assert 0.0 <= folded <= math.pi / 2
            assert fold_phase(folded) == pytest.approx(folded, abs=1e-12)
            assert fold_phase(phi + math.pi) == pytest.approx(folded, abs=1e-9)


class TestQuadratureStats:
    def paired_encoder(self, phase_offset, p=16):
        base = random_gabor_params(np.random.default_rng(6), p)
        a = gabor_eval(base, p)
        shifted = base.copy()
        shifted[7] += phase_offset
        b = gabor_eval(shifted, p)
        w = np.stack([a.ravel(), b.ravel()])[None]  # one block, d = 2
        return Encoder(w, p, p)

    def test_identical_units_zero_deltas(self):
        enc = self.paired_encoder(0.0)
        fits = fit_all_units(enc)
        df, dth, dphi, skipped = quadrature_stats(enc, fits)
        assert skipped == 0
        assert np.all(df < 1e-6) and np.all(dth < 1e-6) and np.all(dphi < 1e-4)

    def test_quadrature_pair_detected(self):
        enc = self.paired_encoder(math.pi / 2)
        fits = fit_all_units(enc)
        _, _, dphi, _ = quadrature_stats(enc, fits)
        assert dphi[0] == pytest.approx(math.pi / 2, abs=1e-3)

    def test_low_quality_pairs_skipped(self):
        enc = self.paired_encoder(0.3)
        fits = fit_all_units(enc)
        fits[0] = GaborFit(*fits[0].params(), r2=0.1)
        _, _, dphi, skipped = quadrature_stats(enc, fits)
        assert skipped == 1 and len(dphi) == 0


class TestPopulationStats:
    def test_histograms_cover_population(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = [gabor_eval(random_gabor_params(rng), 16).ravel() for _ in range(6)]
        enc = Encoder(np.stack(rows).reshape(3, 2, 256), 16, 8)
        fits = fit_all_units(enc)
        stats = population_stats(enc, fits)
        assert stats.folded_phase_hist[0].sum() == 6
        assert stats.bandwidth_hist[0].sum() == np.isfinite(stats.bandwidths).sum()
        assert stats.pair_dphi_hist[0].sum() + stats.pairs_skipped == 3
        assert len(stats.nx) == 6 and len(stats.ny) == 6
        csv_path = tmp_path / "units.csv"
        write_unit_csv(csv_path, enc, fits)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 7  # header + 6 units


class TestAnimateFilters:
    def test_identity_motion_keeps_filters(self):
        enc = Encoder.random(3, 2, 8, 8, rng=8)
        grid = DisplacementGrid(-1, 1, 1.0)
        model = NonParametricMotion.identity(grid, 3, 2)
        frames = animate_filters(enc, model, 1, [(0.0, 0.0)])
        np.testing.assert_array_equal(frames[0].reshape(2, 64), enc.weights[1])

    def test_zero_weights_zero_frames(self):
        enc = Encoder(np.zeros((2, 2, 64)), 8, 8)
        model = ParametricMotion.zeros(2, 2)
        frames = animate_filters(enc, model, 0, [(1.0, 0.5), (0.0, 0.0)])
        assert all(np.all(f == 0) for f in frames)

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(9)
        enc = Encoder.random(2, 2, 8, 8, rng=rng)
        model = ParametricMotion(0.2 * rng.standard_normal((5, 2, 2, 2)))
        delta = (0.7, -0.3)
        frames = animate_filters(enc, model, 1, [delta])
        want = motion_matrices(model, [delta])[0, 1] @ enc.weights[1]
        np.testing.assert_allclose(frames[0].reshape(2, 64), want, rtol=1e-12)

    def test_montage_shape(self):
        rng = np.random.default_rng(10)
        tiles = rng.standard_normal((5, 8, 8))
        img = filter_montage(tiles, cols=3)
        assert img.shape == (2 * 9 + 1, 3 * 9 + 1)
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestMixedFilters:
    def test_mixed_model_shows_zero_offset_matrices(self):
        from patchflow.core import MixedMotion, support_offsets

        rng = np.random.default_rng(12)
        enc = Encoder.random(2, 2, 8, 8, rng=rng)
        grid = DisplacementGrid(-1, 1, 0.5)
        off = support_offsets(2, 2)
        model = MixedMotion(grid, off, rng.standard_normal((grid.num_candidates, len(off), 2, 2, 2)))
        deltas = [(0.0, 0.0), (0.5, -1.0)]
        frames = animate_filters(enc, model, 1, deltas)
        zero = int(np.flatnonzero((off == 0).all(axis=1))[0])
        for frame, delta in zip(frames, deltas):
            want = model.matrices[grid.index_of(delta), zero, 1] @ enc.weights[1]
            assert np.array_equal(frame.reshape(2, 64), want)

    def test_table_frames_are_the_candidate_matrices(self):
        rng = np.random.default_rng(13)
        enc = Encoder.random(2, 2, 8, 8, rng=rng)
        grid = DisplacementGrid(-1, 1, 0.5)
        model = NonParametricMotion(grid, rng.standard_normal((grid.num_candidates, 2, 2, 2)))
        frames = animate_filters(enc, model, 0, [(1.0, -0.5)])
        want = model.matrices[grid.index_of((1.0, -0.5)), 0] @ enc.weights[0]
        assert np.array_equal(frames[0].reshape(2, 64), want)
