import math
import warnings

import numpy as np
import pytest

from renyinfo.dist import JointPmf, condition_on_y, marginal_x
from renyinfo.errors import UndefinedCorner
from renyinfo.measures import mutual_info_variant, shannon_cond_entropy, shannon_mi
from renyinfo.orders import ExtOrder, OrderPair
from renyinfo.properties import run_properties
from renyinfo.sampling import random_joint, random_joint_with_zeros
from renyinfo.two_param import (
    CORNER_WARNING,
    h_tilde,
    h_tilde_curve,
    h_tilde_grid,
    i_tilde,
    i_tilde_curve,
    i_tilde_grid,
)

from conftest import bsc_joint

PAIR_GRID = [
    (a, b)
    for a in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, math.inf)
    for b in (0.0, 0.25, 1.0, 2.0, math.inf)
    if not (a == 1.0 and math.isinf(b))
]


def brute_h(joint: JointPmf, alpha: float, beta: float) -> float:
    """Direct definition evaluation, independent of the log-domain path."""
    py, cond = condition_on_y(joint)
    total = 0.0
    for j in np.flatnonzero(py.probs > 0):
        row = cond.row(int(j)).probs
        inner = float(np.sum(row[row > 0] ** alpha))
        total += py.probs[j] * inner ** (beta / alpha)
    return alpha / (beta * (1.0 - alpha)) * math.log2(total)


def brute_i(joint: JointPmf, alpha: float, beta: float) -> float:
    px = marginal_x(joint).probs
    py, cond = condition_on_y(joint)
    total = 0.0
    for j in np.flatnonzero(py.probs > 0):
        row = cond.row(int(j)).probs
        m = row > 0
        inner = float(np.sum(px[m] ** (1.0 - alpha) * row[m] ** alpha))
        total += py.probs[j] * inner ** (beta / alpha)
    return alpha / (beta * (alpha - 1.0)) * math.log2(total)


class TestOrders:
    def test_alpha_one_is_a_tag(self):
        assert ExtOrder.of(1).is_one
        with pytest.raises(ValueError):
            ExtOrder.finite(1.0)

    def test_beta_one_is_plain_finite(self):
        pair = OrderPair.of(2, 1)
        assert pair.beta.is_finite and pair.beta.as_float() == 1.0

    def test_corner_flag(self):
        assert OrderPair.of(0, 0).is_corner
        assert not OrderPair.of(0, 1).is_corner


class TestHTilde:
    def test_independent_uniform_is_log_alphabet(self):
        j = JointPmf(tuple(map(str, range(4))), ("y0", "y1"),
                     np.full((4, 2), 1.0 / 8))
        for a, b in PAIR_GRID:
            assert h_tilde(j, (a, b)).value == pytest.approx(2.0, abs=1e-12), (a, b)

    def test_deterministic_is_zero(self, diag_binary):
        for a, b in PAIR_GRID:
            assert h_tilde(diag_binary, (a, b)).value == pytest.approx(0.0, abs=1e-12)

    def test_bsc_closed_form_collapses_in_beta(self):
        p = 0.13
        j = bsc_joint(p)
        want = {a: math.log2(p**a + (1 - p) ** a) / (1 - a) for a in (0.3, 0.8, 2.0, 5.0)}
        for a, cf in want.items():
            for b in (0.25, 1.0, 3.0):
                assert h_tilde(j, (a, b)).value == pytest.approx(cf, abs=1e-12)
                assert brute_h(j, a, b) == pytest.approx(cf, abs=1e-12)

    def test_generic_matches_brute_force(self, rng):
        for _ in range(25):
            j = random_joint_with_zeros(rng, 4, 3)
            a = float(rng.uniform(0.1, 3.0))
            if abs(a - 1.0) < 0.05:
                a = 2.0
            b = float(rng.uniform(0.1, 3.0))
            assert h_tilde(j, (a, b)).value == pytest.approx(brute_h(j, a, b), abs=1e-10)

    def test_limit_branches_explicit(self, rng):
        j = random_joint_with_zeros(rng, 3, 3)
        py, cond = condition_on_y(j)
        idx = np.flatnonzero(py.probs > 0)
        rows = [cond.row(int(k)).probs for k in idx]
        w = py.probs[idx]
        supp = np.array([np.sum(r > 0) for r in rows])
        maxes = np.array([r.max() for r in rows])
        assert h_tilde(j, (0.0, 2.0)).value == pytest.approx(np.log2(supp).max())
        assert h_tilde(j, (0.0, 0.0)).value == pytest.approx(float(w @ np.log2(supp)))
        assert h_tilde(j, (math.inf, 0.0)).value == pytest.approx(-float(w @ np.log2(maxes)))
        b = 1.7
        assert h_tilde(j, (math.inf, b)).value == pytest.approx(
            -math.log2(float(w @ maxes**b)) / b
        )
        assert h_tilde(j, (math.inf, math.inf)).value == pytest.approx(-math.log2(maxes.max()))
        assert h_tilde(j, (1.0, 0.5)).value == pytest.approx(shannon_cond_entropy(j))

    def test_corner_warning_and_strict_mode(self, rng):
        j = random_joint(rng, 3, 3)
        res = h_tilde(j, (0.0, 0.0))
        assert res.warning is not None
        assert res.branch == "corner_zero_zero"
        with pytest.raises(UndefinedCorner):
            h_tilde(j, (0.0, 0.0), strict_corner=True)

    def test_one_inf_undefined(self, rng):
        j = random_joint(rng, 2, 2)
        with pytest.raises(UndefinedCorner):
            h_tilde(j, (1.0, math.inf))
        with pytest.raises(UndefinedCorner):
            i_tilde(j, (1.0, math.inf))

    def test_curve_matches_scalar(self, rng):
        j = random_joint_with_zeros(rng, 3, 4)
        alphas = np.array([0.2, 0.7, 1.4, 3.0])
        vals = h_tilde_curve(j, alphas, 0.8)
        for a, v in zip(alphas, vals):
            assert v == pytest.approx(h_tilde(j, (float(a), 0.8)).value, abs=1e-12)


class TestITilde:
    def test_independent_is_zero(self):
        j = JointPmf(("a", "b"), ("u", "v", "w"),
                     np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
        for a, b in PAIR_GRID:
            assert i_tilde(j, (a, b)).value == pytest.approx(0.0, abs=1e-10), (a, b)

    def test_identity_uniform_binary_is_one_bit(self, diag_binary):
        for a, b in PAIR_GRID:
            if a == 0.0 or (isinstance(a, float) and math.isinf(a)):
                continue
            assert i_tilde(diag_binary, (a, b)).value == pytest.approx(1.0, abs=1e-12), (a, b)
        assert i_tilde(diag_binary, (0.0, 1.0)).value == pytest.approx(1.0)
        assert i_tilde(diag_binary, (math.inf, math.inf)).value == pytest.approx(1.0)

    def test_diagonal_matches_classic_mi(self, rng):
        j = random_joint(rng, 3, 3)
        got = i_tilde(j, (2.0, 2.0)).value
        want = mutual_info_variant("i", j, 2).value
        assert got == pytest.approx(want, abs=1e-12)

    def test_generic_matches_brute_force(self, rng):
        for _ in range(25):
            j = random_joint_with_zeros(rng, 3, 4)
            a = float(rng.uniform(0.1, 3.0))
            if abs(a - 1.0) < 0.05:
                a = 0.5
            b = float(rng.uniform(0.1, 3.0))
            assert i_tilde(j, (a, b)).value == pytest.approx(brute_i(j, a, b), abs=1e-10)

    def test_limit_branches_explicit(self, rng):
        j = random_joint_with_zeros(rng, 3, 3)
        px = marginal_x(j).probs
        py, cond = condition_on_y(j)
        idx = np.flatnonzero(py.probs > 0)
        rows = [cond.row(int(k)).probs for k in idx]
        w = py.probs[idx]
        masses = np.array([px[r > 0].sum() for r in rows])
        ratios = np.array(
            [np.max(np.where(r > 0, r / np.where(px > 0, px, 1.0), 0.0)) for r in rows]
        )
        assert i_tilde(j, (0.0, 1.5)).value == pytest.approx(-math.log2(masses.max()))
        assert i_tilde(j, (0.0, 0.0)).value == pytest.approx(-float(w @ np.log2(masses)))
        assert i_tilde(j, (math.inf, 0.0)).value == pytest.approx(float(w @ np.log2(ratios)))
        b = 2.3
        assert i_tilde(j, (math.inf, b)).value == pytest.approx(
            math.log2(float(w @ ratios**b)) / b
        )
        assert i_tilde(j, (math.inf, math.inf)).value == pytest.approx(math.log2(ratios.max()))
        assert i_tilde(j, (1.0, 3.0)).value == pytest.approx(shannon_mi(j))

    def test_curve_matches_scalar(self, rng):
        j = random_joint_with_zeros(rng, 4, 3)
        alphas = np.array([0.2, 0.7, 1.4, 3.0])
        vals = i_tilde_curve(j, alphas, 1.3)
        for a, v in zip(alphas, vals):
            assert v == pytest.approx(i_tilde(j, (float(a), 1.3)).value, abs=1e-12)


class TestStructuralProperties:
    """Quick-sample versions of the suite that the acceptance tests run at
    full scale."""

    def test_collapse_and_monotonicity(self):
        results = run_properties(["collapse", "mono-alpha", "mono-beta"], seed=9, samples=15)
        for r in results:
            assert r.passed, (r.name, r.worst, r.counterexample)

    def test_additivity_dpi_discard(self):
        results = run_properties(
            ["additivity", "dpi-h", "dpi-i", "discard-mono", "nonneg"], seed=10, samples=10
        )
        for r in results:
            assert r.passed, (r.name, r.worst, r.counterexample)

    def test_concavity_family(self):
        results = run_properties(
            ["concavity-alpha", "concavity-input", "convexity-channel",
             "continuity-one", "power-concavity"],
            seed=11,
            samples=10,
        )
        for r in results:
            assert r.passed, (r.name, r.worst, r.counterexample)


EXT_ORDERS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, math.inf)


def _grid_joints():
    rng = np.random.default_rng(1717)
    cases = []
    for nx in range(2, 6):
        for ny in range(2, 6):
            cases.append((f"full-{nx}x{ny}", random_joint(rng, nx, ny)))
            cases.append((f"zeros-{nx}x{ny}", random_joint_with_zeros(rng, nx, ny)))
    cases.append(("full-16x16", random_joint(rng, 16, 16)))
    cases.append(("zeros-16x16", random_joint_with_zeros(rng, 16, 16)))
    cases.append(("absent-y", JointPmf(("a", "b", "c"), ("0", "1", "2"),
                                       [[0.2, 0.0, 0.3], [0.1, 0.0, 0.1], [0.2, 0.0, 0.1]])))
    cases.append(("deterministic", JointPmf(("a", "b", "c"), ("0", "1", "2"), np.eye(3) / 3.0)))
    cases.append(("uniform", JointPmf(("a", "b", "c"), ("0", "1"), np.full((3, 2), 1.0 / 6.0))))
    return cases


GRID_JOINTS = _grid_joints()


def _same_bits(x: float, y: float) -> bool:
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


class TestGrid:
    @pytest.mark.parametrize("name,joint", GRID_JOINTS, ids=[c[0] for c in GRID_JOINTS])
    def test_grid_is_bitwise_the_scalar(self, name, joint):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid_fn, fn in ((h_tilde_grid, h_tilde), (i_tilde_grid, i_tilde)):
                grid = grid_fn(joint, EXT_ORDERS, EXT_ORDERS)
                assert grid.values.shape == (9, 9)
                for i, a in enumerate(EXT_ORDERS):
                    for j, b in enumerate(EXT_ORDERS):
                        if a == 1.0 and math.isinf(b):
                            continue
                        want = fn(joint, (a, b))
                        got = grid.cell(i, j)
                        assert _same_bits(got.value, want.value), (a, b, got.value, want.value)
                        assert got.branch == want.branch
                        assert got.warning == want.warning
                        assert got.order == want.order

    def test_unsorted_and_repeated_orders(self, rng):
        j = random_joint_with_zeros(rng, 4, 3)
        alphas = [2.0, 0.0, "inf", 0.5, 2.0, 1, 0.3]
        betas = [math.inf, 1.0, 0.0, 0.7, 1.0, 3.0]
        for grid_fn, fn in ((h_tilde_grid, h_tilde), (i_tilde_grid, i_tilde)):
            grid = grid_fn(j, alphas, betas)
            assert grid.values.shape == (len(alphas), len(betas))
            for i, a in enumerate(alphas):
                for k, b in enumerate(betas):
                    if grid.branches[i][k] == "undefined":
                        continue
                    assert _same_bits(grid.values[i, k], fn(j, (a, b)).value), (a, b)
            assert np.array_equal(grid.values[0], grid.values[4])
            assert np.array_equal(grid.values[:, 1], grid.values[:, 4])

    def test_one_inf_cell_is_nan_and_undefined(self, rng):
        j = random_joint(rng, 3, 2)
        for grid_fn in (h_tilde_grid, i_tilde_grid):
            grid = grid_fn(j, [0.5, 1.0], [2.0, math.inf])
            assert math.isnan(grid.values[1, 1])
            assert grid.branches[1][1] == "undefined"
            assert not np.isnan(np.delete(grid.values.ravel(), 3)).any()

    def test_corner_cell_warns_and_strict_mode_raises(self, rng):
        j = random_joint(rng, 3, 3)
        for grid_fn in (h_tilde_grid, i_tilde_grid):
            grid = grid_fn(j, [0.0, 2.0], [0.0, 0.5])
            assert grid.cell(0, 0).warning == CORNER_WARNING
            assert grid.cell(0, 0).branch == "corner_zero_zero"
            assert grid.cell(0, 1).warning is None and grid.cell(1, 0).warning is None
            with pytest.raises(UndefinedCorner):
                grid_fn(j, [0.0, 2.0], [0.0, 0.5], strict_corner=True)
            # strict mode only rejects grids that hold the corner
            strict = grid_fn(j, [0.0, 2.0], [0.5], strict_corner=True)
            assert np.array_equal(strict.values, grid.values[:, 1:])

    def test_grid_values_are_read_only(self, rng):
        grid = h_tilde_grid(random_joint(rng, 2, 2), [2.0], [0.5])
        with pytest.raises(ValueError):
            grid.values[0, 0] = 0.0
