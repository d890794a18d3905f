import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renyinfo.dist import (
    CondPmf,
    JointPmf,
    Pmf,
    condition_on_x,
    condition_on_y,
    from_json,
    iid_power,
    joint_from_channel,
    marginal_x,
    marginal_y,
    product,
    to_json,
    validate,
)
from renyinfo.errors import (
    DuplicateLabel,
    NegativeMass,
    NotNormalized,
    SizeOverflow,
)


def test_validate_uniform_binary():
    p = Pmf(("a", "b"), [0.5, 0.5])
    assert validate(p) is not None


def test_validate_rejects_mass_deficit():
    with pytest.raises(NotNormalized) as e:
        Pmf(("a", "b"), [0.5, 0.499])
    assert "1.000e-03" in str(e.value)


def test_validate_rejects_nonfinite_mass():
    with pytest.raises(NotNormalized):
        JointPmf(("a", "b"), ("c", "d"), [[0.5, 0.5], [0.0, math.nan]])
    with pytest.raises(NotNormalized):
        Pmf(("a", "b", "c"), [0.5, 0.5, math.nan])
    with pytest.raises(NotNormalized):
        JointPmf(("a", "b"), ("c", "d"), [[0.25, 0.25], [0.25, math.inf]])
    with pytest.raises(NegativeMass):
        JointPmf(("a", "b"), ("c", "d"), [[0.25, 0.25], [0.25, -math.inf]])


def test_validate_uniform_joint():
    JointPmf(("a", "b"), ("c", "d"), [[0.25, 0.25], [0.25, 0.25]])


def test_validate_rejects_negative_and_duplicates():
    with pytest.raises(NegativeMass):
        Pmf(("a", "b"), [1.5, -0.5])
    with pytest.raises(DuplicateLabel):
        Pmf(("a", "a"), [0.5, 0.5])


def test_pmf_is_immutable():
    p = Pmf(("a", "b"), [0.5, 0.5])
    with pytest.raises(ValueError):
        p.probs[0] = 1.0


def test_equality_compares_alphabets_and_arrays():
    cells = [[0.1, 0.2], [0.3, 0.4]]
    a = JointPmf(("a", "b"), ("u", "v"), cells)
    assert a == JointPmf(("a", "b"), ("u", "v"), np.array(cells))
    assert not a != JointPmf(("a", "b"), ("u", "v"), cells)
    assert a != JointPmf(("a", "b"), ("u", "v"), [[0.2, 0.1], [0.3, 0.4]])
    assert a != JointPmf(("a", "b"), ("u", "w"), cells)
    assert a != JointPmf(("a", "b", "c"), ("u", "v"), [[0.1, 0.2], [0.3, 0.4], [0.0, 0.0]])
    assert a != cells
    p = Pmf(("a", "b", "c"), [0.2, 0.3, 0.5])
    assert p == Pmf(("a", "b", "c"), [0.2, 0.3, 0.5])
    assert p != Pmf(("a", "b", "c"), [0.3, 0.2, 0.5])
    assert p != Pmf(("a", "b", "d"), [0.2, 0.3, 0.5])


def test_marginals():
    u = JointPmf(("a", "b"), ("c", "d"), [[0.25, 0.25], [0.25, 0.25]])
    assert np.allclose(marginal_y(u).probs, [0.5, 0.5])
    d = JointPmf(("a", "b"), ("c", "d"), [[0.5, 0.0], [0.0, 0.5]])
    assert np.allclose(marginal_y(d).probs, [0.5, 0.5])
    j = JointPmf(("a", "b"), ("c", "d"), [[0.1, 0.2], [0.3, 0.4]])
    assert np.allclose(marginal_y(j).probs, [0.4, 0.6])
    assert np.allclose(marginal_x(j).probs, [0.3, 0.7])


def test_condition_on_y_point_masses():
    d = JointPmf(("a", "b"), ("c", "d"), [[0.5, 0.0], [0.0, 0.5]])
    py, cond = condition_on_y(d)
    assert np.allclose(cond.row(0).probs, [1.0, 0.0])
    assert np.allclose(cond.row(1).probs, [0.0, 1.0])


def test_condition_on_y_uniform_rows():
    u = JointPmf(("a", "b"), ("c", "d"), [[0.25, 0.25], [0.25, 0.25]])
    _, cond = condition_on_y(u)
    for j in range(2):
        assert np.allclose(cond.row(j).probs, [0.5, 0.5])


def test_condition_on_y_absent_row():
    j = JointPmf(("a", "b"), ("c", "d"), [[0.4, 0.0], [0.6, 0.0]])
    py, cond = condition_on_y(j)
    assert np.allclose(py.probs, [1.0, 0.0])
    assert cond.defined == (True, False)
    assert np.allclose(cond.row(0).probs, [0.4, 0.6])
    with pytest.raises(KeyError):
        cond.row(1)


def test_product_identity_element():
    j = JointPmf(("a", "b"), ("c", "d"), [[0.1, 0.2], [0.3, 0.4]])
    point = JointPmf(("p",), ("q",), [[1.0]])
    out = product(j, point)
    assert np.allclose(out.probs, j.probs)


def test_product_uniform():
    u = JointPmf(("a", "b"), ("c", "d"), [[0.25, 0.25], [0.25, 0.25]])
    out = product(u, u)
    assert out.probs.shape == (4, 4)
    assert np.allclose(out.probs, 1.0 / 16)


def test_three_fold_diagonal_power():
    d = JointPmf(("0", "1"), ("0", "1"), [[0.5, 0.0], [0.0, 0.5]])
    out = iid_power(d, 3)
    assert out.probs.shape == (8, 8)
    assert np.allclose(np.diag(out.probs), 1.0 / 8)
    assert np.allclose(out.probs - np.diag(np.diag(out.probs)), 0.0)


def test_product_cell_cap():
    j = JointPmf(("a", "b"), ("c", "d"), [[0.25, 0.25], [0.25, 0.25]])
    with pytest.raises(SizeOverflow):
        product(j, j, cell_cap=10)


def test_joint_from_channel_roundtrip():
    j = JointPmf(("a", "b"), ("c", "d"), [[0.1, 0.2], [0.3, 0.4]])
    px, pyx = condition_on_x(j)
    back = joint_from_channel(px, pyx)
    assert np.allclose(back.probs, j.probs, atol=1e-15)


def test_json_roundtrip_bit_exact():
    j = JointPmf(("a", "b"), ("c", "d"), [[0.1, 0.2], [0.3, 0.4]])
    again = from_json(to_json(j))
    assert isinstance(again, JointPmf)
    assert again.alphabet_x == j.alphabet_x
    assert all(x == y for x, y in zip(again.probs.ravel(), j.probs.ravel()))
    p = Pmf(("u", "v"), [2 / 3, 1 / 3])
    q = from_json(to_json(p))
    assert all(x == y for x, y in zip(q.probs, p.probs))


def test_from_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        from_json(json.dumps({"nope": 1}))


@st.composite
def joint_cells(draw, max_side=5):
    nx = draw(st.integers(2, max_side))
    ny = draw(st.integers(2, max_side))
    cells = draw(
        st.lists(st.integers(0, 50), min_size=nx * ny, max_size=nx * ny).filter(
            lambda c: sum(c) > 0
        )
    )
    m = np.array(cells, dtype=float).reshape(nx, ny)
    return m / m.sum()


@given(joint_cells())
@settings(max_examples=150, deadline=None)
def test_conditionals_reconstruct_joint(cells):
    nx, ny = cells.shape
    j = JointPmf(
        tuple(f"x{i}" for i in range(nx)), tuple(f"y{k}" for k in range(ny)), cells
    )
    py, cond = condition_on_y(j)
    rebuilt = np.zeros_like(cells)
    for k in range(ny):
        if py.probs[k] > 0.0:
            rebuilt[:, k] = py.probs[k] * cond.row(k).probs
    assert np.abs(rebuilt - cells).max() <= 1e-12
    assert marginal_x(j).probs.sum() == pytest.approx(1.0, abs=1e-12)


@given(joint_cells(max_side=3), joint_cells(max_side=3))
@settings(max_examples=60, deadline=None)
def test_product_marginals_factor(a, b):
    ja = JointPmf(tuple(f"x{i}" for i in range(a.shape[0])),
                  tuple(f"y{i}" for i in range(a.shape[1])), a)
    jb = JointPmf(tuple(f"u{i}" for i in range(b.shape[0])),
                  tuple(f"v{i}" for i in range(b.shape[1])), b)
    prod = product(ja, jb)
    got = marginal_x(prod).probs
    want = np.kron(marginal_x(ja).probs, marginal_x(jb).probs)
    assert np.abs(got - want).max() <= 1e-12


def test_condpmf_from_matrix_and_alphabet_check():
    c = CondPmf.from_matrix(("a", "b"), ("u", "v"), [[0.9, 0.1], [0.2, 0.8]])
    assert c.defined == (True, True)
    assert math.isclose(c.matrix().sum(), 2.0)
