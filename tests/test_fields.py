import numpy as np
import pytest

from alap import fields, geometry


def unit_square():
    return geometry.box_domain(
        [0, 0], [1, 1], ["ymax"], geometry.BoundaryData("zero"), 1.0
    )


def test_constant_field_values():
    f = fields.make_constant_field([0.3, 1.0])
    assert f.h_upper == 1.0
    assert f.h_lower == 1.0
    x = np.array([[0.1, 0.2], [0.9, 0.4]])
    assert np.allclose(f(x), [[0.3, 1.0], [0.3, 1.0]])
    assert np.all(f.divergence(x) == 0.0)


@pytest.mark.parametrize("shape", [(2,), (1, 2), (33, 2), (4, 5, 2)])
def test_constant_field_eval_matches_the_broadcast_copy(shape):
    c = np.array([0.3, 1.0])
    f = fields.make_constant_field(c)
    x = np.zeros(shape)
    out = f(x)
    assert out.dtype == np.float64 and out.shape == shape
    assert np.array_equal(out, np.broadcast_to(c, shape).copy())
    # a fresh writable array: writing to it leaves the field intact
    assert out.flags.writeable and not np.shares_memory(out, c)
    out[...] = -1.0
    assert np.array_equal(f(x), np.broadcast_to(c, shape))


def test_constant_field_rejects_nonpositive_last_component():
    with pytest.raises(ValueError):
        fields.make_constant_field([0.0, -1.0])
    with pytest.raises(ValueError):
        fields.make_constant_field([1.0, 0.0])


def test_affine_field_corner_bounds():
    dom = unit_square()
    f = fields.make_affine_field(0.1 * np.eye(2), np.array([0.0, 1.0]), dom)
    assert f.divergence(np.zeros(2)) == pytest.approx(0.2)
    assert f.h_lower == pytest.approx(1.0)   # H_2 on [1, 1.1]
    assert f.h_upper == pytest.approx(1.1)
    assert f.lipschitz_const == pytest.approx(0.1)


def test_affine_zero_matrix_reduces_to_constant():
    dom = unit_square()
    f = fields.make_affine_field(np.zeros((2, 2)), np.array([0.0, 1.0]), dom)
    x = np.array([0.3, 0.7])
    assert np.allclose(f(x), [0.0, 1.0])
    assert f.divergence(x) == 0.0


def test_affine_rejects_negative_trace():
    dom = unit_square()
    with pytest.raises(ValueError):
        fields.make_affine_field(-0.1 * np.eye(2), np.array([0.0, 1.0]), dom)


def test_affine_rejects_nonpositive_drift_component():
    dom = unit_square()
    with pytest.raises(ValueError):
        fields.make_affine_field(np.array([[0.0, 0.0], [0.0, 0.5]]), np.array([0.0, 0.0]), dom)


def _samples(dom, n=64, seed=5):
    rng = np.random.default_rng(seed)
    return dom.lower + rng.random((n, dom.dim)) * (dom.upper - dom.lower)


def test_certify_constant_transversal_mode():
    dom = unit_square()
    f = fields.make_constant_field([0.0, 1.0])
    rep = fields.certify_field(f, dom, _samples(dom))
    assert rep.passed
    assert rep.worst["max_fd_mismatch"] <= fields.DIV_FD_TOL


def test_certify_affine_transversal_mode():
    dom = unit_square()
    f = fields.make_affine_field(0.1 * np.eye(2), np.array([0.0, 1.0]), dom)
    rep = fields.certify_field(f, dom, _samples(dom))
    assert rep.passed
    assert rep.worst["max_abs_div"] == pytest.approx(0.2)


def test_certify_detects_downward_drift():
    # hand-built field with H_n < 0 (the constructor rightly refuses one)
    dom = unit_square()
    bad = fields.FieldH(
        kind="constant", coeff=np.zeros((2, 2)), offset=np.array([0.0, -1.0]),
        h_upper=1.0, h_lower=1.0,
    )
    rep = fields.certify_field(bad, dom, _samples(dom))
    assert not rep.passed


def test_lipschitz_bound_on_sampled_pairs():
    dom = unit_square()
    f = fields.make_affine_field(np.array([[0.05, 0.1], [0.0, 0.1]]), np.array([0.0, 1.0]), dom)
    x = _samples(dom, 40, seed=1)
    y = _samples(dom, 40, seed=2)
    lhs = np.max(np.abs(f(x) - f(y)), axis=-1)
    rhs = f.lipschitz_const * np.max(np.abs(x - y), axis=-1)
    assert np.all(lhs <= rhs + 1e-12)
