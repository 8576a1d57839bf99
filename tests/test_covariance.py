import numpy as np
import pytest

from scca import (DimensionError, ParseError, StateError, ViewMatrix, center_scale,
                  cross_covariance, gen_rank_one, load_view, write_view)
from scca.covariance import center_scale_owned, standardize
from scca.simulate import RankOneSpec


def test_load_view_basic(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n")
    view = load_view(path)
    assert view.n == 3 and view.p == 2
    assert view.names == ["a", "b"]
    assert not view.centered and not view.scaled
    np.testing.assert_array_equal(view.data, [[1, 2], [3, 4], [5, 6]])


def test_load_view_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n1,x\n3,4\n")
    with pytest.raises(ParseError) as err:
        load_view(path)
    assert err.value.line == 2


@pytest.mark.parametrize("header,message", [
    ("a,a,b", "line 1: duplicate name 'a' in columns 1 and 2"),
    ("a,b,b", "line 1: duplicate name 'b' in columns 2 and 3"),
    ("a,,b", "line 1: blank name in column 2"),
    ("a,b, ", "line 1: blank name in column 3"),
])
def test_load_view_rejects_duplicate_or_blank_names(tmp_path, header, message):
    path = tmp_path / "names.csv"
    path.write_text(header + "\n1,2,3\n4,5,6\n")
    with pytest.raises(ParseError) as err:
        load_view(path)
    assert str(err.value) == message
    assert err.value.line == 1


def test_load_view_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ParseError) as err:
        load_view(path)
    assert err.value.line == 3


def test_load_view_too_few_samples(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DimensionError):
        load_view(path)


def test_load_view_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1,2\n3,nan\n")
    with pytest.raises(ParseError) as err:
        load_view(path)
    assert err.value.line == 2


def test_load_view_no_header_default_names(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1,2\n3,4\n")
    view = load_view(path)
    assert view.names == ["V1", "V2"]


def test_load_view_tsv_autodetect(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("x\ty\n1\t2\n3\t4\n")
    view = load_view(path)
    assert view.names == ["x", "y"]
    assert view.data[1, 1] == 4


def test_write_then_read_roundtrip(tmp_path):
    # write-then-read identity oracle on a generated 50x500 matrix
    x1, _x2, _ = gen_rank_one(RankOneSpec(seed=7))
    path = write_view(x1, tmp_path / "x1.csv")
    back = load_view(path)
    assert back.names == x1.names
    assert np.abs(back.data - x1.data).max() < 1e-12


def test_center_removes_mean():
    v = ViewMatrix(np.array([[1.0], [2.0], [3.0]]), ["a"])
    out = center_scale(v)
    np.testing.assert_allclose(out.data[:, 0], [-1, 0, 1], atol=1e-15)
    assert out.centered and not out.scaled


def test_center_scale_constant_column_warns():
    v = ViewMatrix(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]), ["c", "d"])
    out = center_scale(v, scale=True)
    np.testing.assert_array_equal(out.data[:, 0], [0, 0, 0])
    assert any("constant" in w for w in out.warnings)


def test_center_scale_moments(rng):
    # recompute the moments after the transform
    v = ViewMatrix(rng.normal(5.0, 3.0, size=(10, 4)), [f"v{j}" for j in range(4)])
    out = center_scale(v, scale=True)
    assert np.abs(out.data.mean(axis=0)).max() < 1e-12
    assert np.abs(out.data.std(axis=0, ddof=1) - 1.0).max() < 1e-12


def _reference_standardize(data, scale):
    """standardize as it was written before it worked in place."""
    mean = data.mean(axis=0)
    out = data - mean
    sd = np.ones(data.shape[1])
    constant = np.zeros(data.shape[1], dtype=bool)
    if scale:
        sd = out.std(axis=0, ddof=1)
        constant = sd <= 1e-12 * (np.abs(data).max(axis=0, initial=0.0) + 1.0)
        out[:, constant] = 0.0
        sd = np.where(constant, 1.0, sd)
        out = out / sd
    return out, mean, sd, constant


@pytest.mark.parametrize("scale", [False, True])
def test_centring_in_place_has_the_bits_of_a_copy_and_copies_change_nothing(rng, scale):
    data = rng.normal(3.0, 2.0, size=(9, 5))
    # constant up to rounding: its centred values are not zero until zeroed
    data[:, 1] = 7.25 + np.spacing(7.25) * (np.arange(9) % 2)
    data[:, 2] = -np.abs(data[:, 2])    # all negative
    data[:, 3] *= 1e-9
    kept = data.copy()
    want = _reference_standardize(data, scale)
    for got, ref in zip(standardize(data, scale), want):
        assert got.tobytes() == ref.tobytes()
    v = ViewMatrix(data, [f"v{j}" for j in range(5)])
    copied = center_scale(v, scale=scale)
    assert data.tobytes() == kept.tobytes() and v.data.tobytes() == kept.tobytes()
    assert copied.data.tobytes() == want[0].tobytes()
    owned = center_scale_owned(ViewMatrix(kept, list(v.names)), scale=scale)
    assert np.shares_memory(owned.data, kept)
    assert owned.data.tobytes() == copied.data.tobytes()
    assert (owned.warnings, owned.centered, owned.scaled) == (
        copied.warnings, copied.centered, copied.scaled)
    assert bool(owned.warnings) == scale


def test_center_scale_idempotent(rng):
    v = ViewMatrix(rng.normal(size=(8, 3)), ["a", "b", "c"])
    once = center_scale(v, scale=True)
    twice = center_scale(once, scale=True)
    assert np.abs(once.data - twice.data).max() < 1e-12


def test_cross_covariance_single_column():
    a = ViewMatrix(np.array([[-1.0], [0.0], [1.0]]), ["a"], centered=True)
    block = cross_covariance(a, a)
    np.testing.assert_allclose(block, [[2.0 / 3.0]])


def test_cross_covariance_sign_flip():
    a = ViewMatrix(np.array([[-1.0], [0.0], [1.0]]), ["a"], centered=True)
    b = ViewMatrix(np.array([[1.0], [0.0], [-1.0]]), ["b"], centered=True)
    np.testing.assert_allclose(cross_covariance(a, b), [[-2.0 / 3.0]])


def test_cross_covariance_matches_outer_product_sum(rng):
    # elementwise double-loop oracle
    from conftest import make_views
    a, b = make_views(10, 3, 2, seed=4)
    block = cross_covariance(a, b)
    oracle = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            oracle[i, j] = sum(a.data[k, i] * b.data[k, j] for k in range(10)) / 10
    assert np.abs(block - oracle).max() < 1e-12


def test_cross_covariance_transpose_symmetry():
    from conftest import make_views
    a, b = make_views(12, 5, 4, seed=9)
    ab = cross_covariance(a, b)
    ba = cross_covariance(b, a)
    assert np.abs(ab.T - ba).max() < 1e-14


def test_cross_covariance_errors():
    from conftest import make_views
    a, _ = make_views(10, 2, 2, seed=1)
    b, _ = make_views(8, 2, 2, seed=2)
    with pytest.raises(DimensionError):
        cross_covariance(a, b)
    raw = ViewMatrix(np.arange(6.0).reshape(3, 2), ["a", "b"])
    with pytest.raises(StateError):
        cross_covariance(raw, raw)


def test_view_matrix_invariants():
    with pytest.raises(DimensionError):
        ViewMatrix(np.ones((1, 3)), ["a", "b", "c"])
    with pytest.raises(DimensionError):
        ViewMatrix(np.array([[np.inf, 1.0], [0.0, 1.0]]), ["a", "b"])
    with pytest.raises(StateError):
        ViewMatrix(np.array([[1.0], [2.0]]), ["a"], centered=True)
