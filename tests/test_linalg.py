import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdesign.errors import InvalidInput, NotPSD, SingularMatrix
from subdesign.linalg import (
    EigenPair,
    as_symmetric,
    logistic,
    psd_factor,
    spd_inverse,
    sym_eigen,
)


class TestSymEigen:
    def test_hand_2x2(self):
        # [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors
        # (1,1)/sqrt(2) and (1,-1)/sqrt(2).
        pair = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert pair.values == pytest.approx([3.0, 1.0], abs=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert pair.vectors[:, 0] == pytest.approx([s, s], abs=1e-12)
        assert pair.vectors[:, 1] == pytest.approx([s, -s], abs=1e-12)

    def test_descending_order_and_sign(self):
        pair = sym_eigen(np.diag([1.0, 5.0, 3.0]))
        assert pair.values == pytest.approx([5.0, 3.0, 1.0])
        # Leading nonzero component of every eigenvector is positive.
        for j in range(3):
            col = pair.vectors[:, j]
            lead = np.flatnonzero(np.abs(col) > 1e-12)[0]
            assert col[lead] > 0.0

    def test_reconstruction_random(self):
        rng = np.random.default_rng(20240817)
        for _ in range(500):
            p = rng.integers(1, 8)
            b = rng.standard_normal((p, p))
            m = 0.5 * (b + b.T)
            pair = sym_eigen(m)
            q = pair.vectors
            err = np.linalg.norm((q * pair.values) @ q.T - m, "fro")
            scale = max(np.linalg.norm(m, "fro"), 1.0)
            assert err <= 1e-10 * scale
            gram = pair.vectors.T @ pair.vectors
            assert np.allclose(gram, np.eye(p), atol=1e-10)
            assert np.all(np.diff(pair.values) <= 1e-12)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((6, 6))
        m = b + b.T
        first = sym_eigen(m)
        second = sym_eigen(m.copy())
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            sym_eigen(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            sym_eigen([[1.0, np.nan], [np.nan, 1.0]])


class TestPsdFactor:
    def test_diag_hand_values(self):
        ell = psd_factor(np.diag([4.0, 9.0]))
        assert ell @ ell.T == pytest.approx(np.diag([4.0, 9.0]), abs=1e-12)

    def test_rank_one(self):
        v = np.array([1.0, 2.0])
        m = np.outer(v, v)
        ell = psd_factor(m)
        assert ell @ ell.T == pytest.approx(m, abs=1e-10)

    def test_roundtrip_random_psd(self):
        rng = np.random.default_rng(55)
        for _ in range(300):
            p = rng.integers(1, 7)
            r = rng.integers(1, p + 1)
            b = rng.standard_normal((p, r))
            m = b @ b.T
            ell = psd_factor(m)
            err = np.linalg.norm(ell @ ell.T - m, "fro")
            assert err <= 1e-8 * max(np.linalg.norm(m, "fro"), 1.0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_factor(np.diag([1.0, -1.0]))


class TestSpdInverse:
    def test_hand_2x2(self):
        # inverse of [[2,1],[1,2]] is (1/3)[[2,-1],[-1,2]]
        inv = spd_inverse([[2.0, 1.0], [1.0, 2.0]])
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert inv == pytest.approx(expected, abs=1e-12)

    def test_identity_roundtrip_random(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            p = rng.integers(1, 8)
            b = rng.standard_normal((p, p))
            m = b @ b.T + p * np.eye(p)
            inv = spd_inverse(m)
            assert np.allclose(inv @ m, np.eye(p), atol=1e-8)

    def test_singular_raises_with_eigenvalue(self):
        with pytest.raises(SingularMatrix) as exc:
            spd_inverse(np.diag([1.0, 0.0]))
        assert exc.value.min_eigenvalue is not None
        assert abs(exc.value.min_eigenvalue) < 1e-12


def masked_logistic(t):
    """The two-branch form: exp of -t on t >= 0 and of t elsewhere."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


SPECIAL_T = [0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, 710.5, -710.5, 746.0, -746.0, 1e308]


class TestLogistic:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_T)),
            min_size=1,
            max_size=50,
        )
    )
    def test_matches_the_masked_form_bit_for_bit(self, values):
        t = np.array(values + SPECIAL_T)
        got, want = logistic(t), masked_logistic(t)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))

    def test_matches_the_textbook_formula(self):
        t = np.linspace(-30.0, 30.0, 601)
        assert logistic(t) == pytest.approx(1.0 / (1.0 + np.exp(-t)), rel=1e-15)

    def test_tails_do_not_overflow(self):
        with np.errstate(over="raise"):
            out = logistic(np.array([-1000.0, -745.0, 0.0, 745.0, 1000.0]))
        assert out[0] == 0.0 and out[-1] == 1.0
        assert out[2] == 0.5


def test_as_symmetric_symmetrizes():
    out = as_symmetric([[1.0, 2.0], [0.0, 1.0]])
    assert out == pytest.approx(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_eigenpair_dim():
    pair = EigenPair(values=np.ones(3), vectors=np.eye(3))
    assert pair.values.shape[0] == 3
