import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subdesign.criteria as criteria
import subdesign.linalg as linalg
from subdesign.covariance import GradientSet, gamma
from subdesign.criteria import c_opt, coefficients, d_opt, e_opt, phi_matrix_derivative, phi_q
from subdesign.errors import InvalidInput, NotPSD, SingularMatrix
from subdesign.linalg import (
    as_symmetric,
    logistic,
    psd_factor,
    spd_inverse,
    sym_eigen,
)
from subdesign.sampling import DesignFamily, uniform_scheme


class TestSymEigen:
    def test_hand_2x2(self):
        # [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors
        # (1,1)/sqrt(2) and (1,-1)/sqrt(2), each up to its sign.
        values, vectors = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert values == pytest.approx([3.0, 1.0], abs=1e-12)
        for j, v in enumerate(([1.0, 1.0], [1.0, -1.0])):
            projector = np.outer(vectors[:, j], vectors[:, j])
            assert projector == pytest.approx(np.outer(v, v) / 2.0, abs=1e-12)

    def test_descending_order(self):
        values, vectors = sym_eigen(np.diag([1.0, 5.0, 3.0]))
        assert values == pytest.approx([5.0, 3.0, 1.0])
        assert np.abs(vectors) == pytest.approx(np.eye(3)[:, [1, 2, 0]])
        assert values.flags.c_contiguous and vectors.flags.c_contiguous

    def test_reconstruction_random(self):
        rng = np.random.default_rng(20240817)
        for _ in range(500):
            p = rng.integers(1, 8)
            b = rng.standard_normal((p, p))
            m = 0.5 * (b + b.T)
            values, q = sym_eigen(m)
            err = np.linalg.norm((q * values) @ q.T - m, "fro")
            scale = max(np.linalg.norm(m, "fro"), 1.0)
            assert err <= 1e-10 * scale
            assert np.allclose(q.T @ q, np.eye(p), atol=1e-10)
            assert np.all(np.diff(values) <= 1e-12)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((6, 6))
        m = b + b.T
        first = sym_eigen(m)
        second = sym_eigen(m.copy())
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            sym_eigen(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            sym_eigen([[1.0, np.nan], [np.nan, 1.0]])


def sign_dependent_outputs():
    """Every output computed from eigenvectors, at a fixed random problem."""
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((200, 4))
    psi -= psi.mean(axis=0)
    b = rng.standard_normal((4, 4))
    grads = GradientSet(psi=psi, hessian=b @ b.T + np.eye(4), theta0=np.zeros(4))
    gam = gamma(grads, uniform_scheme(200, 20.0, DesignFamily.PO_WOR)).gamma
    return [
        # c c^T has rank one, so psd_factor takes its eigenvector branch.
        coefficients(c_opt([1.0, -2.0, 0.0, 0.5]), grads),
        spd_inverse(b @ b.T + np.eye(4)),
        phi_matrix_derivative(d_opt(), gam),
        phi_matrix_derivative(e_opt(), gam),
        phi_matrix_derivative(phi_q(5.0), gam),
    ]


@pytest.mark.parametrize("flip", [[0], [1, 3], [0, 1, 2, 3]])
def test_eigenvector_signs_do_not_reach_any_output(monkeypatch, flip):
    expected = sign_dependent_outputs()
    calls = []

    def flipped(m):
        values, vectors = sym_eigen(m)
        calls.append(m)
        vectors[:, flip] *= -1.0
        return values, vectors

    monkeypatch.setattr(linalg, "sym_eigen", flipped)
    monkeypatch.setattr(criteria, "sym_eigen", flipped)
    got = sign_dependent_outputs()
    # H^-1 (in gamma and the coefficients), the rank-one factor, the inverse
    # and the three derivatives each decompose through the flipped routine.
    assert len(calls) == 6
    for a, b in zip(got, expected):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


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
