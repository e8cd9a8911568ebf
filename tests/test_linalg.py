import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from volswitch import linalg
from volswitch.exceptions import CovarianceError, SingularityError
from volswitch.linalg import (
    COND_LIMIT,
    _within_cond_limit,
    floor_psd,
    regularized_inverse,
    safe_cholesky,
    substream,
    symmetrize,
)

square = arrays(
    np.float64,
    (3, 3),
    elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


@given(square)
def test_symmetrize_is_symmetric_and_idempotent(m):
    sym = symmetrize(m)
    assert np.array_equal(sym, sym.T)
    assert np.allclose(symmetrize(sym), sym)
    assert np.allclose(sym, 0.5 * (m + m.T))


@given(square, st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_floor_psd_clips_spectrum(m, floor):
    out = floor_psd(m, floor=floor)
    vals = np.linalg.eigvalsh(out)
    assert vals.min() >= floor - 1e-9 * max(1.0, abs(floor))


def test_floor_psd_leaves_healthy_matrices_alone():
    m = np.diag([2.0, 3.0, 4.0])
    out = floor_psd(m, floor=1.0)
    # untouched apart from symmetrization, so no eigh round-trip noise
    assert np.array_equal(out, m)


def test_floor_psd_lifts_negative_eigenvalue():
    m = np.diag([1.0, -0.5])
    out = floor_psd(m, floor=1e-6)
    assert np.linalg.eigvalsh(out).min() >= 1e-6 - 1e-18
    assert out[0, 0] == pytest.approx(1.0)


def test_regularized_inverse_matches_plain_inverse_when_well_conditioned():
    m = np.array([[2.0, 0.3], [0.3, 1.5]])
    assert np.allclose(regularized_inverse(m), np.linalg.inv(m), atol=1e-12)


def test_regularized_inverse_handles_singular_input():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
    out = regularized_inverse(m)
    assert np.all(np.isfinite(out))
    # ridge keeps the well-determined direction accurate
    ones = np.ones(2) / np.sqrt(2.0)
    assert ones @ out @ ones == pytest.approx(0.5, rel=1e-3)


def test_regularized_inverse_rejects_non_finite():
    m = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(SingularityError):
        regularized_inverse(m)


def test_regularized_inverse_custom_error_type():
    with pytest.raises(CovarianceError):
        regularized_inverse(np.full((2, 2), np.inf), err=CovarianceError)


@given(
    dim=st.sampled_from([2, 3]),
    rotation_seed=st.integers(0, 2**32 - 1),
    top_exp=st.floats(-6.0, 6.0),
    ratio_exp=st.one_of(st.floats(0.0, 16.0), st.floats(11.9, 12.1)),
    signs=st.lists(st.booleans(), min_size=3, max_size=3),
)
@settings(max_examples=300)
def test_condition_check_agrees_with_numpy_cond(dim, rotation_seed, top_exp, ratio_exp, signs):
    # a rotated spectrum with a chosen condition number; any sign pattern,
    # so negative-definite and indefinite matrices are drawn too
    assume(abs(ratio_exp - 12.0) > 0.01)  # both solvers resolve a 2% margin
    top = 10.0**top_exp
    mags = np.array([top, top * 10.0 ** (-ratio_exp / 2.0), top * 10.0**-ratio_exp])[-dim:]
    mags[0] = top
    vals = np.where(signs[:dim], mags, -mags)
    u, _ = np.linalg.qr(np.random.default_rng(rotation_seed).standard_normal((dim, dim)))
    m = symmetrize((u * vals) @ u.T)
    assert _within_cond_limit(m) == (np.linalg.cond(m) <= COND_LIMIT)


@pytest.mark.parametrize("rel", [1e-9, 1e-6, -1e-6, -1e-9])
@pytest.mark.parametrize("signs", [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
def test_condition_check_at_the_threshold(rel, signs):
    # diagonal matrices carry their spectrum exactly, so the threshold can
    # be approached far closer than for a rotated one: cond = COND_LIMIT * (1 + rel)
    big, small = signs
    m = np.diag([big, small / (COND_LIMIT * (1.0 + rel)), 0.5 * big])
    assert _within_cond_limit(m) == (np.linalg.cond(m) <= COND_LIMIT) == (rel < 0)


@given(square)
def test_condition_check_agrees_on_drawn_symmetric_matrices(m):
    sym = symmetrize(m)
    assert _within_cond_limit(sym) == (np.linalg.cond(sym) <= COND_LIMIT)
    assert _within_cond_limit(sym[:2, :2]) == (np.linalg.cond(sym[:2, :2]) <= COND_LIMIT)


@given(square)
@settings(max_examples=60)
def test_safe_cholesky_factors_psd_matrices(m):
    psd = m @ m.T + 1e-6 * np.eye(3)
    chol = safe_cholesky(psd)
    assert np.allclose(chol @ chol.T, psd, atol=1e-8)
    assert np.allclose(chol, np.tril(chol))


def test_safe_cholesky_jitters_rank_deficient_input():
    m = np.outer([1.0, 2.0], [1.0, 2.0])
    chol = safe_cholesky(m)
    assert np.allclose(chol @ chol.T, m, atol=1e-6)


def test_safe_cholesky_rejects_indefinite():
    with pytest.raises(CovarianceError):
        safe_cholesky(np.diag([1.0, -1.0]))


def test_safe_cholesky_rejects_non_finite():
    with pytest.raises(CovarianceError):
        safe_cholesky(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# stacks: each member comes out bit for bit as it does alone


def stack_member(kind, dim, seed, top_exp, ratio_exp, signs):
    """One symmetric member: a rotated spectrum with a chosen condition number, or a degenerate kind."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((dim, dim))
    if kind == "rank-deficient":
        v = rng.standard_normal(dim)
        return 10.0**top_exp * np.outer(v, v)
    top = 10.0**top_exp
    mags = np.array([top, top * 10.0 ** (-ratio_exp / 2.0), top * 10.0**-ratio_exp])[-dim:]
    mags[0] = top
    vals = np.where(signs[:dim], mags, -mags)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return symmetrize((u * vals) @ u.T)


members = st.tuples(
    st.sampled_from(["spectrum", "spectrum", "zero", "rank-deficient"]),
    st.integers(0, 2**32 - 1),
    st.floats(-6.0, 6.0),
    # ill-conditioned members too, clear of the 2% band around COND_LIMIT
    st.one_of(st.floats(0.0, 11.9), st.floats(12.1, 17.0)),
    st.lists(st.booleans(), min_size=3, max_size=3),
)


@st.composite
def stacks(draw):
    dim = draw(st.sampled_from([2, 3]))
    drawn = draw(st.lists(members, min_size=1, max_size=4))
    return np.array([stack_member(kind, dim, *rest) for kind, *rest in drawn])


def one_by_one(fn, stack, err):
    """fn on each matrix alone: (results with NaN where it raised, the error types)."""
    out, kinds = np.full(stack.shape, np.nan), []
    for k, m in enumerate(stack):
        try:
            out[k] = fn(m)
            kinds.append(None)
        except err as e:
            kinds.append(type(e))
    return out, kinds


@given(stacks())
@settings(max_examples=150)
def test_stacked_regularized_inverse_matches_each_matrix_alone(stack):
    inv, errors = regularized_inverse(stack)
    alone, kinds = one_by_one(regularized_inverse, stack, SingularityError)
    np.testing.assert_array_equal(inv, alone)
    assert [type(e) if e else None for e in errors] == kinds


@given(stacks())
@settings(max_examples=150)
def test_stacked_condition_check_matches_each_matrix_and_numpy_cond(stack):
    ok = _within_cond_limit(stack)
    assert ok.shape == stack.shape[:1]
    for k, m in enumerate(stack):
        assert ok[k] == _within_cond_limit(m) == (np.linalg.cond(m) <= COND_LIMIT)


@given(stacks(), st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
@settings(max_examples=150)
def test_stacked_floor_and_factor_match_each_matrix_alone(stack, floors):
    floors = np.array(floors[: len(stack)])
    floored = floor_psd(stack, floor=floors)
    np.testing.assert_array_equal(floored, [floor_psd(m, floor=f) for m, f in zip(stack, floors)])
    for psd in (floored, stack):  # factorable, and members needing jitter or beyond it
        low, errors = safe_cholesky(psd)
        alone, kinds = one_by_one(safe_cholesky, psd, CovarianceError)
        np.testing.assert_array_equal(low, alone)
        assert [type(e) if e else None for e in errors] == kinds


def test_a_stack_lapack_refuses_is_inverted_member_by_member(monkeypatch):
    # LAPACK may refuse a matrix that passes the condition check; no 1x1 or
    # 2x2 input is known to make it, so the refusal is simulated
    stack = np.array([[[2.0, 0.3], [0.3, 1.5]], np.diag([1e-3, 4.0]), [[1.0, -0.9], [-0.9, 1.0]]])
    alone = [regularized_inverse(m) for m in stack]
    inv = np.linalg.inv

    def refuse_stacks(m):
        if m.ndim == 3:
            raise np.linalg.LinAlgError("refused")
        return inv(m)

    monkeypatch.setattr(np.linalg, "inv", refuse_stacks)
    out, errors = regularized_inverse(stack)
    np.testing.assert_array_equal(out, alone)
    assert errors == [None, None, None]


def test_a_matrix_lapack_always_refuses_remains_singular(monkeypatch):
    calls = []

    def refuse(m):
        calls.append(m)
        raise np.linalg.LinAlgError("refused")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    for err in (SingularityError, CovarianceError):
        calls.clear()
        with pytest.raises(err, match="matrix remains singular after ridge regularization"):
            regularized_inverse(np.eye(2), err=err)
        # the matrix itself, then one attempt per ridge escalation
        assert len(calls) == linalg.MAX_RIDGE_ESCALATIONS + 1
    out, errors = regularized_inverse(np.array([np.eye(2), np.eye(2)]))
    assert np.isnan(out).all()
    assert all(isinstance(e, SingularityError) and "remains singular" in str(e) for e in errors)


def test_a_non_finite_member_fails_only_itself():
    stack = np.array([np.diag([2.0, 3.0]), [[np.nan, 0.0], [0.0, 1.0]], np.diag([1.0, np.inf])])
    inv, errors = regularized_inverse(stack)
    assert errors[0] is None and all(isinstance(e, SingularityError) for e in errors[1:])
    np.testing.assert_array_equal(inv[0], regularized_inverse(stack[0]))
    assert np.isnan(inv[1:]).all()
    floored = floor_psd(stack, floor=1e-3)
    np.testing.assert_array_equal(floored[0], stack[0])
    assert np.isnan(floored[1:]).all()
    low, errors = safe_cholesky(stack)
    assert errors[0] is None and all(isinstance(e, CovarianceError) for e in errors[1:])
    np.testing.assert_array_equal(low[0], np.sqrt(stack[0]))


# ---------------------------------------------------------------------------
# closed-form 2x2 checks: each decision is the one LAPACK makes


def near_threshold_member(kind, scale_exp, rel_exp, sign, signs, rotation_seed):
    """A 2x2 member and its floor, with its smallest eigenvalue or condition number a hair off a threshold.

    ``rel_exp`` sets the hair, 10**-rel_exp of the threshold, on the side of
    ``sign``; a rotation seed of None keeps the matrix diagonal, so its
    spectrum is exact.
    """
    top = 10.0**scale_exp
    hair = 1.0 + sign * 10.0**-rel_exp
    if kind == "floor":
        floor = top * 10.0**-(rel_exp % 7)
        vals = np.array([floor * hair, top])
    elif kind == "cond":
        floor = 0.0
        vals = np.where(signs, 1.0, -1.0) * [top, top / (COND_LIMIT * hair)]
    elif kind == "zero":
        return np.zeros((2, 2)), 0.0
    else:  # a member straddling zero against a zero floor
        floor = 0.0
        vals = np.array([sign * top * 10.0**-rel_exp, top])
    if rotation_seed is None:
        return np.diag(vals), floor
    u, _ = np.linalg.qr(np.random.default_rng(rotation_seed).standard_normal((2, 2)))
    return symmetrize((u * vals) @ u.T), floor


near_members = st.tuples(
    st.sampled_from(["floor", "cond", "zero", "singular"]),
    st.integers(-300, 300),
    st.integers(6, 16),
    st.sampled_from([1.0, -1.0]),
    st.lists(st.booleans(), min_size=2, max_size=2),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)


def lapack_only(fn, *args):
    """fn(*args) with the closed form deferring every check to LAPACK."""
    real = linalg._eigvals2
    linalg._eigvals2 = lambda m: None
    try:
        return fn(*args)
    finally:
        linalg._eigvals2 = real


@given(st.lists(near_members, min_size=1, max_size=4), st.sampled_from([None, np.nan, np.inf, -np.inf]))
@settings(max_examples=400)
def test_closed_form_checks_decide_as_lapack_does(drawn, poison):
    stack, floors = map(np.array, zip(*(near_threshold_member(*m) for m in drawn)))
    # LAPACK's path overflows COND_LIMIT * min|eigenvalue| to inf near 1e300, and decides right
    with np.errstate(over="ignore"):
        for k, m in enumerate(stack):
            assert _within_cond_limit(m) == lapack_only(_within_cond_limit, m)
            assert floor_psd(m, floors[k]).tobytes() == lapack_only(floor_psd, m, floors[k]).tobytes()
        np.testing.assert_array_equal(_within_cond_limit(stack), lapack_only(_within_cond_limit, stack))
    if poison is not None:
        stack[-1, 1, 0] = poison  # a non-finite member: the condition check never sees one
    assert floor_psd(stack, floors).tobytes() == lapack_only(floor_psd, stack, floors).tobytes()


def test_substream_is_deterministic_and_key_sensitive():
    a = substream(7, 1, 2, 3).standard_normal(4)
    b = substream(7, 1, 2, 3).standard_normal(4)
    c = substream(7, 1, 2, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_rejects_negative_keys():
    with pytest.raises(ValueError):
        substream(1, -2)
