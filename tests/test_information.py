import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from augdesign import GLOBAL_FACTORS, Design, fisher_info
from augdesign import data
from augdesign.glm import COORD_MAX, COORD_MIN, Link
from augdesign.information import (
    SINGULAR_TOL, _nonsingular, cholesky, weighted_gram,
)
from mp_oracle import mp_info
from scalar_oracle import MINUS_INF, inv_quadratic_form, log_det
from scalar_oracle import cholesky as reference_cholesky


def full_design(response="temperature"):
    return data.initial_design().concat(data.REFERENCE_DESIGN)


@pytest.mark.parametrize("name", data.RESPONSES)
def test_info_matches_extended_precision_oracle(name):
    spec, params = data.MODELS[name], data.ESTIMATES[name]
    design = full_design()
    with mpmath.workdps(50):
        oracle = mp_info(spec, params, design)
        info = fisher_info(spec, params, design)
        dim = len(info)
        for i in range(dim):
            for j in range(dim):
                expect = float(oracle[i, j])
                scale = abs(expect) + 1e-30
                assert abs(info[i, j] - expect) / scale < 1e-12


@pytest.mark.parametrize("name", data.RESPONSES)
def test_log_det_matches_extended_precision_oracle(name):
    spec, params = data.MODELS[name], data.ESTIMATES[name]
    design = full_design()
    info = fisher_info(spec, params, design)
    with mpmath.workdps(60):
        det = mpmath.det(mpmath.matrix(info.tolist()))
        expect = float(mpmath.log(det))
    assert log_det(info) == pytest.approx(expect, rel=1e-9)


def test_info_is_permutation_invariant():
    spec, params = data.MODELS["velocity"], data.ESTIMATES["velocity"]
    design = full_design()
    rng = np.random.default_rng(3)
    order = rng.permutation(len(design))
    shuffled = Design(design.coords[order], design.days[order])
    a = fisher_info(spec, params, design)
    b = fisher_info(spec, params, shuffled)
    assert np.allclose(a, b, rtol=1e-12, atol=0)


def test_info_is_additive_over_blocks():
    spec, params = data.MODELS["flame_intensity"], data.ESTIMATES["flame_intensity"]
    design = full_design()
    first, second = design.split()
    total = fisher_info(spec, params, design)
    parts = fisher_info(spec, params, first) + fisher_info(spec, params, second)
    assert np.allclose(total, parts, rtol=1e-12)


def test_det_is_monotone_in_added_runs():
    spec, params = data.MODELS["temperature"], data.ESTIMATES["temperature"]
    base = data.initial_design()
    grown = base
    last = log_det(fisher_info(spec, params, base, with_day_effect=False))
    for row, day in zip(data.REFERENCE_DESIGN.coords, data.REFERENCE_DESIGN.days):
        grown = grown.concat(Design.from_coords(row, day))
        entries = fisher_info(spec, params, grown, with_day_effect=False)
        current = log_det(entries)
        assert current >= last - 1e-12
        last = current


def test_day_column_singular_without_day1_runs():
    spec, params = data.MODELS["temperature"], data.ESTIMATES["temperature"]
    info = fisher_info(spec, params, data.initial_design())
    assert log_det(info) == MINUS_INF
    assert inv_quadratic_form(info) == 0.0


def test_replicated_design_is_singular():
    spec, params = data.MODELS["velocity"], data.ESTIMATES["velocity"]
    design = Design(np.ones((10, 4)), np.ones(10, dtype=int))
    assert log_det(fisher_info(spec, params, design)) == MINUS_INF


def test_nan_matrix_is_singular():
    info = fisher_info(
        data.MODELS["flame_width"], data.ESTIMATES["flame_width"], full_design()
    )
    info[2, 2] = np.nan
    assert log_det(info) == MINUS_INF
    assert inv_quadratic_form(info) == 0.0
    assert reference_cholesky(info) is None
    assert cholesky(info) is None


def test_cholesky_rejects_a_tiny_pivot_and_a_nan():
    spec, params = data.MODELS["flame_width"], data.ESTIMATES["flame_width"]
    full = fisher_info(spec, params, full_design())
    # Positive definite, but its last pivot is below the SINGULAR_TOL test.
    scaled = np.ones(len(full))
    scaled[-1] = 1e-8
    tiny_pivot = full * np.outer(scaled, scaled)
    nan = full.copy()
    nan[0, 0] = np.nan
    factors = [cholesky(a) for a in (full, tiny_pivot, nan, 2.0 * full)]
    assert [f is not None for f in factors] == [True, False, False, True]
    assert np.array_equal(factors[0], np.linalg.cholesky(full))
    assert np.array_equal(factors[3], np.linalg.cholesky(2.0 * full))


def reference_nonsingular(a, chol):
    """The singularity rule as first written: every squared pivot at least
    SINGULAR_TOL times the largest diagonal entry, which must be positive."""
    scale = np.max(np.diagonal(a, axis1=-2, axis2=-1), axis=-1)
    piv = np.diagonal(chol, axis1=-2, axis2=-1)
    return (scale > 0.0) & (np.min(piv * piv, axis=-1) >= SINGULAR_TOL * scale)


entry = st.one_of(
    st.sampled_from([0.0, np.nan, 1.0, 1e-6, 1e-7, -1.0]),
    st.floats(-1e3, 1e3),
)
matrix_stacks = st.tuples(st.integers(1, 6), st.integers(1, 5)).flatmap(
    lambda kn: st.tuples(
        arrays(np.float64, (kn[0], kn[1], kn[1]), elements=entry),
        arrays(np.float64, (kn[0], kn[1], kn[1]), elements=entry),
    )
)


@settings(max_examples=200, deadline=None)
@given(pair=matrix_stacks)
@example(pair=(np.zeros((2, 3, 3)), np.eye(3)[None].repeat(2, axis=0)))
@example(pair=(np.full((1, 3, 3), np.nan), np.eye(3)[None]))
@example(pair=(np.eye(3)[None], np.diag([1.0, np.nan, 1.0])[None]))
def test_singularity_mask_matches_its_formula(pair):
    a, chol = pair
    assert np.array_equal(_nonsingular(a, chol), reference_nonsingular(a, chol))
    for one, factor in zip(a, chol):
        assert _nonsingular(one, factor) == reference_nonsingular(one, factor)


def test_cholesky_rejects_an_indefinite_matrix():
    full = fisher_info(
        data.MODELS["flame_width"], data.ESTIMATES["flame_width"], full_design()
    )
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(-full)
    assert cholesky(-full) is None
    assert np.array_equal(cholesky(full), np.linalg.cholesky(full))


MATRIX_KINDS = (
    "positive definite", "tiny pivot", "nan", "indefinite first",
    "indefinite last",
)


def matrix_of_kind(x, kind):
    """A symmetric matrix built from the square array ``x``: x x^T + I, with
    its last row and column scaled by 1e-8 (positive definite, but a pivot
    below the SINGULAR_TOL test for n > 1), a NaN on the diagonal, or a
    negative first or last pivot."""
    n = len(x)
    a = x @ x.T + np.eye(n)
    if kind == "tiny pivot":
        scaled = np.ones(n)
        scaled[-1] = 1e-8
        a *= np.outer(scaled, scaled)
    elif kind == "nan":
        a[n // 2, n // 2] = np.nan
    elif kind == "indefinite first":
        a[0, 0] = -1.0
    elif kind == "indefinite last":
        a[-1, -1] -= np.trace(a) + 1.0
    return a


mixed_stacks = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.tuples(
            arrays(np.float64, (n, n), elements=st.floats(-3, 3)),
            st.sampled_from(MATRIX_KINDS),
        ),
        min_size=1, max_size=6,
    )
)


@settings(max_examples=200, deadline=None)
@given(items=mixed_stacks)
@example(items=[(np.eye(3), kind) for kind in MATRIX_KINDS[:3]])
@example(items=[(np.eye(3), kind) for kind in MATRIX_KINDS])
def test_cholesky_matches_the_single_matrix_reference(items):
    for x, kind in items:
        a = matrix_of_kind(x, kind)
        factor, reference = cholesky(a), reference_cholesky(a)
        assert (factor is None) == (reference is None)
        if factor is not None:
            assert np.array_equal(factor, reference)


predictors = st.one_of(
    st.floats(1e-3, 50.0), st.floats(-50.0, -1e-3), st.sampled_from([0.0, -1.0])
)
grams = st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(
    lambda d: st.tuples(
        st.sampled_from(list(Link)),
        arrays(np.float64, d, elements=st.floats(-2.0, 2.0)),
        arrays(np.float64, d[:1], elements=predictors),
    )
)


@settings(max_examples=200, deadline=None)
@given(case=grams)
@example(case=(Link.INVERSE, np.ones((4, 2)), np.full(4, 2.0)))
@example(case=(Link.IDENTITY, np.ones((2, 3)), np.array([1.0, 0.0])))
def test_weighted_gram_equals_one_matrix_at_a_time(case):
    # One (n, q) matrix per call: inside the domain the gram equals
    # (Z w)^T Z bit for bit, and the flag is a bool that is False exactly
    # when a predictor lies outside it.
    link, Z, eta = case
    gram, inside = weighted_gram(link, Z, eta)
    feasible = not link.outside_domain(eta).any()
    assert gram.shape == (Z.shape[-1], Z.shape[-1])
    assert inside is feasible
    assert np.isfinite(gram).all()
    if feasible:
        w = link.weight(eta)
        assert np.array_equal(gram, (Z * w[:, None]).T @ Z)


def test_inv_quadratic_form_matches_determinant_ratio():
    # (e^T I^{-1} e)^{-1} = det(I) / det(I without its last row and column)
    spec, params = data.MODELS["flame_width"], data.ESTIMATES["flame_width"]
    info = fisher_info(spec, params, full_design())
    expect = np.linalg.det(info) / np.linalg.det(info[:-1, :-1])
    assert inv_quadratic_form(info) == pytest.approx(expect, rel=1e-8)


def test_design_csv_round_trip():
    design = data.BAYES_D1_FIXED
    again = Design.from_csv(design.to_csv())
    assert np.array_equal(again.coords, design.coords)
    assert np.array_equal(again.days, design.days)


def test_design_csv_day_defaults_to_zero():
    text = "run,L,K,D,FDV\n1,0,0,0,0\n"
    design = Design.from_csv(text)
    assert design.days[0] == 0


def test_design_csv_ignores_other_columns():
    text = "run,L,K,D,FDV,day,note\n1,0.5,0,0,-1,1,centre run\n"
    design = Design.from_csv(text)
    assert design == Design([[0.5, 0.0, 0.0, -1.0]], [1])


@pytest.mark.parametrize("rows, message", [
    ("0,0,3,0,1\n", "CSV line 2: coordinate 3.0 outside [-2.0, 2.0]"),
    ("0,0,0,0,1\n0,0,0,0,0.5\n", "CSV line 3: day flag must be 0 or 1"),
    ("0,0,0,0,1\n0,0,0,0,1\n0,nan,0,0,1\n", "CSV line 4: coordinate nan outside"),
    ("0,0,0,0,2\n0,0,3,0,1\n", "CSV line 2: day flag must be 0 or 1"),
])
def test_design_csv_names_the_line_of_a_bad_run(rows, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Design.from_csv("L,K,D,FDV,day\n" + rows)


def test_design_csv_reads_float_day_cells():
    design = Design.from_csv("L,K,D,FDV,day\n0,0,0,0,1.0\n0,0,0,0,0.0\n")
    assert design == Design(np.zeros((2, 4)), [1, 0])


def test_design_split_and_concat():
    full = full_design()
    first, second = full.split()
    assert len(first) == 30 and len(second) == 4
    assert len(first.concat(second)) == 34


def test_empty_design_rejected():
    with pytest.raises(ValueError, match="at least one run"):
        Design(np.empty((0, 4)), np.empty(0, dtype=int))


@pytest.mark.parametrize(
    "shape", [(2, 4, 4), (1, 1, 4), (4, 3), (4, 5)], ids=["2x4x4", "1x1x4", "4x3", "4x5"]
)
def test_design_from_coords_names_a_wrong_shape(shape):
    with pytest.raises(ValueError, match=re.escape(f"(n, 4) array, got shape {shape}")):
        Design.from_coords(np.zeros(shape), day=1)


def run_rules_accept(coords, days) -> bool:
    """The rules a design's runs were checked by one run at a time: at least
    one run, each with one coordinate per global factor, every coordinate in
    [COORD_MIN, COORD_MAX], and a day flag of 0 or 1."""
    return len(coords) > 0 and all(
        len(row) == len(GLOBAL_FACTORS)
        and all(COORD_MIN <= c <= COORD_MAX for c in row)
        and day in (0, 1)
        for row, day in zip(coords, days)
    )


coordinates = st.one_of(
    st.floats(-2.5, 2.5, allow_nan=False),
    st.sampled_from([COORD_MIN, COORD_MAX, -0.0, math.nan, math.inf, -math.inf]),
)
rows = st.lists(coordinates, min_size=3, max_size=5)
day_flags = st.sampled_from([0, 1, True, False, 1.0, 0.5, 2, -1, math.nan])


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.tuples(rows, day_flags), max_size=5))
def test_design_accepts_exactly_what_the_run_rules_accept(runs):
    coords, days = [r for r, _ in runs], [d for _, d in runs]
    if not run_rules_accept(coords, days):
        with pytest.raises(ValueError):
            Design(coords, days)
        return
    design = Design(coords, days)
    assert np.array_equal(design.coords, np.array(coords, dtype=float))
    assert design.days.tolist() == [int(d) for d in days]
    assert not design.coords.flags.writeable and not design.days.flags.writeable


@settings(max_examples=300, deadline=None)
@given(coords=st.lists(rows, max_size=5), day=day_flags)
def test_from_coords_accepts_exactly_what_the_run_rules_accept(coords, day):
    accepted = run_rules_accept(coords, [day] * len(coords))
    # A single run may also be given as one 4-vector.
    for given_coords in [coords] + ([coords[0]] if len(coords) == 1 else []):
        if not accepted:
            with pytest.raises(ValueError):
                Design.from_coords(given_coords, day)
            continue
        design = Design.from_coords(given_coords, day)
        assert np.array_equal(design.coords, np.array(coords, dtype=float))
        assert design.days.tolist() == [int(day)] * len(coords)


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.lists(st.floats(COORD_MIN, COORD_MAX), min_size=4, max_size=4),
                  st.sampled_from([0, 1])),
        min_size=1, max_size=6,
    )
)
def test_design_csv_round_trip_is_exact_at_ten_significant_digits(runs):
    coords = [[float(format(c, ".10g")) for c in row] for row, _ in runs]
    design = Design(coords, [d for _, d in runs])
    again = Design.from_csv(design.to_csv())
    assert np.array_equal(again.coords, design.coords)
    assert np.array_equal(again.days, design.days)


def test_design_needs_one_day_flag_per_run():
    with pytest.raises(ValueError, match=re.escape("one day flag per run, got (1,)")):
        Design(np.zeros((2, 4)), [0])


def test_design_copies_its_coordinates():
    coords = np.zeros((2, 4))
    design = Design.from_coords(coords, day=1)
    coords[0, 0] = 1.0
    assert design.coords[0, 0] == 0.0
    with pytest.raises(ValueError):
        design.coords[0, 0] = 1.0
