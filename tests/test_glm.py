
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from augdesign import (
    GLOBAL_FACTORS,
    Design,
    InvalidPredictorError,
    Link,
    MissingGammaError,
    ModelSpec,
    ParamPoint,
    Term,
    TermKind,
    fisher_info,
    fit,
    predict,
    regressor_matrix,
)
from augdesign import data
from augdesign.information import require_inside, weighted_gram
from mp_oracle import mp_regressors

coords_strategy = st.tuples(
    *[st.floats(-2, 2, allow_nan=False) for _ in GLOBAL_FACTORS]
)


class TestLink:
    def test_identity_mean(self):
        assert Link.IDENTITY.mean(3.5) == 3.5

    def test_inverse_mean(self):
        assert Link.INVERSE.mean(0.25) == 4.0

    def test_log_mean(self):
        assert Link.LOG.mean(0.0) == 1.0

    @pytest.mark.parametrize("link", [Link.IDENTITY, Link.INVERSE])
    def test_nonpositive_predictor_rejected(self, link):
        # The link flags 0 and -1 and maps them without raising;
        # require_inside raises at the API edge.
        assert link.outside_domain(0.0) and link.outside_domain(-1.0)
        with np.errstate(divide="ignore"):
            assert link.weight(0.0) == np.inf and link.weight(-1.0) == 1.0
        assert link.mean(-1.0) == -1.0
        eta = np.array([0.5, 0.0, -1.0, 2.0])
        assert link.outside_domain(eta).tolist() == [False, True, True, False]
        spec = ModelSpec("m", link, ("L",), (Term.intercept(), Term.main(0)))
        with pytest.raises(InvalidPredictorError, match="under model 'm'"):
            require_inside(spec, ~link.outside_domain(eta), "the design")

    def test_log_weight_is_one(self):
        assert Link.LOG.weight(-7.0) == 1.0

    @pytest.mark.parametrize("link", [Link.IDENTITY, Link.INVERSE])
    def test_weight_is_inverse_square(self, link):
        assert link.weight(4.0) == pytest.approx(1 / 16)

    @pytest.mark.parametrize("link", [Link.IDENTITY, Link.INVERSE])
    def test_weight_domain(self, link):
        # weighted_gram flags exactly the matrices holding a predictor of 0
        # or -1, and weights the others by 1/eta^2.
        Z = np.arange(1.0, 19.0).reshape(3, 3, 2)
        eta = np.array([[4.0, 0.5, 2.0], [4.0, 0.0, 2.0], [-1.0, 0.5, 2.0]])
        grams, inside = zip(*map(weighted_gram, [link] * 3, Z, eta))
        assert inside == (True, False, False)
        assert all(type(flag) is bool for flag in inside)
        assert np.isfinite(grams).all()
        want = (Z[0] * link.weight(eta[0])[:, None]).T @ Z[0]
        np.testing.assert_array_equal(grams[0], want)

    @pytest.mark.parametrize("link", list(Link))
    def test_eta_inverts_mean(self, link):
        mu = np.array([0.05, 1.0, 7.5, 1500.0])
        assert link.mean(link.eta(mu)) == pytest.approx(mu, rel=1e-12)

    @pytest.mark.parametrize("link", list(Link))
    def test_dmu_matches_finite_difference(self, link):
        mu = np.array([0.05, 2.0, 7.5, 1500.0])
        eta = link.eta(mu)
        h = 1e-6 * np.abs(eta)
        slope = (link.mean(eta + h) - link.mean(eta - h)) / (2.0 * h)
        assert link.dmu(mu) == pytest.approx(slope, rel=1e-6)


class TestTerm:
    def test_interaction_is_order_free(self):
        assert Term.interaction(2, 0) == Term.interaction(0, 2)

    def test_interaction_needs_distinct_factors(self):
        with pytest.raises(ValueError):
            Term.interaction(1, 1)

    def test_values(self):
        spec = ModelSpec(
            "m", Link.LOG, ("L", "K", "FDV"),
            (Term.intercept(), Term.main(1), Term.square(0),
             Term.interaction(0, 2)),
        )
        z = regressor_matrix(spec, [(1.5, -2.0, 0.25, 0.5)])
        assert z.tolist() == [[1.0, -2.0, 2.25, 0.75]]

    @pytest.mark.parametrize("kind, a, b", [
        (TermKind.MAIN, -1, -1),
        (TermKind.SQUARE, -2, -1),
        (TermKind.MAIN, 0, 0),
        (TermKind.MAIN, 0, 1),
        (TermKind.SQUARE, 1, 1),
        (TermKind.INTERCEPT, 0, -1),
        (TermKind.INTERCEPT, -1, 2),
        (TermKind.INTERACTION, 1, 1),
        (TermKind.INTERACTION, 0, -1),
        (TermKind.INTERACTION, -1, 2),
        (TermKind.MAIN, True, -1),
        (TermKind.MAIN, 0.5, -1),
        ("main", 0, -1),
    ])
    def test_malformed_term_is_rejected(self, kind, a, b):
        with pytest.raises(ValueError):
            Term(kind, a, b)

    def test_interaction_stores_its_indices_in_order(self):
        term = Term(TermKind.INTERACTION, 2, 0)
        assert (term.a, term.b) == (0, 2)
        assert term == Term.interaction(0, 2)


@st.composite
def model_specs(draw):
    """Valid specs: distinct factors, the intercept first, then distinct
    terms over them, interactions drawn in either order."""
    factors = draw(st.permutations(GLOBAL_FACTORS).flatmap(
        lambda order: st.integers(0, 4).map(lambda q: tuple(order[:q]))))
    q = len(factors)
    candidates = [Term.main(i) for i in range(q)] + [Term.square(i) for i in range(q)]
    candidates += [Term(TermKind.INTERACTION, *pair)
                   for pair in itertools.permutations(range(q), 2)]
    terms = draw(st.lists(st.sampled_from(candidates), unique=True)) if q else []
    return ModelSpec(draw(st.text(max_size=5)), draw(st.sampled_from(list(Link))),
                     factors, (Term.intercept(), *terms))


class TestModelSpec:
    def test_intercept_must_come_first(self):
        with pytest.raises(ValueError):
            ModelSpec("m", Link.LOG, ("L",), (Term.main(0), Term.intercept()))

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(
                "m", Link.LOG, ("L",),
                (Term.intercept(), Term.main(0), Term.main(0)),
            )

    def test_term_index_bounds_checked(self):
        with pytest.raises(ValueError):
            ModelSpec("m", Link.LOG, ("L",), (Term.intercept(), Term.main(1)))

    def test_unknown_factor_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("m", Link.LOG, ("Q",), (Term.intercept(),))

    def test_repeated_factor_rejected(self):
        with pytest.raises(ValueError, match="factor 'L' is named twice"):
            ModelSpec("m", Link.LOG, ("L", "K", "L"), (Term.intercept(), Term.main(1)))

    def test_repeated_factor_rejected_from_dict(self):
        d = {"name": "m", "link": "log", "factors": ["L", "L"],
             "terms": [["intercept"], ["main", "L"]]}
        with pytest.raises(ValueError, match="factor 'L' is named twice"):
            ModelSpec.from_dict(d)

    @pytest.mark.parametrize("name", data.RESPONSES)
    def test_json_round_trip(self, name):
        spec = data.MODELS[name]
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    @given(spec=model_specs())
    def test_json_round_trip_of_generated_specs(self, spec):
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    def test_global_indices(self):
        assert data.MODELS["temperature"].global_indices == (0, 1, 2)
        assert data.MODELS["velocity"].global_indices == (0, 1, 2, 3)

    def test_term_counts(self):
        expected = {"temperature": 5, "velocity": 7,
                    "flame_width": 6, "flame_intensity": 9}
        for name, p in expected.items():
            assert data.MODELS[name].p == p


class TestRun:
    def test_out_of_box_coordinate_rejected(self):
        with pytest.raises(ValueError):
            Design.from_coords((0.0, 0.0, 2.5, 0.0))

    def test_bad_day_rejected(self):
        with pytest.raises(ValueError):
            Design.from_coords((0.0, 0.0, 0.0, 0.0), day=2)


def to_double(v):
    """``v`` rounded once to the nearest double.  ``float(v)`` rounds to 53
    bits and then again to the subnormal grid, so it can miss by an ulp."""
    man, exp = v.man_exp  # man is the magnitude
    x = float(Fraction(man) * Fraction(2) ** exp)
    return -x if v < 0 else x


def oracle_matrix(spec, coords):
    """The 50-digit regressors of ``mp_oracle``, each rounded to a double."""
    return np.array(
        [[to_double(v) for v in row] for row in mp_regressors(spec, coords)]
    ).reshape(len(coords), spec.p)


BOX_CORNERS = np.array(list(itertools.product((-2.0, 2.0), repeat=4)))


class TestRegressor:
    def test_center_run_is_intercept_only(self):
        z = regressor_matrix(data.MODELS["flame_intensity"], [(0, 0, 0, 0)])[0]
        assert z[0] == 1.0
        assert np.all(z[1:] == 0.0)

    def test_inactive_factor_ignored(self):
        spec = data.MODELS["temperature"]
        Z = regressor_matrix(spec, [(1.0, -1.0, 0.5, -2.0), (1.0, -1.0, 0.5, 2.0)])
        assert np.array_equal(Z[0], Z[1])

    @pytest.mark.parametrize("name", data.RESPONSES)
    @given(rows=st.lists(coords_strategy, min_size=1, max_size=6))
    @example(rows=BOX_CORNERS.tolist())
    @example(rows=data.CCD30[:, :4].tolist())
    @example(rows=[(0.0, 0.0, 1.3671875, 2.225073858507203e-309)])
    def test_matrix_equals_oracle(self, name, rows):
        spec = data.MODELS[name]
        coords = np.array(rows)
        Z = regressor_matrix(spec, coords)
        assert Z.shape == (len(rows), spec.p)
        assert Z.flags.c_contiguous
        assert np.array_equal(Z, oracle_matrix(spec, coords))


class TestLinearPredictor:
    def test_day_shift(self):
        merged = data.ccd_dataset().concat(data.reference_augment_dataset())
        model = fit(data.MODELS["temperature"], merged, "temperature",
                    include_day_effect=True)
        centre = Design(np.zeros((2, 4)), [0, 1])
        base, shifted = predict(model, centre)
        assert shifted - base == pytest.approx(model.gamma_hat)

    def test_missing_gamma(self):
        spec = data.MODELS["temperature"]
        params = ParamPoint(data.ESTIMATES["temperature"].beta)
        with pytest.raises(MissingGammaError):
            fisher_info(spec, params, Design.from_coords((0, 0, 0, 0), day=1))

    def test_beta_length_checked(self):
        with pytest.raises(ValueError):
            fisher_info(
                data.MODELS["temperature"], ParamPoint((1.0,), 0.0),
                Design.from_coords((0, 0, 0, 0)),
            )

    @pytest.mark.parametrize("with_day_effect", [True, False])
    def test_predictor_outside_the_domain_names_the_model(self, with_day_effect):
        # An intercept of -1 gives the centre run a predictor of -1.
        base = data.ESTIMATES["temperature"]
        params = ParamPoint((-1.0, *base.beta[1:]), base.gamma)
        with pytest.raises(InvalidPredictorError, match="model 'temperature'"):
            fisher_info(data.MODELS["temperature"], params, data.initial_design(),
                        with_day_effect=with_day_effect)
