import numpy as np
import pytest

from augdesign import ParamPoint, Scenario, data

# Locked transcription digests for the bundled tables.
EXPECTED_CHECKSUMS = {
    "ccd30": "307044f5a00506664e71f06a653901b2bfd5f08d48fd16f8f734186227783e5a",
    "validation14": "ed5de1eee3ef61cd6019f2d16d94bce978e79a214aa3ced67e81b47cd678783b",
    "optimal_augment": "e771de790950245be8e97a4911b90613919d1759001aa6fa101332d04841d3a8",
    "reference_augment": "9417979fa8cdac7490275dd510e12ef666e06b3b5582f8d15fa1b68e52bcc91a",
    "reference_design": "7013dacd1e435310ce799d63a8e94c2015f199c4a258c06650a897f7bcd89b20",
    "estimates": "c70ab75ae7fa5203499ea96b15ada9c67670de1198f3e6ae0aee969df929a419",
}


def test_shapes():
    assert data.CCD30.shape == (30, 8)
    assert data.VALIDATION14.shape == (14, 8)
    assert data.OPTIMAL_AUGMENT.shape == (4, 8)
    assert data.REFERENCE_AUGMENT.shape == (4, 8)


def test_datasets():
    assert len(data.ccd_dataset()) == 30
    assert len(data.validation_dataset()) == 14
    assert all(data.ccd_dataset().days == 0)
    assert all(data.validation_dataset().days == 1)
    assert set(data.ccd_dataset().responses) == set(data.RESPONSES)


def test_reference_design_is_four_day1_runs():
    assert len(data.REFERENCE_DESIGN) == 4
    assert np.all(data.REFERENCE_DESIGN.days == 1)


def test_published_designs_all_bundled():
    for name, design in data.PUBLISHED_DESIGNS.items():
        assert len(design) == 4, name
        assert np.all(design.days == 1), name
        assert np.all(np.abs(design.coords) <= 2.0), name


def test_estimate_lengths_match_models():
    for name in data.RESPONSES:
        assert len(data.ESTIMATES[name].beta) == data.MODELS[name].p
        assert len(data.STD_ERRORS[name]) == data.MODELS[name].p
        assert data.ESTIMATES[name].gamma == data.DAY_GAMMAS[name]


def test_gamma_values():
    assert data.DAY_GAMMAS == {
        "temperature": -16.0,
        "velocity": 0.01,
        "flame_width": 0.002,
        "flame_intensity": 0.09,
    }


def test_ensemble_sizes():
    assert len(data.model_ensemble("fixed").scenarios) == 4
    assert len(data.model_ensemble("pm10").scenarios) == 12
    assert len(data.model_ensemble("pm10pm20").scenarios) == 20


@pytest.mark.parametrize(
    "gammas, factors",
    [
        ("fixed", (1.0,)),
        ("pm10", (0.9, 1.0, 1.1)),
        ("pm10pm20", (0.8, 0.9, 1.0, 1.1, 1.2)),
    ],
)
def test_default_ensemble_is_bundled_models_by_gamma_factor(gammas, factors):
    got = [(s.spec, s.params) for s in data.model_ensemble(gammas).scenarios]
    want = [
        (data.MODELS[name],
         ParamPoint(data.ESTIMATES[name].beta, data.ESTIMATES[name].gamma * c))
        for name in data.RESPONSES
        for c in factors
    ]
    assert got == want


def test_ensemble_expands_given_scenarios():
    base = [Scenario(data.MODELS["velocity"], data.ESTIMATES["velocity"])]
    ens = data.model_ensemble("pm10", 4, base)
    gamma = data.ESTIMATES["velocity"].gamma
    assert [s.params.gamma for s in ens.scenarios] == [
        gamma * 0.9, gamma * 1.0, gamma * 1.1
    ]
    assert all(s.spec is base[0].spec for s in ens.scenarios)


def test_checksums_are_stable():
    sums = data.table_checksums()
    assert set(sums) == set(EXPECTED_CHECKSUMS)
    for name, expect in EXPECTED_CHECKSUMS.items():
        assert sums[name] == expect, f"{name} transcription changed"
