import math
from dataclasses import replace

import numpy as np
import pytest

from subfbm import ModelParams, processes, validation, warrant


def test_d_identity_draws_match_scalar_uniform(monkeypatch):
    # _check_d_identity draws its cases in one batch of standard uniforms;
    # mapped by lo + (hi - lo) u they are the cases of one rng.uniform call
    # per draw, bit for bit
    calls = []
    price = warrant.warrant_price

    def record(v, r, t, terms, params):
        calls.append((v, r, t, terms, params))
        return price(v, r, t, terms, params)

    monkeypatch.setattr(warrant, "warrant_price", record)
    assert validation._check_d_identity(7).passed

    rng = np.random.default_rng(7)
    want = []
    for _ in range(300):
        hurst = rng.uniform(0.5, 0.95)
        alpha = rng.uniform(max(0.501, 1.0 / (1.0 + hurst) + 1e-3), 1.0)
        params = ModelParams(
            alpha=alpha, hurst=hurst, sigma_v=rng.uniform(0.05, 2.0),
            sigma_r=rng.uniform(0.0, 2.0), rho=rng.uniform(-1.0, 1.0),
            mu_r=rng.uniform(-1.0, 2.0))
        terms = warrant.WarrantTerms(
            shares_outstanding=rng.uniform(0.5, 10.0),
            warrants_outstanding=rng.uniform(0.0, 5.0),
            shares_per_warrant=rng.uniform(0.2, 3.0),
            strike=rng.uniform(0.2, 3.0),
            maturity=rng.uniform(0.1, 2.0))
        t = rng.uniform(0.0, 0.95 * terms.maturity)
        v = rng.uniform(0.05, 5.0)
        r = rng.uniform(-0.5, 2.0)
        want.append((v, r, t, terms, params))
    assert calls == want


# planted faults of the fGn spectrum, each a fault in the map _fbm applies
_FGN_SPECTRUM = processes._fgn_spectrum


def _shifted_spectrum(hurst, n):
    return _FGN_SPECTRUM.__wrapped__(hurst + 0.02, n)


def _spectrum_without_sqrt2(hurst, n):
    w = _FGN_SPECTRUM.__wrapped__(hurst, n).copy()
    w[[0, n]] /= math.sqrt(2.0)
    return w


@pytest.mark.parametrize("spectrum", [_shifted_spectrum, _spectrum_without_sqrt2],
                         ids=["hurst-plus-0.02", "end-modes-without-sqrt2"])
def test_planted_spectrum_faults_fail_the_fbm_checks(monkeypatch, spectrum):
    monkeypatch.setattr(processes, "_fgn_spectrum", spectrum)
    for check in (validation._check_fbm_variance, validation._check_pair_correlation):
        res = check()
        assert not res.passed, res


def test_pair_sharing_normals_fails_the_pair_check(monkeypatch):
    # a (2,) batch whose second path reuses the normals of the first
    fbm_map = processes._fbm_map

    def shared(hurst, n, dt, normals):
        return fbm_map(hurst, n, dt, np.broadcast_to(normals[..., :1, :], normals.shape))

    monkeypatch.setattr(validation, "_fbm_map", shared)
    assert not validation._check_pair_correlation().passed


def test_fbm_checks_are_free_of_the_seed():
    # at seeds 22, 59 and 114 a 3-sigma test of sampled fBm paths fails;
    # every check passes there, and the exact fBm checks read the same at
    # every seed
    fbm = ("fBm endpoint variance", "fBm pair endpoint correlation")
    reports = {}
    for seed in (0, 22, 59, 114):
        results = validation.run_checks(quick=True, seed=seed)
        if seed:
            assert all(r.passed for r in results), [r for r in results if not r.passed]
        reports[seed] = [replace(r, elapsed_s=0.0) for r in results if r.name in fbm]
    assert [r.name for r in reports[0]] == list(fbm)
    assert all(reports[seed] == reports[0] for seed in reports)


def test_unknown_variant_is_rejected():
    with pytest.raises(ValueError, match="unknown variant 'paper-literal', expected one of"):
        validation.run_checks(quick=True, variant="paper-literal")
