import numpy as np

from subfbm import ModelParams, validation, warrant


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
