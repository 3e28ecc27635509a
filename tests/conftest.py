import math

import pytest

from subfbm import ModelParams, WarrantTerms


@pytest.fixture
def unit_params():
    # the unit-parameter market used throughout: all drifts/vols/levels 1,
    # rho = 0.5, alpha = 0.9, H = 0.7
    return ModelParams()


@pytest.fixture
def bs_market():
    """Classical Black-Scholes corner: deterministic rate, plain Brownian asset."""
    terms = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.0,
                         shares_per_warrant=1.0, strike=100.0, maturity=1.0)
    params = ModelParams(alpha=1.0, hurst=0.5, sigma_v=0.2, sigma_r=0.0,
                         mu_r=0.0, rho=0.0)
    return terms, params


@pytest.fixture
def bs_call():
    def price(spot, strike, r, sigma, tau):
        sq = sigma * math.sqrt(tau)
        d1 = (math.log(spot / strike) + (r + 0.5 * sigma * sigma) * tau) / sq
        nd = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
        return spot * nd(d1) - strike * math.exp(-r * tau) * nd(d1 - sq)

    return price
