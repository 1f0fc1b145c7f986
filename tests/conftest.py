import pytest
from hypothesis import settings

import sirlyap as sl
from sirlyap import lyap_df, lyap_en

# the same examples on every run, and none replayed from an earlier one
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def p_df():
    return sl.ModelParams(beta=0.0002, gamma=0.032, mu=0.015, b_hat=3.0)


@pytest.fixture(scope="session")
def p_en():
    return sl.ModelParams(beta=0.0002, gamma=0.032, mu=0.015, b_hat=17.0)


@pytest.fixture(scope="session")
def lp_df(p_df):
    return lyap_df.select_df_params(p_df)


@pytest.fixture(scope="session")
def lp_df_ref(p_df):
    # override constants from the reference df scenario (configs/df.json)
    return lyap_df.select_df_params(p_df, mu0=0.0148, eps=0.0745)


@pytest.fixture(scope="session")
def lp_en(p_en):
    # feasibility witness from the reference endemic scenario (configs/endemic.json)
    return lyap_en.en_params_from(p_en, l_bar=340.0, lambda_hat2=0.01, k=0.0902)


@pytest.fixture(scope="session")
def ly_df(p_df, lp_df):
    return lyap_df.DiseaseFreeLyapunov(p_df, lp_df)


@pytest.fixture(scope="session")
def ly_en(p_en, lp_en):
    return lyap_en.EndemicLyapunov(p_en, lp_en)
