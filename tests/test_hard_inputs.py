"""Inputs at the edge of the contract: every entry point fits them or
raises a documented ``AdaRidgeError``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adaridge import (
    Hyper,
    fit_em,
    fit_joint_mode,
    fit_ols,
    fit_ridge_gcv,
    select_eta,
    standardize,
)
from adaridge.errors import AdaRidgeError

ENTRY_POINTS = (
    lambda d: select_eta(d, method="laplace"),
    lambda d: select_eta(d, method="mc", draws=200),
    lambda d: fit_joint_mode(d, Hyper(-0.75)),
    lambda d: fit_em(d, Hyper(-1.0), variant="independent-prior"),
    lambda d: fit_em(d, Hyper(0.0), variant="explicit-sigma"),
    fit_ols,
    fit_ridge_gcv,
)


@settings(max_examples=60)
@given(n=st.integers(8, 60), p=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       choose=st.data())
def test_duplicated_and_near_collinear_columns_fit_or_raise(n, p, seed, choose):
    """One column is +-1 or +-2 times another plus noise of scale 0, 1e-12,
    1e-8 or 1e-4."""

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x[:, 0] + rng.standard_normal(n)
    copy, source = choose.draw(st.permutations(range(p)))[:2]
    factor = choose.draw(st.sampled_from([-2.0, -1.0, 1.0, 2.0]))
    noise = choose.draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]))
    x[:, copy] = factor * x[:, source] + noise * rng.standard_normal(n)
    data, _ = standardize(x, y)
    for entry in ENTRY_POINTS:
        try:
            entry(data)
        except AdaRidgeError:
            pass
