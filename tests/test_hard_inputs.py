"""Inputs at the edge of the contract: every entry point fits them or
raises a documented ``AdaRidgeError``, and the CLI exits with a
documented code."""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
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
from adaridge.cli import main
from adaridge.errors import AdaRidgeError
from adaridge.evidence import DEFAULT_ETA_GRID

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


# near-exact fits reach the documented MC clamp, which warns
@pytest.mark.filterwarnings("ignore:conditional marginal:RuntimeWarning")
@settings(max_examples=80)
@given(n=st.integers(1, 11), p=st.integers(1, 15), seed=st.integers(0, 2**32 - 1),
       choose=st.data())
def test_small_wide_and_scaled_inputs_exit_or_raise_as_documented(n, p, seed, choose):
    """``adaridge fit`` exits 0, 2 or 3, and ``select_eta`` returns or raises
    an ``AdaRidgeError`` or a ``ValueError``, on tiny n, p >= n, column
    scales ``exp(U(-8, 8))``, a duplicated column or a constant response,
    at extreme ``eta`` and under either evidence method."""

    rng = np.random.default_rng(seed)
    scales = choose.draw(st.lists(st.floats(-8.0, 8.0), min_size=p, max_size=p))
    x = rng.standard_normal((n, p)) * np.exp(scales)
    y = x[:, 0] + rng.standard_normal(n)
    if p > 1 and choose.draw(st.booleans()):
        copy, source = choose.draw(st.permutations(range(p)))[:2]
        x[:, copy] = x[:, source]
    if choose.draw(st.booleans()):
        y[:] = choose.draw(st.sampled_from([0.0, 1.5]))
    eta = choose.draw(st.sampled_from(["eb", "-0.99", "-0.45", "0", "50", "1e6"]))
    method = choose.draw(st.sampled_from(["laplace", "mc"]))
    draws = choose.draw(st.integers(1, 20))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w") as fh:
            fh.write(",".join([f"x{j}" for j in range(p)] + ["y"]) + "\n")
            for row, yi in zip(x, y):
                fh.write(",".join(map(repr, [*map(float, row), float(yi)])) + "\n")
        argv = ["fit", path, "--eta", eta, "--evidence", method, "--draws", str(draws)]
        if eta != "eb":
            argv.append("--evidence-value")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3)

    grid = DEFAULT_ETA_GRID if eta == "eb" else [float(eta)]
    try:
        data, _ = standardize(x, y)
        select_eta(data, grid, method, draws=draws)
    except (AdaRidgeError, ValueError):
        pass
