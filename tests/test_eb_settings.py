"""``select_eta``, an experiment config and ``adaridge fit`` accept exactly
the same empirical-Bayes settings, and reject the others with the same
message, each naming the setting as its caller calls it."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import adaridge.evidence as ev
from adaridge import AdaRidgeError, ExperimentConfig, select_eta, standardize
from adaridge.cli import _fit_settings, _ParseError, build_parser

ETAS = st.one_of(st.floats(-2.0, 40.0),
                 st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -2.0,
                                  None, "0.5"]))
# about half the grids and box widths are drawn valid, so that acceptance
# is tested too
GRIDS = st.one_of(
    st.lists(st.floats(-1.0, 40.0, exclude_min=True), min_size=1, max_size=3).map(sorted),
    st.lists(ETAS, max_size=3))
KS = st.one_of(st.floats(0.0, 2000.0, exclude_min=True),
               st.sampled_from([0.0, -0.0, -3.0, math.nan, math.inf, -math.inf,
                                "3", True]))
# draw counts: small integers, numpy's among them, and non-integers, True
# among them
DRAWS = st.one_of(st.integers(0, 3),
                  st.sampled_from([np.int64(2), 2.5, 1.0, math.nan, "2", True]))
# seeds: integers either side of 0, numpy's among them, and non-integers,
# True among them
SEEDS = st.one_of(st.integers(-3, 3),
                  st.sampled_from([np.int64(5), np.int64(-1), 1.0, 2.5, True]))
# select_eta's names, then the config key and the fit flag for each
NAMES = {"grid": ("eta_grid", "--grid"), "k": ("k_sweep", "--k"),
         "draws": ("mc_draws", "--draws"), "seed": ("master_seed", "--seed")}

_rng = np.random.default_rng(17)
_X = _rng.standard_normal((30, 3))
_Y = _X @ np.array([2.0, 0.0, 1.0]) + _rng.standard_normal(30)


def rejection(call, error=ValueError) -> str | None:
    try:
        call()
    except error as exc:
        return str(exc)
    except AdaRidgeError:   # accepted, then every grid point failed
        pass
    return None


@given(grid=GRIDS, method=st.sampled_from(["laplace", "mc"]),
       k=KS, draws=DRAWS, seed=SEEDS)
def test_one_rule_for_every_entry_point(grid, method, k, draws, seed):
    data = standardize(_X, _Y)[0]
    by_library = rejection(lambda: select_eta(data, grid, method, k=k, draws=draws,
                                              seed=seed))
    if by_library is not None:
        assert data._memo == {}   # rejected before any fit
    by_config = rejection(lambda: ExperimentConfig(
        3, 40, 3.0, 1, eta_grid=tuple(grid), evidence_method=method,
        k_sweep=(k,), mc_draws=draws, master_seed=seed, estimators=("aris-eb",)))
    # argparse would read a value such as "-inf" as a flag, so the
    # namespace takes the parser's defaults and then the drawn values
    args = build_parser().parse_args(["fit", "data.csv"])
    args.grid, args.evidence, args.k, args.draws = list(grid), method, k, draws
    args.seed = seed
    by_cli = rejection(lambda: _fit_settings(args), _ParseError)

    if any(value is True for value in (k, draws, seed)):
        assert by_library is not None   # a bool is not a number
    if by_library is None:
        assert by_config is None and by_cli is None
    else:
        name, rest = by_library.split(" ", 1)
        assert by_config == f"{NAMES[name][0]} {rest}"
        assert by_cli == f"{NAMES[name][1]} {rest}"


@pytest.mark.parametrize("method", ["laplace", "mc"])
def test_negative_seed_fails_before_any_fit(monkeypatch, method):
    calls = []
    real = ev.fit_joint_mode

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ev, "fit_joint_mode", counted)
    data = standardize(_X, _Y)[0]
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
        select_eta(data, method=method, seed=-1)
    assert calls == []
    select_eta(data, method=method, seed=0, draws=20)
    assert calls
