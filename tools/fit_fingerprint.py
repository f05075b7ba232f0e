"""Print sha256 digests over the bits of a fixed sweep of fits and of a
Monte-Carlo k-sweep study, so that two source trees can be checked for
bit-identical fitting and MC selection.

    python3 tools/fit_fingerprint.py [--seeds N]

The sweep draws designs 0-3 at n = 20, 50 and 100 with seeds 0..N-1
(default 15), standardizes each draw, and fits:

* ``fit_joint_mode`` at every point of ``DEFAULT_ETA_GRID``: ``beta``, the
  finite ``v_inv``, ``sigma2``, the iteration count, ``converged``,
  ``active_count_trace`` and ``log_joint_trace``, and, for a fit with a
  live coordinate and ``eta > -0.5``, the mode ``solver._polished_mode``
  returns under ``Hyper(eta, mu=EVIDENCE_MU)``;
* ``fit_em`` at four values of ``eta`` per variant: ``beta``,
  ``s2_trace``, the iteration count and ``active``.

A fit or polish that raises contributes its error's type and message.

The study digest covers the records ``run_replication`` returns for
replications 0..N-1 of a design-3, n = 20 config with MC evidence at the
four widths of ``DEFAULT_K_SWEEP`` and the estimators ``aris-eb``,
``aris-eta0`` and ``aris-path``: every key and value, a failed
replication contributing its error.

The output is two lines, the number of fits with their digest and the
number of replications with theirs; both depend only on the package under
``src/`` of the tree this script sits in.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from adaridge import (  # noqa: E402
    DEFAULT_ETA_GRID,
    DEFAULT_K_SWEEP,
    EVIDENCE_MU,
    AdaRidgeError,
    DgpSpec,
    ExperimentConfig,
    Hyper,
    draw_dataset,
    fit_em,
    fit_joint_mode,
    standardize,
)
from adaridge.experiment import run_replication  # noqa: E402
from adaridge.solver import _polished_mode  # noqa: E402

DESIGNS = (0, 1, 2, 3)
SIZES = (20, 50, 100)
SIGMA = 3.0
EM_ETAS = {"independent-prior": (-1.0, 0.0, 1.0, 4.0),
           "explicit-sigma": (-0.25, 0.0, 1.0, 4.0)}


def feed(digest, *values) -> None:
    """Add each value's type tag and bits to ``digest``."""

    for value in values:
        if isinstance(value, np.ndarray):
            digest.update(f"a{value.dtype.str}{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, float):
            digest.update(f"f{value.hex()}".encode())
        else:
            digest.update(f"{type(value).__name__}:{value!r};".encode())


def joint(digest, data, eta) -> None:
    fit = fit_joint_mode(data, Hyper(eta))
    state = fit.state
    feed(digest, state.beta, state.v_inv[state.active], state.sigma2,
         fit.iterations, fit.converged, fit.active_count_trace, fit.log_joint_trace)
    if state.active.any() and eta > -0.5:
        try:
            feed(digest, *_polished_mode(fit, data, Hyper(eta, mu=EVIDENCE_MU)))
        except AdaRidgeError as err:
            feed(digest, type(err).__name__, str(err))


def em(digest, data, eta, variant) -> None:
    fit = fit_em(data, Hyper(eta), variant=variant)
    feed(digest, fit.beta, fit.s2_trace, fit.iterations, fit.active)


def fingerprint(seeds: int) -> tuple[int, str]:
    """``(fits, digest)`` over the sweep with seeds ``0..seeds-1``."""

    digest, fits = hashlib.sha256(), 0
    for model_id in DESIGNS:
        for n in SIZES:
            for seed in range(seeds):
                raw, _ = draw_dataset(DgpSpec(model_id, n, SIGMA, seed))
                data, _ = standardize(raw.x, raw.y)
                calls = [(joint, (eta,)) for eta in DEFAULT_ETA_GRID]
                calls += [(em, (eta, variant)) for variant, etas in EM_ETAS.items()
                          for eta in etas]
                for fit, args in calls:
                    feed(digest, fit.__name__, model_id, n, seed, *args)
                    try:
                        fit(digest, data, *args)
                    except (AdaRidgeError, ValueError) as err:
                        feed(digest, type(err).__name__, str(err))
                    fits += 1
    return fits, digest.hexdigest()


def study_fingerprint(seeds: int) -> str:
    """Digest of the MC k-sweep study's records for replications
    ``0..seeds-1``."""

    config = ExperimentConfig(3, 20, SIGMA, seeds, test_size=1000,
                              evidence_method="mc", k_sweep=DEFAULT_K_SWEEP,
                              estimators=("aris-eb", "aris-eta0", "aris-path"))
    digest = hashlib.sha256()
    for rep in range(seeds):
        try:
            for record in run_replication(config, rep):
                for key, value in record.items():
                    feed(digest, key, value)
        except (AdaRidgeError, ValueError) as err:
            feed(digest, rep, type(err).__name__, str(err))
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=15,
                        help="seeds 0..N-1 per design and size (default: 15)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    fits, digest = fingerprint(args.seeds)
    print(f"{fits} fits sha256 {digest}")
    print(f"{args.seeds} mc-sweep replications sha256 {study_fingerprint(args.seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
