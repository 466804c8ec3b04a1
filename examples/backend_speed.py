#!/usr/bin/env python3
"""Walk the array-backend layer: dispatch, dtype policies, blocked kernels.

Run with::

    python examples/backend_speed.py [--trials T] [--rounds R] [--repeats K]
                                     [--backend NAME]

Every tensor operation in the batch, scenario, topology and dynamics
engines dispatches through ``repro.backend``.  This script shows the two
user-facing knobs and what the blocked analysis kernels buy:

1. **backend selection** — enumerate the registry with
   :func:`repro.backend.backend_specs` (an unavailable backend reports a
   skip reason, never crashes) and pin one with
   :func:`repro.backend.use_backend`; the ``REPRO_BACKEND`` environment
   variable does the same without code changes.  The NumPy reference
   backend is bit-identical to the pre-backend engines, its binomial draws
   included (randomness is drawn host-side).
2. **dtype policies** — ``wide`` (int64/bool/float64, the bit-exact
   default) versus ``compact`` (int32/uint8/float32): integer outputs stay
   exact, float statistics agree within the documented tolerance, memory
   traffic halves.
3. **blocked kernels** — the batch engine's mask and drawdown kernels walk
   cache-sized blocks of whole trials; the script times ``run_traces``
   against the unblocked reference composition (the reference fixed-Δ mask
   plus a whole-run cumsum / running-maximum drawdown) on the same
   pre-drawn tensors (the ``bench_backend.py`` gate holds this at
   >= 1.5x).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.backend import (
    COMPACT_STAT_RTOL,
    backend_specs,
    get_backend,
    use_backend,
    use_dtype_policy,
)
from repro.core.concat_chain import convergence_opportunity_mask
from repro.params import parameters_from_c
from repro.simulation import BatchSimulation, draw_mining_traces


def best_of(repeats, callable_):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def unblocked_analysis(honest, adversary, delta):
    """The unblocked reference: whole-run mask, then whole-run drawdown."""
    mask = convergence_opportunity_mask(honest, delta)
    difference = np.cumsum(mask.astype(np.int64) - adversary, axis=1)
    padded = np.concatenate(
        [np.zeros((difference.shape[0], 1), dtype=np.int64), difference], axis=1
    )
    deficits = (np.maximum.accumulate(padded, axis=1) - padded).max(axis=1)
    return mask.sum(axis=1), deficits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=256)
    parser.add_argument("--rounds", type=int, default=8_000)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument(
        "--backend",
        default="numpy",
        help="registry name to run the engine demo under (default: numpy)",
    )
    args = parser.parse_args(argv)
    params = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)

    # 1. The registry, with availability probed per backend.
    print("registered backends:")
    for name, spec in sorted(backend_specs().items()):
        if spec["available"]:
            detail = ", ".join(
                f"{key}={value}"
                for key, value in spec.items()
                if key not in ("name", "available")
            )
            print(f"  {name:10s} available" + (f" ({detail})" if detail else ""))
        else:
            print(f"  {name:10s} skipped: {spec['error']}")

    # 2. Bit-identical results under explicit selection, then the compact
    #    dtype policy's exact-integer / tolerant-float contract.
    with use_backend(args.backend):
        reference = BatchSimulation(params, rng=0).run(64, 2_000)
        with use_dtype_policy("compact"):
            compact = BatchSimulation(params, rng=0).run(64, 2_000)
    assert np.array_equal(
        reference.convergence_opportunities, compact.convergence_opportunities
    ), "compact integers must be exact"
    drift = abs(compact.mean_convergence_rate - reference.mean_convergence_rate)
    print(
        f"\ncompact dtype policy: integer outputs exact, mean-rate drift "
        f"{drift:.2e} (documented tolerance {COMPACT_STAT_RTOL:.0e} relative)"
    )

    # 3. Blocked kernels against the unblocked reference on the
    #    deterministic analysis half.
    with use_backend(args.backend):
        honest, adversary = draw_mining_traces(
            params, args.trials, args.rounds, rng=0
        )
        engine = BatchSimulation(params, rng=0)
        host = get_backend().to_host
        host_honest, host_adversary = host(honest), host(adversary)
        result = engine.run_traces(honest, adversary)
        opportunities, deficits = unblocked_analysis(
            host_honest, host_adversary, params.delta
        )
        assert np.array_equal(result.convergence_opportunities, opportunities)
        assert np.array_equal(result.worst_deficits, deficits)
        unblocked = best_of(
            args.repeats,
            lambda: unblocked_analysis(host_honest, host_adversary, params.delta),
        )
        blocked = best_of(args.repeats, lambda: engine.run_traces(honest, adversary))
    print(
        f"blocked kernels at {args.trials}x{args.rounds}: unblocked reference "
        f"{unblocked * 1e3:.2f}ms, blocked run_traces {blocked * 1e3:.2f}ms, "
        f"{unblocked / blocked:.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
