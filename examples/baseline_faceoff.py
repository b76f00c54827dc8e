#!/usr/bin/env python3
"""Head-to-head: the proposed router vs all three baselines (Tables III/IV).

Generates one scaled Test1 instance (fixed pins) and one scaled Test6
instance (multiple pin candidate locations), routes each with every
applicable router, and prints the comparison rows the paper reports.

Run:  python examples/baseline_faceoff.py           # quick, scaled
      REPRO_SCALE=0.35 python examples/baseline_faceoff.py   # bigger
"""

import os

from repro.bench import (
    FIXED_PIN_BENCHMARKS,
    MULTI_PIN_BENCHMARKS,
    rows_to_table,
    run_cell,
)
from repro.bench.runner import comparison_summary


def main() -> None:
    scale = float(os.environ.get("REPRO_SCALE", "0.2"))

    fixed = FIXED_PIN_BENCHMARKS[0]
    print(f"routing {fixed.name} at scale {scale} ...")
    ours = run_cell(fixed, scale=scale)
    gao = run_cell(fixed, router="gao-pan", label="gao-pan[11]", scale=scale)
    cut16 = run_cell(fixed, router="cut16", label="cut[16]", scale=scale)
    print()
    print(rows_to_table([ours, gao, cut16], caption="fixed-pin face-off (Table III shape)"))
    print(comparison_summary([ours], [gao]))
    print(comparison_summary([ours], [cut16]))
    print()

    multi = MULTI_PIN_BENCHMARKS[0]
    print(f"routing {multi.name} at scale {scale} ...")
    ours_m = run_cell(multi, scale=scale)
    du = run_cell(
        multi,
        router="du",
        label="du[10]",
        scale=scale,
        router_options={"time_budget_s": 300.0},
    )
    print()
    print(rows_to_table([ours_m, du], caption="multi-candidate face-off (Table IV shape)"))
    print(comparison_summary([ours_m], [du]))

    assert ours.conflicts == 0 and ours_m.conflicts == 0


if __name__ == "__main__":
    main()
