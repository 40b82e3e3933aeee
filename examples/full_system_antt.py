#!/usr/bin/env python3
"""ANTT on one mix (the paper's headline metric, Figure 7).

Runs a multiprogrammed mix under AlloyCache and under the Bi-Modal cache
— each program both shared and standalone, per the Section IV protocol —
and reports the ANTT improvement (one of Figure 7's per-mix bars). The
row is the one ``python -m repro run fig7 --mixes <mix>`` prints.

Usage:
    python examples/full_system_antt.py [mix-name] [accesses-per-core]
"""

import sys

from repro.harness import ExperimentSetup, print_table
from repro.harness.experiments import fig7_antt


def main() -> None:
    mix_name = sys.argv[1] if len(sys.argv) > 1 else "Q7"
    accesses = int(sys.argv[2]) if len(sys.argv) > 2 else 10_000
    setup = ExperimentSetup(num_cores=4, accesses_per_core=accesses, seed=1)

    row = fig7_antt(setup=setup, mix_names=[mix_name])[0]
    print_table([row], title=f"ANTT on mix {mix_name} ({accesses} accesses/core)")
    print(
        f"\nBi-Modal ANTT improvement over AlloyCache: "
        f"{row['improvement_pct']:+.1f}% (paper's 4-core average: +10.8%)"
    )


if __name__ == "__main__":
    main()
