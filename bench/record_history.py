"""Record the construction histories of the benchmark's fixed tables.

Run from the root of a checkout: ``python3 bench/record_history.py``.
The constructions workload compares every run of these tables with the
file this writes, so a change to the construction cannot change the history
users see. Re-record only when the history is meant to change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import inputs  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    from ulmkit.construct import PredicateTable, run_construction

    sizes = inputs.CONSTRUCTIONS
    histories = []
    for t in inputs.fixed_tables(sizes):
        table = PredicateTable(t["bound"], t["trues"], t["cofinal"])
        run = run_construction(table, sizes["stages"], window=sizes["window"])
        histories.append([list(h) for h in run.history])
    with open(workloads.EXPECTED_HISTORY, "w", encoding="utf-8") as fh:
        json.dump({"stages": sizes["stages"], "window": sizes["window"], "histories": histories}, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
