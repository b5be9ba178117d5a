"""Child-process side of the `verify` and `properties` workloads.

Usage (PYTHONPATH must name the package's `src` directory):

    python3 perfbench/bench_child.py checks NAME...
    python3 perfbench/bench_child.py properties SEED ROUND COUNT NAME...

Runs the named `Scoreboard` checks (and, for `properties`, the linear-form
identity on COUNT seeded triples) and prints one JSON line:
{"checks": [[name, ok, detail], ...]}.
"""

from __future__ import annotations

import json
import sys

from collatz_paradox import dynamics
from collatz_paradox.checks import Scoreboard

from bench_inputs import triples


def run_checks(names) -> list[list]:
    board = Scoreboard(threads=1)
    out = []
    for name in names:
        res = getattr(board, name)()
        out.append([name, bool(res.ok), res.detail])
    return out


def identity_sweep(seed: int, round_index: int, count: int) -> tuple[list, int]:
    """Check the linear-form identity on every seeded triple; one check result.

    Calls go through the module attribute, so a traced run sees each one."""
    bad = 0
    steps = 0
    for n, j, f in triples(seed, round_index, count):
        if not dynamics.trajectory(n, j, dynamics.Formalism(f)).check_identity():
            bad += 1
        steps += j
    return ["linear_form_identity", bad == 0, f"triples={count} violations={bad}"], steps


def main(argv: list[str]) -> int:
    if argv[:1] == ["checks"]:
        print(json.dumps({"checks": run_checks(argv[1:])}))
        return 0
    if argv[:1] == ["properties"] and len(argv) >= 4:
        seed, round_index, count = (int(a) for a in argv[1:4])
        sweep, _ = identity_sweep(seed, round_index, count)
        print(json.dumps({"checks": [sweep] + run_checks(argv[4:])}))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
