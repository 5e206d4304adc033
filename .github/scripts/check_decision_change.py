"""Refuse a decision change that the golden trace digests do not announce.

usage: python3 check_decision_change.py BASE_OUT HEAD_OUT BASE_GOLDEN HEAD_GOLDEN

BASE_OUT and HEAD_OUT are the stdout of ``perfbench/run.py`` run with the
same arguments at the base and at the head commit; each instance prints a
line ``trace <workload> seed=<seed> instance=<n> sha256=<hex>``.
``tests/integration/golden_traces.json`` is the declared decision
contract: a change that means to move decisions regenerates it.  So the
check exits 1, naming each differing instance, when a trace digest
differs while BASE_GOLDEN and HEAD_GOLDEN are byte-identical.  It also
exits 1 when either output holds no digest lines, since it then cannot
compare.
"""

from __future__ import annotations

import sys
from pathlib import Path


def digests(path: str) -> dict[str, str]:
    """``{"trace <workload> seed=<s> instance=<n>": sha256}`` of one run."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("trace ") and " sha256=" in line:
            instance, sha = line.rsplit(" sha256=", 1)
            out[instance] = sha
    return out


def _bytes(path: str) -> bytes | None:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return None


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print("usage: check_decision_change.py BASE_OUT HEAD_OUT "
              "BASE_GOLDEN HEAD_GOLDEN", file=sys.stderr)
        return 2
    base_out, head_out, base_golden, head_golden = argv
    base, head = digests(base_out), digests(head_out)
    for side, found in (("base", base), ("head", head)):
        if not found:
            print(f"no trace digests in the {side} output", file=sys.stderr)
            return 1
    changed = [k for k in sorted(set(base) | set(head), key=lambda k: (len(k), k))
               if base.get(k) != head.get(k)]
    if not changed:
        print(f"decisions unchanged: all {len(head)} trace digests equal "
              "the base's")
        return 0
    announced = _bytes(base_golden) != _bytes(head_golden)
    verdict = ("announced by a regenerated golden trace file" if announced
               else "UNANNOUNCED: the golden trace file is unchanged")
    print(f"{len(changed)} of {len(head)} trace digest(s) differ from the "
          f"base's, {verdict}:")
    for k in changed:
        print(f"  {k}: {base.get(k, '-')} -> {head.get(k, '-')}")
    return 0 if announced else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
