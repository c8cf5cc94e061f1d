"""Digests of the fits the benchmark's workloads make, to check that a change
leaves them identical. A script, not a test module:

    python tests/fit_digest.py --seed 1 > change.txt
    python tests/fit_digest.py --root ../parent --seed 1 > parent.txt
    python tests/fit_digest.py --compare parent.txt change.txt

--root names the checkout whose src/attricom and bench/ are used (default:
the one holding this file), so one copy of the script serves both sides.
For one bench seed it runs one pass of each workload of bench/run.py, with
the benchmark's own inputs, settings and output checks, and prints one line
per family:

  planted-fit   every fit, whole and damaged;
  planted-auto  every candidate fit of detect -c auto, then its final fit
                (whose C is the pick), and the held-out scores;
  ff30k-detect  the 3-iteration detect fit.

A line gives the number of fits, the operations the benchmark's checks
failed, the sha256 of what must stay byte-identical (each fit's C, F, W,
nodes_updated, iterations_run and converged) and, as float hex, what may
move in the last bits when only summation order changes: each fit's final
objective parts and the held-out scores. --compare requires equal digests
and those numbers within 1e-12 relative, and exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

FAMILIES = ("planted-fit", "planted-auto", "ff30k-detect")
RTOL = 1e-12


def family_line(bench, ac, name: str, seed: int) -> str:
    workload = bench.WORKLOADS[name]()
    patches = bench.tracer.Patches()
    calls, scores = [], []  # (args, result, seconds) of fits and held-out scores
    if isinstance(workload, bench.Detect):
        workload.capture(patches)
    else:
        patches.wrap("attricom", "fit", bench.recorder(calls))
    patches.wrap("attricom.selection", "holdout_loglik", bench.recorder(scores))
    run = bench.Run()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            inputs = workload.setup(ac, seed, Path(tmp))
            for r in range(len(inputs)):
                workload.round(ac, inputs, r, run)
                if isinstance(workload, bench.Detect):  # it clears these per detect
                    calls += workload.candidates + workload.final
    finally:
        patches.restore()

    digest = hashlib.sha256()
    values = []
    for args, result, _ in calls:
        digest.update(repr((args[1], result.nodes_updated, result.iterations_run,
                            result.converged)).encode())
        digest.update(result.F.values.tobytes())
        digest.update(result.W.values.tobytes())
        final = result.objective_trace[-1]
        values += [final.l_graph, final.l_attr, final.l1_penalty, final.scaled_total]
    values += [score for _, score, _ in scores]
    return (f"{name} seed={seed} fits={len(calls)} failed={run.failed} "
            f"exact={digest.hexdigest()} values={','.join(float.hex(v) for v in values)}")


def compare(old_path: str, new_path: str) -> int:
    def read(path):
        return {tuple(line.split()[:2]): dict(f.split("=", 1) for f in line.split()[1:])
                for line in Path(path).read_text().splitlines() if line.strip()}

    old, new = read(old_path), read(new_path)
    bad = 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            print(f"{' '.join(key)}: only in {new_path if a is None else old_path}")
            bad += 1
            continue
        xs, ys = ([float.fromhex(v) for v in d["values"].split(",") if v] for d in (a, b))
        worst = max((abs(x - y) / max(abs(x), abs(y), 1e-300) for x, y in zip(xs, ys)),
                    default=0.0)
        same = all(a[f] == b[f] for f in ("fits", "failed", "exact"))
        ok = same and len(xs) == len(ys) and worst <= RTOL and a["failed"] == "0"
        bad += not ok
        print(f"{' '.join(key)}: {'ok' if ok else 'DIFFERENT'} (exact parts "
              f"{'equal' if same else 'differ'}, failed {a['failed']}/{b['failed']}, "
              f"largest relative difference {worst:.3g} over {len(xs)} values)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--family", choices=FAMILIES, action="append")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    sys.path[:0] = [str(args.root / "src"), str(args.root / "bench")]
    import attricom as ac
    import attricom.cli  # noqa: F401  (the bench looks up ac.cli at call time)
    import run as bench
    for name in args.family or FAMILIES:
        print(family_line(bench, ac, name, args.seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
