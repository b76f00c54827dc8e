"""Paired A/B of perfbench's route_s: this checkout against a base checkout.

    python3 .github/workflows/perf_ab.py BASE_TREE [RESULTS.jsonl]

Runs perfbench's route-test1 (``--seconds 1``) and route-test6
(``--seconds 10``) untraced in both trees, three pairs, alternating which
tree goes first. Fails when any run fails its gates (perfbench exits 1
on a digest mismatch or a correctness failure) or when this tree's
median ``route_s`` of a workload exceeds the base's by more than
``route_s``'s bound in ``BENCHMARK.json``. Every run's result line goes
to RESULTS.jsonl (default ``perf-ab.jsonl``).
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parents[2]
WORKLOADS = (("route-test1", "1"), ("route-test6", "10"))
PAIRS = 3


def run(tree: Path, workload: str, seconds: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seconds", seconds, "--trace", "0"]
    return subprocess.run(cmd, cwd=tree, capture_output=True, text=True)


def main() -> int:
    base = Path(sys.argv[1]).resolve()
    out = Path(sys.argv[2] if len(sys.argv) > 2 else "perf-ab.jsonl")
    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "route_s")
    route_s = {(side, w): [] for side in ("base", "head") for w, _ in WORKLOADS}
    with out.open("w") as log:
        for pair in range(PAIRS):
            order = (("base", base), ("head", HEAD))[:: 1 if pair % 2 == 0 else -1]
            for workload, seconds in WORKLOADS:
                for side, tree in order:
                    proc = run(tree, workload, seconds)
                    # perfbench prints its result line last, also when a
                    # gate fails; a crash leaves stdout empty.
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
                    row = {"pair": pair + 1, "side": side, "workload": workload}
                    row.update(exit=proc.returncode, result=result)
                    log.write(json.dumps(row) + "\n")
                    if proc.returncode != 0:
                        sys.exit(f"{workload} failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
                    value = result["metrics"]["route_s"]["value"]
                    route_s[side, workload].append(value)
                    print(f"pair {pair + 1} {workload} {side}: route_s {value:.3f} s", flush=True)
    failed = False
    for workload, _ in WORKLOADS:
        was = statistics.median(route_s["base", workload])
        now = statistics.median(route_s["head", workload])
        verdict = "ok" if now <= was * (1 + bound) else "REGRESSION"
        failed |= verdict != "ok"
        print(f"{workload}: median route_s {was:.3f} -> {now:.3f} s "
              f"({now / was - 1:+.1%}, bound +{bound:.0%}) {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
