"""Paired A/B of perfbench timings: this checkout against a base checkout.

    python3 .github/workflows/perf_ab.py BASE_TREE [RESULTS.jsonl]

Runs perfbench's route-test1 (``--seconds 1``), route-test6
(``--seconds 10``) and service-mix (its fixed 100 jobs) untraced in both
trees, three pairs, alternating which tree goes first. Fails when any run
fails its gates (perfbench exits 1 on a digest mismatch or a correctness
failure) or when this tree's median of a workload's gated metric exceeds
the base's by more than that metric's bound in ``BENCHMARK.json``: the
route workloads gate ``route_s``, service-mix gates ``job_p50_s``, which
covers decompose, verify, the pipeline and the service besides routing.
Every run's result line goes to RESULTS.jsonl (default ``perf-ab.jsonl``).
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parents[2]
#: (workload, --seconds, gated metric); --seconds does not bound
#: service-mix, whose run is its job list.
WORKLOADS = (
    ("route-test1", "1", "route_s"),
    ("route-test6", "10", "route_s"),
    ("service-mix", "30", "job_p50_s"),
)
PAIRS = 3


def run(tree: Path, workload: str, seconds: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seconds", seconds, "--trace", "0"]
    return subprocess.run(cmd, cwd=tree, capture_output=True, text=True)


def main() -> int:
    base = Path(sys.argv[1]).resolve()
    out = Path(sys.argv[2] if len(sys.argv) > 2 else "perf-ab.jsonl")
    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {(side, w): [] for side in ("base", "head") for w, _, _ in WORKLOADS}
    with out.open("w") as log:
        for pair in range(PAIRS):
            order = (("base", base), ("head", HEAD))[:: 1 if pair % 2 == 0 else -1]
            for workload, seconds, metric in WORKLOADS:
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
                    value = result["metrics"][metric]["value"]
                    values[side, workload].append(value)
                    print(f"pair {pair + 1} {workload} {side}: {metric} {value:.3f} s", flush=True)
    failed = False
    for workload, _, metric in WORKLOADS:
        was = statistics.median(values["base", workload])
        now = statistics.median(values["head", workload])
        bound = bounds[metric]
        verdict = "ok" if now <= was * (1 + bound) else "REGRESSION"
        failed |= verdict != "ok"
        print(f"{workload}: median {metric} {was:.3f} -> {now:.3f} s "
              f"({now / was - 1:+.1%}, bound +{bound:.0%}) {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
