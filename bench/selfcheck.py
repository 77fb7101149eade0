"""Quick self-check of the benchmark: a tiny run of every workload.

    python3 bench/selfcheck.py

Checks that ``BENCHMARK.json`` names the same workloads and metrics, with
the same units and directions, as the code that prints them; then runs
every workload for one second untraced and traced, and checks that the
last line has exactly the contract's keys, passed the correctness gate,
and prints every metric of ``BENCHMARK.json`` with its unit and a finite
value.  Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import subprocess
import sys

import run  # fixes the BLAS thread budget before numpy loads

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _declared(entries) -> dict:
    return {e["name"]: (e["unit"], e["better"]) for e in entries}


def main() -> int:
    error = run.load_library()
    if error:
        print(error, file=sys.stderr)
        return 2
    import layers
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the code's")
    expected = {0: _declared(spec["end_to_end"]), 1: _declared(spec["per_layer"])}
    for trace, printed in ((0, run.END_TO_END), (1, layers.PER_LAYER)):
        if expected[trace] != printed:
            problems.append(f"trace {trace}: BENCHMARK.json metrics differ "
                            "from the code's")

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.ROOT / "bench" / "run.py"),
                   "--workload", name, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                                 text=True, timeout=180)
            where = f"{name} --trace {trace}"
            if out.returncode != 0:
                problems.append(f"{where}: exit {out.returncode}: "
                                f"{out.stderr.strip()[-300:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                problems.append(f"{where}: printed {sorted(metrics)}")
            for metric, (unit, _) in expected[trace].items():
                got = metrics.get(metric, {})
                value = got.get("value")
                if got.get("unit") != unit or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{where}: {metric} printed as {got}")
            print(f"{where}: {len(metrics)} metrics", flush=True)

    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
