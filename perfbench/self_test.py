"""Reduced-size self-test of the benchmark.

Runs every workload named in BENCHMARK.json on a short trace, untraced
and traced, and checks that each run ends with the result line the
benchmark's format requires: exactly the keys correct/attempted/failed/
metrics, a correct result, and every end-to-end (untraced) or per-layer
(traced) metric of BENCHMARK.json, each a finite number with its unit.

Run it through the wrapper, from the repository root:

    bash perfbench/run.sh --self-test
"""

import json
import math
import subprocess
import sys


def main(binary):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--refs", "200000"]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if run.returncode != 0:
                failures.append(f"{label}: exit {run.returncode}: {run.stderr.strip()}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            problems = []
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"not correct: {run.stdout.strip()}")
            if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                problems.append("attempted is not a positive whole number")
            metrics = result.get("metrics", {})
            names = {m["name"] for m in wanted}
            if set(metrics) != names:
                problems.append(f"metrics differ: missing {sorted(names - set(metrics))}, "
                                f"extra {sorted(set(metrics) - names)}")
            for m in wanted:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                if got.get("unit") != m["unit"]:
                    problems.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{m['name']}: value {value!r} is not a finite number")
                elif trace == "0" and value <= 0:
                    problems.append(f"{m['name']}: end-to-end value {value} is not positive")
            failures += [f"{label}: {p}" for p in problems]
            print(f"{label}: {'ok' if not problems else 'FAILED'}", flush=True)
    for f in failures:
        print(f, file=sys.stderr)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
