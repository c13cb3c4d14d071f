"""Self-test of the benchmark on tiny inputs of every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For each workload it checks that
  * an untraced and a traced run emit exactly the metrics BENCHMARK.json
    names, each with its unit, and pass the golden gate;
  * the ``.calls`` counts of two traced runs are identical;
  * a corrupted golden makes the run report failed operations.
Exits 0 when every check holds.
"""

import json
import subprocess
import sys

import workloads

RUN = workloads.HERE / "run.py"
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace, goldens=None) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if goldens is not None:
        cmd += ["--goldens", str(goldens)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def expect_metrics(result, section) -> list[str]:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    errors = [f"{name}: missing" for name in want if name not in got]
    errors += [f"{name}: unit {got[name]!r}, want {unit!r}"
               for name, unit in want.items() if name in got and got[name] != unit]
    errors += [f"{name}: not in BENCHMARK.json" for name in got if name not in want]
    errors += [f"{name}: value {v['value']!r} is not a number"
               for name, v in result["metrics"].items()
               if not isinstance(v["value"], (int, float))]
    return errors


def check(workload) -> list[str]:
    errors = []
    plain = run(workload, 0)
    errors += expect_metrics(plain, "end_to_end")
    if not plain["correct"] or plain["failed"]:
        errors.append("untraced run failed the golden gate")

    first, second = run(workload, 1), run(workload, 1)
    errors += expect_metrics(first, "per_layer")
    if not first["correct"]:
        errors.append("traced run failed the golden gate")
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in (first, second)]
    if calls[0] != calls[1]:
        diff = sorted(k for k in calls[0] if calls[0][k] != calls[1].get(k))
        errors.append(f"call counts differ between traced runs: {diff}")
    if not any(calls[0].values()):
        errors.append("traced run recorded no calls")

    goldens = workloads.load_goldens()
    prefix = {"exhaustive-o3": "exhaustive/", "sampled-o56": "sampled/",
              "cli-requests": "cli/"}[workload]
    for key in goldens:
        if key.startswith(prefix):
            goldens[key] = "0" * 64
    workloads.WORK.mkdir(exist_ok=True)
    corrupt = workloads.WORK / f"corrupt-{workload}.json"
    try:
        corrupt.write_text(json.dumps(goldens), encoding="utf-8")
        bad = run(workload, 0, corrupt)
    finally:
        corrupt.unlink(missing_ok=True)
        try:
            workloads.WORK.rmdir()
        except OSError:
            pass
    if bad["correct"] or bad["failed"] == 0:
        errors.append("a corrupted golden did not raise the error rate")
    return errors


def main() -> int:
    failures = 0
    for workload in workloads.WORKLOADS:
        errors = check(workload)
        print(f"{workload}: {'ok' if not errors else 'FAIL'}")
        for e in errors:
            print(f"  {e}")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
