"""Regenerate expected.json, the stored outputs of the jobs that have no
independent expectation.

    python3 bench/record_expected.py

Runs every job of every workload once with seed 0 and stores the outputs
of the ``stored`` jobs.  Then it runs one checked round of each workload
against them, which also checks every job with an independent expectation,
and writes the file only if nothing failed.  Run it only when an output
changes on purpose; the diff of expected.json is the change to review.
"""

import json
import sys

import run


def main() -> int:
    cli = run.import_cli()
    import workloads

    expected, built = {}, []
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 0, str(run.OUT / f"record-{name}"))
        _, results = run.Runner(cli, workload, workloads.Checker(workload, {})).round()
        for job in workload.jobs:
            if job.check == "stored":
                expected[job.key] = json.loads(results[job.key][1])
        built.append(workload)
    failures = []
    for workload in built:
        runner = run.Runner(cli, workload, workloads.Checker(workload, expected))
        runner.round()
        failures += runner.failures
    for failure in failures:
        print(f"{failure['job']}: {failure['reason']}\n{failure['stderr']}", file=sys.stderr)
    if failures:
        return 1
    lines = [
        f"{json.dumps(key)}: {json.dumps(expected[key], sort_keys=True)}"
        for key in sorted(expected)
    ]
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")  # one job a line
    print(f"wrote {len(expected)} documents to {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
