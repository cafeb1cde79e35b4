"""Tests of the benchmark itself: python3 -m pytest bench"""

import math
import pathlib
import shutil
import subprocess
import sys

import pytest

import run

run.import_cli()

import freecone.transfer  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from freecone import cli  # noqa: E402

EXPECTED = workloads.load_expected()
# outputs that name elements, so they differ between seeds
NAMED_OUTPUTS = (":cone", ":reconstruct")


def _runner(name, seed, tmp_path):
    workload = workloads.build(name, seed, str(tmp_path / f"{name}-{seed}"))
    return run.Runner(cli, workload, workloads.Checker(workload, EXPECTED))


def test_example_pair_certify_spans(tmp_path):
    runner = _runner("certify", 3, tmp_path)
    (job,) = [j for j in runner.workload.jobs if j.key == "certify:ex:m1"]
    original = freecone.transfer.catenary_data
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.job = job.key
        rc, out, err, _ = run.execute(cli, job.argv, "")
    assert freecone.transfer.catenary_data is original
    assert runner.checker.check(job, rc, out, {}) is None, err

    counts = {}
    for span in tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    assert {name: counts.get(name) for name in (
        "invariants.catenary_data", "invariants.g_invariant", "cone.free_m_cone",
        "zlattice.configuration", "transfer.catenary_of_cone", "core.is_isomorphic",
        "zlattice.validate_axioms",
    )} == {
        "invariants.catenary_data": 4,
        "invariants.g_invariant": 2,
        "cone.free_m_cone": 2,
        "zlattice.configuration": 2,
        "transfer.catenary_of_cone": 2,
        "core.is_isomorphic": 1,
        "zlattice.validate_axioms": 4,
    }

    # self times and kernel self times split the job's time exactly
    (root,) = [s for s in tracer.spans if s.parent is None]
    totals = spans.job_totals(tracer.spans)[job.key]
    assert totals["invariants.g_invariant.perms"] == 2 * math.factorial(6)
    assert totals["core.closure_mask.calls"] > 0
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(root.end - root.start, rel=1e-9)


def test_certificate_span_only_when_refined():
    from freecone.catalog import uniform
    from freecone.zlattice import configuration

    cfg = configuration(uniform(3, 6))
    tracer = spans.Tracer()
    with tracer.installed():
        first = cfg.certificate
        assert cfg.certificate == first and cfg.canonical_order() and hash(cfg)
    (span,) = [s for s in tracer.spans if s.name == "zlattice.certificate"]
    assert span.work == {"nodes": len(cfg)}


def test_reference_kernel_calls_no_freecone(tmp_path):
    tracer = spans.Tracer()
    with tracer.installed():
        run.kernel_seconds()
    assert tracer.spans == []

    runner = _runner("certify", 1, tmp_path)
    _, results = runner.round()
    # one factor a chunk; a certify job of 0.2 s or more is a chunk of its own
    factors = {round(r[4] / r[3], 12) for r in results.values()}
    assert len(factors) == len(runner.kernel_s) - 1


def test_same_seed_same_documents_and_jobs(tmp_path):
    def build(where):
        workdir = tmp_path / where
        workload = workloads.build("counts", 7, str(workdir))
        docs = {name: pathlib.Path(path).read_bytes() for name, path in workload.docs.items()}
        jobs = [
            (job.key, [arg.replace(str(workdir), "") for arg in job.argv])
            for job in workload.jobs
        ]
        return docs, jobs

    first = build("a")
    assert first == build("b")
    other = workloads.build("counts", 8, str(tmp_path / "c"))
    assert [key for key, _ in first[1]] != [job.key for job in other.jobs]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_change_inputs_not_answers(tmp_path, name):
    answers, docs = [], []
    for seed in (1, 2):
        runner = _runner(name, seed, tmp_path)
        _, results = runner.round()
        assert runner.failures == []
        answers.append(
            {key: r[:2] for key, r in results.items() if not key.endswith(NAMED_OUTPUTS)}
        )
        docs.append(
            sorted(pathlib.Path(p).read_text() for p in runner.workload.docs.values())
        )
    assert answers[0] == answers[1]
    assert docs[0] != docs[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
