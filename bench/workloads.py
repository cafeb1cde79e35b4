"""The benchmark's workloads: seeded input documents, job lists, output checks.

The seed picks a relabelling of the elements of every input document (new
element names, a new element order and a new order of the cyclic flats)
and the order of the jobs in a round.  No answer depends on it, so every
job is checked against an expectation that holds for any seed:

- ``certify``: ``certify-pair`` jobs must report ``oracle_ok``, the leg
  flags listed here and the matching exit code;
- ``uniform-g``: the G-invariant of U(k, n) is {1^k 0^(n-k): n!};
- ``transfer``: ``transfer --what tutte`` must equal ``invariant --kind
  tutte`` on the built cone, run in the same round;
- ``cone``: a cone document must have the expected number of elements and
  one cyclic flat per node of its stored configuration, with that node's
  size and rank;
- ``reconstruct``: the reconstructed source must be isomorphic to the
  source the chain started from (checked by brute force here, not by the
  package);
- ``stored``: any other output must equal the document stored under the
  job's key in ``expected.json``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass

from freecone import catalog, free_m_cone, variant

WORKLOADS = ("certify", "counts", "roundtrip")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# smallest m at which reconstruct_from_cone_config accepts each variant kind
MIN_M = {"full": 1, "tipless": 2, "baseless": 2, "tipless-baseless": 3}
PASS_ALL = (True, True, True, True)
# non-isomorphic pairs of fixtures with equal size and rank: the G leg
# fails, so certify-pair exits 2
FIXTURE_PAIRS = [
    ("u36", "mk4"),
    ("mk4", "three-lines"),
    ("disjoint-lines", "mk4"),
    ("crossing-lines", "three-lines"),
    ("u36", "three-lines"),
    ("u35", "open-book"),
    ("open-book", "pair-on-line"),
    ("u34", "line-plus-point"),
    ("u25", "triple-pair"),
    ("u26", "three-pairs"),
]
# (pair, m, leg flags); the example pair passes every leg, the separating
# pair differs in G and catenary data, so its cones do too
CERTIFY_JOBS = [
    ("ex", 1, PASS_ALL),
    ("ex", 2, PASS_ALL),
    ("ex", 3, PASS_ALL),
    ("sep", 1, (True, False, False, True)),
    ("sep", 2, (True, False, False, True)),
] + [(f"{a}/{b}", 1, (True, False, False, True)) for a, b in FIXTURE_PAIRS]
# cones of 13 to 19 elements for the subset scans (tutte, src)
COUNT_CONES = [
    ("ex-a", 1, "full"),
    ("sep-a", 1, "full"),
    ("sep-b", 1, "tipless"),
    ("ex-a", 2, "full"),
    ("ex-b", 2, "tipless"),
]


@dataclass
class Job:
    key: str  # the same for every seed
    argv: list  # arguments to freecone.cli.main
    rc: int  # expected exit code
    check: str  # one of the checks in the module docstring
    info: dict  # n, cyclic_flats, m, variant: recorded next to the timings
    arg: object = None  # data for the check


@dataclass
class Workload:
    name: str
    seed: int
    docs: dict  # document name -> path
    units: list  # each unit is a list of jobs run in order; a job whose
    # argv ends in "-" reads the previous job's stdout
    sources: dict  # document name -> Matroid

    @property
    def jobs(self) -> list:
        return [job for unit in self.units for job in unit]


def sources() -> dict:
    """Every source matroid the workloads use, by document name."""
    ex_a, ex_b = catalog.example_pair()
    sep_a, sep_b = catalog.separating_pair()
    out = dict(catalog.fixture_matroids())
    out.update(
        {
            "ex-a": ex_a,
            "ex-b": ex_b,
            "sep-a": sep_a,
            "sep-b": sep_b,
            "u39": catalog.uniform(3, 9),
            "u48": catalog.uniform(4, 8),
        }
    )
    return out


def _text(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def relabelled_document(M, rng: random.Random) -> str:
    """M as a matroid document with fresh names, element order and flat order."""
    order = rng.sample(range(M.n), M.n)  # order[position] = element
    names = [f"x{k}" for k in rng.sample(range(10 * M.n + 10), M.n)]
    position = {e: p for p, e in enumerate(order)}
    flats = []
    for z, r in M.zf:
        members = sorted((e for e in range(M.n) if z >> e & 1), key=position.get)
        flats.append({"set": [names[position[e]] for e in members], "rank": r})
    rng.shuffle(flats)
    return _text({"ground_set": names, "cyclic_flats": flats})


def _info(*inputs, m=None, kind=None) -> dict:
    return {
        "n": inputs[0].n,
        "cyclic_flats": [len(M.zf) for M in inputs],
        "m": m,
        "variant": kind,
    }


def _cone_size(n: int, m: int, kind: str) -> int:
    base = n if kind in ("full", "tipless") else 0
    tip = 1 if kind in ("full", "baseless") else 0
    return m * n + base + tip


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the workload's documents under `workdir` and list its jobs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    src = sources()
    docs: dict = {}
    os.makedirs(workdir, exist_ok=True)

    def doc(doc_name: str, M) -> str:
        if doc_name not in docs:
            path = os.path.join(workdir, f"{doc_name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(relabelled_document(M, rng))
            docs[doc_name] = path
        return docs[doc_name]

    units = {"certify": _certify, "counts": _counts, "roundtrip": _roundtrip}[name](
        src, doc
    )
    # documents are written in a fixed order above; only now is the job
    # order drawn, so a seed fixes both
    rng.shuffle(units)
    return Workload(name, seed, docs, units, src)


def _certify(src, doc) -> list:
    units = []
    for pair, m, flags in CERTIFY_JOBS:
        a, b = {"ex": ("ex-a", "ex-b"), "sep": ("sep-a", "sep-b")}.get(pair) or pair.split("/")
        units.append(
            [
                Job(
                    f"certify:{pair}:m{m}",
                    ["certify-pair", "--m", str(m), doc(a, src[a]), doc(b, src[b])],
                    0 if all(flags) else 2,
                    "certify",
                    _info(src[a], src[b], m=m),
                    (m, list(flags)),
                )
            ]
        )
    return units


def _counts(src, doc) -> list:
    units = []
    for name, k, n in (("u39", 3, 9), ("u48", 4, 8)):
        units.append(
            [Job(f"g:{name}", ["invariant", "--kind", "g", doc(name, src[name])], 0,
                 "uniform-g", _info(src[name]), (n, k))]
        )
    for name in ("sep-a", "sep-b", "ex-a", "ex-b"):
        units.append(
            [Job(f"g:{name}", ["invariant", "--kind", "g", doc(name, src[name])], 0,
                 "stored", _info(src[name]))]
        )
    for name, m, kind in COUNT_CONES:
        Q = variant(free_m_cone(src[name], m), kind)
        cone = doc(f"{name}-m{m}-{kind}", Q)
        tag = f"{name}:m{m}:{kind}"
        for what in ("tutte", "src"):
            units.append(
                [Job(f"{what}:{tag}", ["invariant", "--kind", what, cone], 0,
                     "stored", _info(Q, m=m, kind=kind))]
            )
        units.append(
            [
                Job(
                    f"transfer-tutte:{tag}",
                    ["transfer", "--what", "tutte", "--m", str(m), "--variant", kind,
                     doc(name, src[name])],
                    0,
                    "transfer",
                    _info(src[name], m=m, kind=kind),
                    f"tutte:{tag}",
                )
            ]
        )
    for what in ("g", "tutte"):
        for pair in ("sep", "ex"):
            a, b = f"{pair}-a", f"{pair}-b"
            # the separating pair has equal Tutte polynomials but different G
            rc = 2 if (what, pair) == ("g", "sep") else 0
            units.append(
                [Job(f"compare-{what}:{pair}",
                     ["compare", "--kind", what, doc(a, src[a]), doc(b, src[b])], rc,
                     "stored", _info(src[a], src[b]))]
            )
    return units


def _roundtrip(src, doc) -> list:
    units = []
    for name, M in catalog.fixture_matroids():
        if M.rank_int < 3:
            continue
        path = doc(name, M)
        for kind, m0 in MIN_M.items():
            for m in (m0, m0 + 1):
                tag = f"rt:{name}:{kind}:m{m}"
                info = _info(M, m=m, kind=kind)
                units.append(
                    [
                        Job(f"{tag}:cone",
                            ["cone", "--m", str(m), "--variant", kind, path], 0,
                            "cone", info, (_cone_size(M.n, m, kind), f"{tag}:config")),
                        Job(f"{tag}:config", ["invariant", "--kind", "config", "-"], 0,
                            "stored", info),
                        Job(f"{tag}:reconstruct",
                            ["reconstruct", "--m", str(m), "--variant", kind, "-"], 0,
                            "reconstruct", info, name),
                    ]
                )
    return units


# ---------------------------------------------------------------------------
# checks


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _doc_flats(doc) -> tuple[int, list]:
    ids = {name: i for i, name in enumerate(doc["ground_set"])}
    flats = [
        (sum(1 << ids[e] for e in item["set"]), item["rank"]) for item in doc["cyclic_flats"]
    ]
    return len(ids), flats


def canonical_form(n: int, flats) -> tuple:
    """The least relabelled cyclic-flat family over all n! relabellings."""
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(
            sorted((sum(1 << perm[e] for e in range(n) if z >> e & 1), r) for z, r in flats)
        )
        if best is None or key < best:
            best = key
    return (n, best)


class Checker:
    """Checks job outputs; a (job, exit code, output) seen before is not re-checked."""

    def __init__(self, workload: Workload, expected: dict):
        self.workload = workload
        self.expected = expected
        self._seen: dict = {}
        self._forms: dict = {}

    def check(self, job: Job, rc, out: str, round_outputs: dict):
        """None when the output is right, else the reason it is wrong."""
        dep = round_outputs.get(job.arg) if job.check == "transfer" else None
        memo = (job.key, rc, out, dep)
        if memo not in self._seen:
            self._seen[memo] = self._check(job, rc, out, dep)
        return self._seen[memo]

    def _check(self, job: Job, rc, out: str, dep):
        if rc != job.rc:
            return f"exit code {rc}, expected {job.rc}"
        try:
            doc = json.loads(out)
            ok = getattr(self, f"_{job.check.replace('-', '_')}")(job, doc, dep)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None if ok else "wrong output"

    def _stored(self, job, doc, dep) -> bool:
        return doc == self.expected[job.key]

    def _certify(self, job, doc, dep) -> bool:
        m, flags = job.arg
        return (
            doc["m"] == m
            and doc["oracle_ok"] is True
            and [leg["passed"] for leg in doc["legs"]] == flags
            and doc["all_passed"] is all(flags)
        )

    def _uniform_g(self, job, doc, dep) -> bool:
        n, k = job.arg
        return doc == {
            "kind": "g-invariant",
            "n": n,
            "k": k,
            "counts": {"1" * k + "0" * (n - k): math.factorial(n)},
        }

    def _transfer(self, job, doc, dep) -> bool:
        return dep is not None and doc == json.loads(dep)

    def _cone(self, job, doc, dep) -> bool:
        size, config_key = job.arg
        n, flats = _doc_flats(doc)
        labels = sorted((z.bit_count(), r) for z, r in flats)
        nodes = sorted((v["size"], v["rank"]) for v in self.expected[config_key]["nodes"])
        return n == size and labels == nodes

    def _reconstruct(self, job, doc, dep) -> bool:
        name = job.arg
        if name not in self._forms:
            M = self.workload.sources[name]
            self._forms[name] = canonical_form(M.n, M.zf)
        return canonical_form(*_doc_flats(doc)) == self._forms[name]
