"""End-to-end runs of the command-line interface, in process."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from importlib.metadata import entry_points
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freecone.cli
import freecone.transfer
from freecone import free_m_cone, is_isomorphic, tutte
from freecone.cli import main
from freecone.documents import (
    canonical_json,
    matroid_from_document,
    matroid_to_document,
    tutte_to_document,
)
from freecone.catalog import example_pair, separating_pair, uniform

REPO = Path(__file__).resolve().parents[1]

M1, M2 = example_pair()
N1, N2 = separating_pair()


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(canonical_json(doc), encoding="utf-8")
    return str(path)


def _m1(tmp_path):
    return _write(tmp_path, "m1.json", matroid_to_document(M1))


def _m2(tmp_path):
    return _write(tmp_path, "m2.json", matroid_to_document(M2))


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(tmp_path, capsys):
    code, out, _ = _run(capsys, ["validate", _m1(tmp_path)])
    assert code == 0
    assert json.loads(out) == {"ok": True}


def test_validate_violation_names_the_axiom(tmp_path, capsys):
    doc = {
        "ground_set": ["a", "b"],
        "cyclic_flats": [{"set": ["a"], "rank": 1}, {"set": ["a", "b"], "rank": 2}],
    }
    code, out, _ = _run(capsys, ["validate", _write(tmp_path, "bad.json", doc)])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["axiom"] in {"Z0", "Z1", "Z2", "Z3"}
    assert all(isinstance(e, str) for w in report["witness"] for e in w)


def test_validate_bases_document(tmp_path, capsys):
    good = {"ground_set": ["a", "b"], "bases": [["a"], ["b"]]}
    code, out, _ = _run(capsys, ["validate", _write(tmp_path, "g.json", good)])
    assert code == 0 and json.loads(out) == {"ok": True}

    bad = {"ground_set": ["a", "b", "c"], "bases": [["a", "b"], ["c"]]}
    code, out, _ = _run(capsys, ["validate", _write(tmp_path, "b.json", bad)])
    assert code == 1
    assert json.loads(out)["axiom"] == "basis-exchange"


def test_validate_a_set_listed_twice(tmp_path, capsys):
    flats = [{"set": [], "rank": 0}, {"set": ["a", "b", "c"], "rank": 2}]
    exact = {"ground_set": ["a", "b", "c"], "cyclic_flats": flats + [flats[1]]}
    code, out, _ = _run(capsys, ["validate", _write(tmp_path, "exact.json", exact)])
    assert code == 0 and out == '{"ok":true}\n'

    clash = dict(exact, cyclic_flats=flats + [{"set": ["c", "b", "a"], "rank": 1}])
    code, out, _ = _run(capsys, ["validate", _write(tmp_path, "clash.json", clash)])
    assert code == 1
    assert json.loads(out) == {
        "ok": False,
        "axiom": "Z0",
        "witness": [["a", "b", "c"]],
        "message": "set {0,1,2} appears with two ranks (2 and 1)",
    }


def test_cone_layout(tmp_path, capsys):
    code, out, _ = _run(capsys, ["cone", "--m", "2", _m1(tmp_path)])
    assert code == 0
    doc = json.loads(out)
    ground = doc["ground_set"]
    assert len(ground) == 3 * 6 + 1
    assert ground[-1] == "@tip"
    assert "1#1" in ground and "1#2" in ground

    code, out, _ = _run(
        capsys, ["cone", "--m", "1", "--variant", "tipless-baseless", _m1(tmp_path)]
    )
    assert code == 0
    assert len(json.loads(out)["ground_set"]) == 6


def _cone_twice(tmp_path, capsys):
    code, c1, _ = _run(capsys, ["cone", "--m", "1", _m1(tmp_path)])
    assert code == 0
    code, c2, err = _run(capsys, ["cone", "--m", "1", _write(tmp_path, "c1.json", json.loads(c1))])
    assert code == 0, err
    return json.loads(c1), json.loads(c2)


def test_cone_of_a_cone(tmp_path, capsys):
    c1, c2 = _cone_twice(tmp_path, capsys)
    ground = c2["ground_set"]
    assert len(ground) == 2 * 13 + 1 and len(set(ground)) == len(ground)
    # the first cone's names are taken, so the second doubles "#" and "@"
    assert ground[:13] == c1["ground_set"]
    assert ground[13:15] == ["1##1", "2##1"] and "@tip##1" in ground
    assert ground[-1] == "@@tip"
    assert len(c2["cyclic_flats"]) == 224


def test_cone_of_a_cone_round_trip(tmp_path, capsys):
    _, c2 = _cone_twice(tmp_path, capsys)
    code, cfg, _ = _run(capsys, ["invariant", "--kind", "config", _write(tmp_path, "c2.json", c2)])
    assert code == 0
    cfg_path = _write(tmp_path, "cfg.json", json.loads(cfg))
    code, out, err = _run(capsys, ["reconstruct", "--m", "1", cfg_path])
    assert code == 0, err
    rec = matroid_from_document(json.loads(out))
    assert is_isomorphic(rec, free_m_cone(M1, 1)) is not None


def test_cone_names_stay_fresh_against_the_source(tmp_path, capsys):
    doc = {
        "ground_set": ["a", "a#1", "b"],
        "cyclic_flats": [{"set": [], "rank": 0}, {"set": ["a", "a#1", "b"], "rank": 2}],
    }
    code, out, err = _run(capsys, ["cone", "--m", "1", _write(tmp_path, "a.json", doc)])
    assert code == 0, err
    assert json.loads(out)["ground_set"] == ["a", "a#1", "b", "a##1", "a#1##1", "b##1", "@tip"]

    dup = {"ground_set": ["a", "a"], "cyclic_flats": [{"set": [], "rank": 0}]}
    code, out, err = _run(capsys, ["validate", _write(tmp_path, "dup.json", dup)])
    assert code == 1 and out == ""
    assert err.startswith("freecone:") and "duplicate" in err


def test_invariant_kinds(tmp_path, capsys):
    path = _m1(tmp_path)
    for kind, check in [
        ("g", lambda d: d["kind"] == "g-invariant" and d["n"] == 6),
        ("catenary", lambda d: d["kind"] == "catenary" and d["k"] == 3),
        ("tutte", lambda d: d["kind"] == "tutte" and isinstance(d["coeffs"], list)),
        ("characteristic", lambda d: d["coeffs"][-1] == 1),
        ("src", lambda d: d["kind"] == "src"),
        ("config", lambda d: len(d["nodes"]) == 4),
    ]:
        code, out, _ = _run(capsys, ["invariant", "--kind", kind, path])
        assert code == 0
        assert check(json.loads(out)), kind


def test_transfer_matches_cone_pipeline(tmp_path, capsys):
    src = _m1(tmp_path)
    code, cone_doc, _ = _run(
        capsys, ["cone", "--m", "1", "--variant", "baseless", src]
    )
    assert code == 0
    cone_path = tmp_path / "cone.json"
    cone_path.write_text(cone_doc, encoding="utf-8")

    code, direct, _ = _run(capsys, ["invariant", "--kind", "catenary", str(cone_path)])
    assert code == 0
    code, transferred, _ = _run(
        capsys, ["transfer", "--what", "catenary", "--m", "1", "--variant", "baseless", src]
    )
    assert code == 0
    assert transferred == direct


def test_transfer_tutte_matches_cone_pipeline(tmp_path, capsys):
    src = _m1(tmp_path)
    code, cone_doc, _ = _run(capsys, ["cone", "--m", "2", "--variant", "tipless", src])
    cone_path = tmp_path / "cone.json"
    cone_path.write_text(cone_doc, encoding="utf-8")
    code, direct, _ = _run(capsys, ["invariant", "--kind", "tutte", str(cone_path)])
    assert code == 0
    code, transferred, _ = _run(
        capsys, ["transfer", "--what", "tutte", "--m", "2", "--variant", "tipless", src]
    )
    assert code == 0
    assert transferred == direct


def test_invariant_tutte_of_a_large_uniform_matroid(tmp_path, capsys):
    # 2^20 subsets but two cyclic flats: counted over the one interval
    path = _write(tmp_path, "u1020.json", matroid_to_document(uniform(10, 20)))
    start = time.perf_counter()
    code, out, _ = _run(capsys, ["invariant", "--kind", "tutte", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out) == tutte_to_document(tutte(uniform(10, 20)))


def test_reconstruct_round_trip(tmp_path, capsys):
    src = _m1(tmp_path)
    code, cone_doc, _ = _run(capsys, ["cone", "--m", "1", src])
    cone_path = tmp_path / "cone.json"
    cone_path.write_text(cone_doc, encoding="utf-8")
    code, cfg_doc, _ = _run(capsys, ["invariant", "--kind", "config", str(cone_path)])
    assert code == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg_doc, encoding="utf-8")

    code, rec_doc, _ = _run(capsys, ["reconstruct", "--m", "1", str(cfg_path)])
    assert code == 0
    rec_path = tmp_path / "rec.json"
    rec_path.write_text(rec_doc, encoding="utf-8")
    code, out, _ = _run(capsys, ["compare", "--kind", "config", src, str(rec_path)])
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_reconstruct_below_bound_fails(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    code, cone_doc, _ = _run(
        capsys, ["cone", "--m", "1", "--variant", "tipless", _m1(tmp_path)]
    )
    cone_path = tmp_path / "cone.json"
    cone_path.write_text(cone_doc, encoding="utf-8")
    code, cfg_doc, _ = _run(capsys, ["invariant", "--kind", "config", str(cone_path)])
    cfg_path.write_text(cfg_doc, encoding="utf-8")
    code, _, err = _run(
        capsys, ["reconstruct", "--m", "1", "--variant", "tipless", str(cfg_path)]
    )
    assert code == 1
    assert "freecone:" in err


def test_compare_exit_codes(tmp_path, capsys):
    a, b = _m1(tmp_path), _m2(tmp_path)
    code, out, _ = _run(capsys, ["compare", "--kind", "g", a, b])
    assert code == 0
    assert json.loads(out) == {"kind": "g", "equal": True}

    n1 = _write(tmp_path, "n1.json", matroid_to_document(N1))
    n2 = _write(tmp_path, "n2.json", matroid_to_document(N2))
    code, out, _ = _run(capsys, ["compare", "--kind", "tutte", n1, n2])
    assert code == 0
    code, out, _ = _run(capsys, ["compare", "--kind", "g", n1, n2])
    assert code == 2
    doc = json.loads(out)
    assert doc["equal"] is False
    assert set(doc["first_difference"]) <= {"0", "1"}

    code, out, _ = _run(capsys, ["compare", "--kind", "src", n1, n2])
    assert code == 2
    assert json.loads(out)["first_difference"].startswith("4,3,")


def test_compare_config_of_different_sized_lattices(tmp_path, capsys):
    a = _m1(tmp_path)
    u = _write(tmp_path, "u.json", matroid_to_document(uniform(2, 3)))
    code, out, _ = _run(capsys, ["compare", "--kind", "config", a, u])
    assert code == 2
    assert json.loads(out)["first_difference"] == "node-count"


def test_certify_pair(tmp_path, capsys):
    a, b = _m1(tmp_path), _m2(tmp_path)
    code, out, _ = _run(capsys, ["certify-pair", "--m", "1", a, b])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["oracle_ok"] is True
    assert all(leg["passed"] for leg in doc["legs"])

    code, out, _ = _run(capsys, ["certify-pair", "--m", "1", a, a])
    assert code == 2
    assert json.loads(out)["all_passed"] is False


def test_certify_pair_exits_4_when_g_disagrees_with_subset_scan(tmp_path, capsys, monkeypatch):
    # a G of the right shape but of another matroid: both sources get it,
    # so the G leg still passes and only the cross-check against the src
    # data of the cyclic-flat intervals can object
    wrong = freecone.transfer.g_invariant(uniform(M1.rank_int, M1.n))
    monkeypatch.setattr(freecone.transfer, "g_invariant", lambda M: wrong)
    code, out, _ = _run(capsys, ["certify-pair", "--m", "1", _m1(tmp_path), _m2(tmp_path)])
    assert code == 4
    doc = json.loads(out)
    assert doc["oracle_ok"] is False
    assert all(leg["passed"] for leg in doc["legs"])


def test_higgs_output_is_a_valid_matroid(tmp_path, capsys):
    code, out, _ = _run(capsys, ["higgs", _m1(tmp_path)])
    assert code == 0
    hp = tmp_path / "h.json"
    hp.write_text(out, encoding="utf-8")
    code, out, _ = _run(capsys, ["validate", str(hp)])
    assert code == 0


def test_certify_pair_has_no_element_bound(tmp_path, capsys):
    U = uniform(3, 11)
    a = _write(tmp_path, "a.json", matroid_to_document(U))
    b = _write(tmp_path, "b.json", matroid_to_document(U.relabel([3, 7, 0, 10, 5, 1, 9, 2, 8, 6, 4])))
    code, out, err = _run(capsys, ["certify-pair", "--m", "1", a, b])
    assert code == 2, err
    doc = json.loads(out)
    leg = doc["legs"][0]
    assert leg["passed"] is False and "incidence posets" in leg["method"]
    assert sorted(leg["witness"]["isomorphism"]) == list(range(11))
    assert doc["oracle_ok"] is True

    c = _write(tmp_path, "c.json", matroid_to_document(uniform(4, 11)))
    code, out, err = _run(capsys, ["certify-pair", "--m", "1", a, c])
    assert code == 2, err
    assert json.loads(out)["legs"][0]["passed"] is True


def test_size_bound_exit_code(tmp_path, capsys):
    # the second family also fails exchange: the size bound answers first
    names = [f"e{i}" for i in range(17)]
    for bases in ([[e] for e in names], [["e0", "e1"], ["e2", "e3"]]):
        path = _write(tmp_path, "b17.json", {"ground_set": names, "bases": bases})
        code, _, err = _run(capsys, ["validate", path])
        assert code == 3
        assert "size bound" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--kind", "g", "--threads", "2"],
        ["invariant", "--kind", "tutte", "--max-subsets", "1024"],
        ["cone"],
    ],
    ids=["unknown-flag", "max-subsets", "missing-m"],
)
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + [_m1(tmp_path)])
    out = capsys.readouterr()
    assert exc.value.code == 1
    assert out.out == ""
    assert out.err.startswith("usage: freecone")

    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    path = _m1(tmp_path)
    calls = [["cone", path], ["invariant", "--kind", "config", path], ["cone", "--help"]]

    def outcomes():
        got = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            got.append((code, out.out, out.err))
        return got

    shared = outcomes()
    assert [code for code, _, _ in shared] == [1, 0, 0]
    assert freecone.cli._parser() is freecone.cli._parser()
    monkeypatch.setattr(freecone.cli, "_parser", freecone.cli.build_parser)
    assert outcomes() == shared


def test_higgs_above_16_elements(tmp_path, capsys):
    M = uniform(3, 17)
    code, out, _ = _run(capsys, ["higgs", _write(tmp_path, "u.json", matroid_to_document(M))])
    assert code == 0
    assert json.loads(out) == matroid_to_document(uniform(4, 17))


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, freecone.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    code, _, err = _run(capsys, ["validate", str(path)])
    assert code == 1
    assert "line 1, column 2" in err

    code, _, err = _run(capsys, ["validate", str(tmp_path / "missing.json")])
    assert code == 1
    assert "cannot read" in err


def test_reads_stdin_with_dash(tmp_path, capsys, monkeypatch):
    text = canonical_json(matroid_to_document(M1))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = _run(capsys, ["invariant", "--kind", "catenary", "-"])
    assert code == 0
    assert json.loads(out)["kind"] == "catenary"


_MALFORMED = {
    "not-utf8": b'{"ground_set": ["\xe9"], "cyclic_flats": []}',
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "long-number": b'{"rank": ' + b"7" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_bytes_exit_1(tmp_path, capsys, monkeypatch, name):
    data = _MALFORMED[name]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    for source in (str(path), "-"):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code, out, err = _run(capsys, ["validate", source])
        assert code == 1 and out == "", err
        assert err.startswith("freecone: parse error: ") and err.count("\n") == 1, err
        if name == "not-utf8":
            assert f"byte offset {data.index(0xE9)}" in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_NAME = st.sampled_from(["a", "b", "c", "d"])
_MATROID_LIKE = st.fixed_dictionaries(
    {"ground_set": st.lists(_NAME, max_size=4, unique=True)},
    optional={
        "cyclic_flats": st.lists(
            st.fixed_dictionaries(
                {"set": st.lists(_NAME | _JSON, max_size=4), "rank": st.integers(-1, 4) | _JSON}
            ),
            max_size=5,
        ),
        "bases": st.lists(st.lists(_NAME | _JSON, max_size=3), max_size=4),
    },
)


@given(st.binary(max_size=64) | (_JSON | _MATROID_LIKE).map(lambda doc: json.dumps(doc).encode()))
@settings(max_examples=300, deadline=None)
def test_validate_exits_with_a_code_on_any_input(data):
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["validate", "-"])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 3)


def _declared_script(name):
    """The ``module:attr`` target that the repository's pyproject.toml declares."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def test_installed_entry_point(tmp_path):
    target = _declared_script("freecone")
    # An installed copy, possibly built from another tree, must declare the
    # same target as this checkout.
    for ep in entry_points(group="console_scripts", name="freecone"):
        assert ep.value == target, f"installed freecone runs {ep.value}"

    # A launcher like the wrapper pip writes for [project.scripts], so the
    # command is run as a user types it without installing the package.
    module, attr = target.split(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "freecone"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bindir), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )

    path = _m1(tmp_path)
    proc = subprocess.run(
        ["freecone", "validate", path],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"ok": True}
