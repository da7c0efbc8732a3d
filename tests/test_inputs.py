"""Fuzzing of the input boundary.

The parsers and the RigInstance constructor raise only ValidationError on
malformed input, and ``rig-lab`` exits 0 or 2 on any edge-list or config
document, without a traceback.  Sizes inside the documents stay small
(n, draws, trials and lambda of at most a few dozen), so every accepted
document runs in milliseconds; the cost of large valid inputs is not under
test here.
"""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rig_lab
from rig_lab import RigInstance, ValidationError, cli, graph_from_text, hypergraph_from_text

_TOKEN = st.one_of(st.integers(-2, 14).map(str),
                   st.sampled_from(["x", "1.5", "-", "0x1", "1e2", "+3", "٣"]))
_JUNK_LINE = st.lists(_TOKEN, max_size=4).map(" ".join)


@st.composite
def _edge_list_docs(draw, header_width=2):
    """Documents that mostly have the shape of the text format: rows of
    small vertex numbers, sometimes one junk row or a wrong header."""
    n = draw(st.integers(-1, 12))
    width = draw(st.integers(1, 4)) if header_width == 3 else 2
    top = n + 1 if draw(st.integers(0, 3)) == 0 else n - 1  # n + 1: some vertices out of range
    vertex = st.integers(0, max(top, width - 1))
    row = st.lists(vertex, min_size=width, max_size=width, unique=draw(st.integers(0, 5)) > 0)
    lines = [" ".join(map(str, sorted(r))) for r in draw(st.lists(row, max_size=8))]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK_LINE))
    header = [n]
    if header_width == 3:
        header.append(width if draw(st.integers(0, 3)) else draw(st.integers(-1, 4)))
    header.append(len(lines) if draw(st.integers(0, 3)) else draw(st.integers(-1, 9)))
    rows = [" ".join(map(str, header))] + lines
    return "\n".join(rows) + draw(st.sampled_from(["", "\n", "\n\n"]))


_TEXT = st.one_of(_edge_list_docs(), _edge_list_docs(3), st.text(max_size=40))


@given(_TEXT)
@settings(max_examples=300, deadline=None)
def test_graph_from_text_raises_only_validation_error(text):
    try:
        g = graph_from_text(text)
    except ValidationError:
        return
    assert graph_from_text(text) == g
    header = next(ln for ln in text.splitlines() if ln.strip())
    assert g.edge_count() == int(header.split()[1])  # no repeated line was collapsed


@given(_TEXT)
@settings(max_examples=300, deadline=None)
def test_hypergraph_from_text_raises_only_validation_error(text):
    try:
        h = hypergraph_from_text(text)
    except ValidationError:
        return
    assert all(len(set(e)) == h.arity and 0 <= e[0] and e[-1] < h.n for e in h.hyperedges)
    header = next(ln for ln in text.splitlines() if ln.strip())
    assert len(h.hyperedges) == int(header.split()[2])  # no repeated line was collapsed


_MEMBER = st.one_of(st.integers(-2, 14), st.integers(), st.floats(), st.booleans(),
                    st.text(max_size=2), st.none())
_BAD_ROW = st.one_of(st.lists(_MEMBER, max_size=6), st.integers(), st.none())


@st.composite
def _incidences(draw):
    """(n, m, rows): mostly rows of in-range vertices (repeats allowed), sometimes
    a wrong m, an out-of-range vertex or a row that is not a vertex collection."""
    n = draw(st.integers(-1, 12))
    vertex = st.integers(-1, n) if draw(st.integers(0, 3)) == 0 else st.integers(0, max(n - 1, 0))
    rows = draw(st.lists(st.one_of(st.lists(vertex, max_size=6), st.sets(vertex, max_size=6)),
                         max_size=7))
    if draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(_BAD_ROW))
    m = len(rows) if draw(st.integers(0, 3)) else draw(st.integers(-1, 8))
    return n, m, rows


@given(_incidences())
@settings(max_examples=300, deadline=None)
def test_rig_instance_raises_only_validation_error(incidence):
    n, m, rows = incidence
    try:
        inst = RigInstance(n, m, rows)
    except ValidationError:
        return
    # one sorted, duplicate-free row per feature
    expected = [sorted(set(row)) for row in rows]
    assert inst.members.tolist() == [v for row in expected for v in row]
    assert inst.indptr.tolist() == list(itertools.accumulate(map(len, expected), initial=0))
    assert inst.feature_sets == tuple(frozenset(row) for row in rows)


def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


@given(_edge_list_docs(), st.sampled_from(["mindeg", "kconn", "pm", "hc"]),
       st.sampled_from(["1", "2", "3"]))
@settings(max_examples=150, deadline=None)
def test_cli_check_exits_0_or_2_on_any_edge_list(text, prop, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text, encoding="utf-8")
        _run_cli(["check", "--property", prop, "--input", str(path), "--k", k,
                  "--budget", "2000"])


_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-3, 30), st.floats(-5, 50),
                   st.sampled_from([float("nan"), float("inf"), -float("inf")]), st.text(max_size=4),
                   st.lists(st.one_of(st.floats(-3, 3), st.integers(-1, 3)), max_size=4),
                   st.dictionaries(st.sampled_from(["kind", "values"]),
                                   st.one_of(st.sampled_from(["homogeneous", "explicit"]),
                                             st.lists(st.floats(0, 2), max_size=14))))
_LAW_TAGS = st.sampled_from(["connectivity", "min-degree", "min-degree-refined(2)",
                             "perfect-matching", "hamiltonicity", "hamiltonicity-refined",
                             "k-connectivity(2)", "k-connectivity-refined(3)", "k-connectivity"])
_SWEEP_BASE = {"theorem": "connectivity", "n": 12, "m": 12, "c_grid": [0.0],
               "trials_per_point": 2, "master_seed": 5}
# each field takes a plausible value or an arbitrary one
_SWEEP_FIELDS = {
    "n": st.integers(-1, 30),
    "m": st.integers(-1, 30),
    "c_grid": st.lists(st.floats(-4, 4), min_size=1, max_size=3).map(sorted),
    "trials_per_point": st.integers(-1, 3),
    "master_seed": st.one_of(st.integers(-1, 9), st.just(2**64)),
    "profile": st.one_of(st.just({"kind": "homogeneous"}), st.builds(
        lambda values: {"kind": "explicit", "values": values},
        st.lists(st.floats(0.5, 4), min_size=11, max_size=13))),
    "omega": st.floats(-1, 10),
    "hc_budget": st.integers(-1, 3000),
    "experiment_id": st.one_of(st.text(max_size=3), st.integers(-1, 5)),
    "extra": st.none(),
}
_SWEEP_CHANGE = st.sampled_from(sorted(_SWEEP_FIELDS)).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(_SWEEP_FIELDS[key], _VALUE)))


@given(st.lists(_SWEEP_CHANGE, max_size=3), st.lists(st.sampled_from(sorted(_SWEEP_BASE)), max_size=1),
       _LAW_TAGS)
@settings(max_examples=150, deadline=None)
def test_cli_sweep_exits_0_or_2_on_any_config(changes, dropped, theorem):
    doc = dict(_SWEEP_BASE, theorem=theorem)
    doc.update(changes)
    for key in dropped:
        doc.pop(key, None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _run_cli(["sweep", "--config", str(path), "--out", str(Path(tmp) / "out")])


# path fields ("profile", "out") are left out: a missing file is exit 3
_GEN_FIELDS = {
    "model": st.sampled_from(["rig", "independent", "draws", "poisson", "lattice"]),
    "n": st.integers(-1, 30),
    "m": st.integers(-1, 30),
    "p": st.floats(0, 1),
    "arity": st.integers(1, 4),
    "phat": st.floats(-0.1, 1.1),
    "draws": st.integers(-1, 30),
    "lam": st.floats(-1, 30),
    "hypergraph": st.booleans(),
    "seed": st.integers(-1, 2**64),
}
_GEN_ENTRY = st.sampled_from(sorted(_GEN_FIELDS)).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(_GEN_FIELDS[key], _VALUE)))


@given(st.lists(_GEN_ENTRY, max_size=8).map(dict),
       st.sampled_from(["rig", "independent", "draws", "poisson"]))
@settings(max_examples=150, deadline=None)
def test_cli_gen_exits_0_or_2_on_any_config(doc, model):
    doc.setdefault("model", model)
    doc.setdefault("n", 8)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gen.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _run_cli(["gen", "--config", str(path)])


@pytest.mark.parametrize("flags", [["--model", "poisson", "--lam", "1e300"],
                                   ["--model", "poisson", "--lam", "1e15"],
                                   ["--model", "draws", "--draws", str(10**15)]])
def test_cli_gen_rejects_draw_counts_past_the_limit(flags):
    # each is refused before any allocation: the draws would not fit in memory
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["gen", "--n", "5", "--arity", "2", *flags])
    assert code == 2
    assert err.getvalue().startswith("error: ") and "limit" in err.getvalue()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about half of the import time of the command line
    env = dict(os.environ, PYTHONPATH=str(Path(rig_lab.__file__).parents[1]))
    code = "import sys, rig_lab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


_PROFILE = st.lists(st.floats(0, 1), min_size=1, max_size=12)


@given(st.one_of(_PROFILE, _PROFILE.map(lambda values: {"values": values}), _VALUE),
       st.integers(-1, 12))
@settings(max_examples=100, deadline=None)
def test_cli_stats_exits_0_or_2_on_any_profile(doc, n):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profile.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _run_cli(["stats", "--n", str(n), "--profile", str(path)])
