import hashlib
import json

import pytest

from incsp.cli import main
from incsp.model import parse_instance
from incsp.offline import tree_level
from tests.conftest import T1_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out else None


def without_timings(doc: dict) -> str:
    doc = dict(doc)
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True)


@pytest.fixture
def t1_file(write_instance):
    return write_instance(T1_TEXT)


# -- gen and perturb ---------------------------------------------------------------


def test_gen_emits_a_parseable_instance(capsys):
    code, out = run(capsys, "gen", "--n", "6", "--m", "10", "--W", "4", "--seed", "3")
    assert code == 0
    inst = parse_instance(out)
    assert inst.n == 6 and inst.m == 10 and inst.W == 4


def test_gen_is_byte_deterministic(capsys, tmp_path):
    args = ["gen", "--n", "6", "--m", "10", "--W", "4", "--seed", "3"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_gen_to_file(capsys, tmp_path):
    target = tmp_path / "inst.edges"
    code, out = run(
        capsys, "gen", "--n", "4", "--m", "6", "--W", "3", "--seed", "1", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert parse_instance(target.read_text()).m == 6


def test_perturb_writes_prediction_and_profile(capsys, t1_file, tmp_path):
    pred = tmp_path / "pred.edges"
    code, doc = run_json(
        capsys, "perturb", "--input", t1_file, "--kind", "window_shuffle",
        "--k", "1", "--seed", "2", "--out", str(pred),
    )
    assert code == 0
    assert doc["kind"] == "window_shuffle(1)"
    assert doc["profile"]["eta_max"] <= 1
    assert doc["params"]["m"] == 4
    lines = [ln for ln in pred.read_text().splitlines() if ln.strip()]
    assert len(lines) == 4


def test_perturb_profile_matches_metrics_on_padded_replace(capsys, write_instance, tmp_path):
    # m = 6 pads to 8, and replacement edges are numbered before padding
    _, text = run(capsys, "gen", "--n", "5", "--m", "6", "--W", "3", "--seed", "4")
    inst = write_instance(text)
    pred = tmp_path / "pred.edges"
    _, doc = run_json(
        capsys, "perturb", "--input", inst, "--kind", "replace",
        "--p", "0.3", "--seed", "1", "--out", str(pred),
    )
    _, again = run_json(capsys, "metrics", "--input", inst, "--pred", str(pred))
    assert doc["profile"] == again["profile"]
    assert doc["profile"]["hamming"] == 2


# -- offline -----------------------------------------------------------------------


def test_offline_answers_queries(capsys, t1_file, tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("2 4\n1 0\n2 2\n")
    code, doc = run_json(capsys, "offline", "--input", t1_file, "--queries", str(queries))
    assert code == 0
    answers = {(a["v"], a["t"]): a for a in doc["answers"]}
    assert 3 <= answers[(2, 4)]["answer"] <= 6
    assert answers[(1, 0)]["answer"] is None
    assert 6 <= answers[(2, 2)]["answer"] <= 12
    assert all(a["comparisons"] >= 0 for a in doc["answers"])
    assert doc["build"]["nodes_solved"] == 3
    assert doc["grid"]["k_coarse"] >= 1


def test_offline_csv_spells_out_unreachable(capsys, t1_file, tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("1 0\n2 4\n")
    table = tmp_path / "answers.csv"
    code, _ = run_json(
        capsys, "offline", "--input", t1_file, "--queries", str(queries), "--csv", str(table)
    )
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "v,t,answer,comparisons"
    assert lines[1].startswith("1,0,inf,")
    assert lines[2].split(",")[2] != "inf"


def test_offline_reverse_counts_deletions(capsys, t1_file, tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("2 0\n2 4\n")
    code, doc = run_json(
        capsys, "offline", "--input", t1_file, "--queries", str(queries), "--reverse"
    )
    assert code == 0
    answers = {(a["v"], a["t"]): a["answer"] for a in doc["answers"]}
    # zero deletions: the full graph; four deletions: nothing left
    assert 3 <= answers[(2, 0)] <= 6
    assert answers[(2, 4)] is None
    assert doc["reverse"] is True


def test_offline_reverse_rejects_out_of_range_times(capsys, t1_file, tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("2 5\n")
    code, out = run(
        capsys, "offline", "--input", t1_file, "--queries", str(queries), "--reverse"
    )
    assert code == 2


def test_offline_eps_override(capsys, t1_file):
    code, doc = run_json(capsys, "offline", "--input", t1_file, "--eps", "0.25")
    assert code == 0
    assert doc["params"]["epsilon"] == 0.25
    code, _ = run(capsys, "offline", "--input", t1_file, "--eps", "-1")
    assert code == 2


# -- online ------------------------------------------------------------------------


@pytest.fixture
def t1_pred_file(capsys, t1_file, tmp_path):
    pred = tmp_path / "pred.edges"
    run_json(
        capsys, "perturb", "--input", t1_file, "--kind", "window_shuffle",
        "--k", "1", "--seed", "2", "--out", str(pred),
    )
    return str(pred)


def test_online_reports_counters(capsys, t1_file, t1_pred_file):
    code, doc = run_json(capsys, "online", "--input", t1_file, "--pred", t1_pred_file)
    assert code == 0
    counters = doc["counters"]
    assert counters["case_counts"]["match"] + counters["case_counts"]["moved"] + counters[
        "case_counts"
    ]["absent"] == 4
    assert len(counters["jumps_per_position"]) == 4
    assert doc["final_distances"] == [0, 1, 3]
    assert "trace" not in doc


def test_online_trace_and_csv(capsys, t1_file, t1_pred_file, tmp_path):
    table = tmp_path / "steps.csv"
    code, doc = run_json(
        capsys, "online", "--input", t1_file, "--pred", t1_pred_file,
        "--trace", "--csv", str(table),
    )
    assert code == 0
    assert len(doc["trace"]) == 4
    assert [r["t"] for r in doc["trace"]] == [1, 2, 3, 4]
    m = len(doc["trace"])
    for row in doc["trace"]:
        assert {"jumped_positions", "rebuilt_interval", "nodes_rebuilt", "nodes_skipped"} <= row.keys()
        t = row["t"]
        # an arrival settles at most node t and its ancestors (none at t = m)
        chain = tree_level(t, m) if t < m else 0
        assert row["nodes_rebuilt"] + row["nodes_skipped"] <= chain
        if row["rebuilt_interval"] is None:
            assert row["nodes_rebuilt"] == 0
        else:
            lo, hi = row["rebuilt_interval"]
            assert lo < t < hi and (hi - lo) & (hi - lo - 1) == 0
            assert 1 <= row["nodes_rebuilt"] <= tree_level(t, m) - tree_level((lo + hi) // 2, m) + 1
    counters = doc["counters"]
    assert counters["nodes_rebuilt"] == sum(r["nodes_rebuilt"] for r in doc["trace"]) + counters["flush_rebuilt"]
    assert counters["nodes_skipped"] == sum(r["nodes_skipped"] for r in doc["trace"]) + counters["flush_skipped"]
    assert sum(counters["rebuilds_by_level"].values()) == counters["nodes_rebuilt"]
    lines = table.read_text().splitlines()
    assert lines[0] == "t,edge_id,case,predicted_position,nodes_rebuilt,d_writes"
    assert len(lines) == 5


def test_online_is_deterministic_modulo_timings(capsys, t1_file, t1_pred_file):
    _, first = run_json(capsys, "online", "--input", t1_file, "--pred", t1_pred_file)
    _, second = run_json(capsys, "online", "--input", t1_file, "--pred", t1_pred_file)
    assert without_timings(first) == without_timings(second)


# -- apsp --------------------------------------------------------------------------


def test_apsp_offline_queries(capsys, t1_file, tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("0 2 4\n1 2 2\n2 0 4\n")
    code, doc = run_json(capsys, "apsp", "--input", t1_file, "--queries", str(queries))
    assert code == 0
    assert doc["mode"] == "offline"
    answers = {(a["i"], a["j"], a["t"]): a["answer"] for a in doc["answers"]}
    assert 3 <= answers[(0, 2, 4)] <= 6
    assert 2 <= answers[(1, 2, 2)] <= 4
    assert answers[(2, 0, 4)] is None


def test_apsp_online_steps(capsys, t1_file, t1_pred_file, tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("0 2\n1 2\n")
    code, doc = run_json(
        capsys, "apsp", "--input", t1_file, "--pred", t1_pred_file, "--queries", str(queries)
    )
    assert code == 0
    assert doc["mode"] == "online"
    assert len(doc["steps"]) == 4
    last = doc["steps"][-1]
    assert last["frontier"] == 4
    assert last["pending"] == 0
    answers = {(a["i"], a["j"]): a["answer"] for a in last["answers"]}
    assert 3 <= answers[(0, 2)] <= 6
    for step in doc["steps"]:
        assert step["patch_vertices_max"] <= 2 * 4 + 2


# -- pinned documents --------------------------------------------------------------
#
# A small generated instance with a window_shuffle(8) prediction.  Each
# document is hashed as JSON with sorted keys and without its timings.  The
# online digest pins the answers only: it also leaves out the repair-work
# fields, which a repair that does less work may lower.  Each is capped at
# its pinned value; a skipped count is capped with the re-solves beside it,
# since a node the repair newly keeps moves from one to the other.  Trace
# rows are capped by their sums over the run.  The offline digest leaves out
# the build's scan_work, capped the same way.  It was taken, with that field
# popped, from the solver before the per-head in-edge index, which counted
# scan_work differently, so it pins every other byte to that solver's.

PINNED_DOCS = {
    "offline": "aa9d9c40243c3b512802610c46a803d3a41dbe7a5b92401392cfe652d227ca4d",
    "apsp-offline": "6a45a174ec4297d2ba721d4eb6df64460235a587cacb9316a06d2b00ed52b7bf",
    "apsp-online": "5bdb9112430299592369e4c77e64eb8ccc94bf19ab51e4a54f26b5663ae5a766",
    "online": "d12be853606beb2d90425a851f4b1ec2284fd96fb9881d32f022caa82b907012",
}
PINNED_ONLINE_WORK = {
    "nodes_rebuilt": 190,
    "nodes_settled": 268,  # nodes_rebuilt + nodes_skipped
    "flush_rebuilt": 33,
    "flush_settled": 72,  # flush_rebuilt + flush_skipped
    "rebuilds_by_level": {"1": 2, "2": 2, "3": 9, "4": 7, "5": 20, "6": 35, "7": 54, "8": 61},
    "alive_edge_work": 6314,
    "scan_work": 5073,
    "trace_nodes_rebuilt": 157,
    "trace_nodes_settled": 196,
    "trace_rebuilt_span": 2110,  # the summed lengths hi - lo of the rebuilt intervals
}
PINNED_OFFLINE_SCAN_WORK = 5654


def _online_work(online: dict) -> dict:
    """Pop the repair-work fields from an online document, as PINNED_ONLINE_WORK reads them."""
    c = online["counters"]
    rows = [{key: row.pop(key) for key in ("nodes_rebuilt", "nodes_skipped", "rebuilt_interval")} for row in online["trace"]]
    rebuilt, flush_rebuilt = c.pop("nodes_rebuilt"), c.pop("flush_rebuilt")
    return {
        "nodes_rebuilt": rebuilt,
        "nodes_settled": rebuilt + c.pop("nodes_skipped"),
        "flush_rebuilt": flush_rebuilt,
        "flush_settled": flush_rebuilt + c.pop("flush_skipped"),
        "rebuilds_by_level": c.pop("rebuilds_by_level"),
        "alive_edge_work": c.pop("alive_edge_work"),
        "scan_work": c.pop("scan_work"),
        "trace_nodes_rebuilt": sum(row["nodes_rebuilt"] for row in rows),
        "trace_nodes_settled": sum(row["nodes_rebuilt"] + row["nodes_skipped"] for row in rows),
        "trace_rebuilt_span": sum(hi - lo for lo, hi in (row["rebuilt_interval"] or (0, 0) for row in rows)),
    }


@pytest.fixture
def pinned_case(capsys, write_instance, tmp_path):
    _, text = run(capsys, "gen", "--n", "24", "--m", "200", "--W", "8", "--seed", "5")
    inst = write_instance(text)
    pred = tmp_path / "pred.edges"
    run_json(
        capsys, "perturb", "--input", inst, "--kind", "window_shuffle",
        "--k", "8", "--seed", "2", "--out", str(pred),
    )
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("".join(f"{v} {t}\n" for t in (0, 37, 100, 129, 200) for v in range(24)))
    ends = tmp_path / "ends.txt"
    ends.write_text("".join(f"{i} {j}\n" for i in range(0, 24, 7) for j in range(24)))
    triples = tmp_path / "triples.txt"
    triples.write_text("".join(f"{i} {j} {t}\n" for t in (60, 200) for i in range(0, 24, 5) for j in range(24)))
    return inst, str(pred), str(pairs), str(ends), str(triples)


def _digest(doc: dict) -> str:
    return hashlib.sha256(without_timings(doc).encode()).hexdigest()


def test_cli_documents_are_pinned(capsys, pinned_case):
    inst, pred, pairs, ends, triples = pinned_case
    docs = [
        run_json(capsys, "offline", "--input", inst, "--queries", pairs),
        run_json(capsys, "apsp", "--input", inst, "--queries", triples),
        run_json(capsys, "apsp", "--input", inst, "--pred", pred, "--queries", ends),
        run_json(capsys, "online", "--input", inst, "--pred", pred, "--trace"),
    ]
    assert [code for code, _ in docs] == [0, 0, 0, 0]
    offline, apsp_offline, apsp_online, online = (doc for _, doc in docs)
    work = _online_work(online)
    offline_scan_work = offline["build"].pop("scan_work")
    digests = {
        "offline": _digest(offline),
        "apsp-offline": _digest(apsp_offline),
        "apsp-online": _digest(apsp_online),
        "online": _digest(online),
    }
    assert digests == PINNED_DOCS
    by_level = work.pop("rebuilds_by_level")
    pinned = dict(PINNED_ONLINE_WORK)
    assert by_level.keys() == pinned["rebuilds_by_level"].keys()
    assert all(by_level[level] <= cap for level, cap in pinned.pop("rebuilds_by_level").items())
    assert all(work[key] <= cap for key, cap in pinned.items())
    assert offline_scan_work <= PINNED_OFFLINE_SCAN_WORK


# -- metrics and verify ------------------------------------------------------------


def test_metrics_document(capsys, t1_file, t1_pred_file):
    code, doc = run_json(capsys, "metrics", "--input", t1_file, "--pred", t1_pred_file)
    assert code == 0
    profile = doc["profile"]
    assert set(profile) == {
        "eta_per_edge", "eta_max", "hamming", "edit",
        "high_cardinality", "objective_tau", "objective",
    }
    assert len(profile["eta_per_edge"]) == 4


def test_verify_passes_cleanly(capsys, t1_file, t1_pred_file):
    code, doc = run_json(capsys, "verify", "--input", t1_file, "--pred", t1_pred_file)
    assert code == 0
    assert doc["ok"] is True
    assert doc["offline_violations"] == []
    assert doc["online"]["ok"] is True
    assert doc["online"]["fresh_build_checked"] is True


def test_verify_exit_code_on_violations(capsys, t1_file, monkeypatch):
    monkeypatch.setattr(
        "incsp.cli.verify_offline",
        lambda *a, **k: [{"kind": "query", "problem": "forced for the exit-code path"}],
    )
    code, doc = run_json(capsys, "verify", "--input", t1_file)
    assert code == 3
    assert doc["ok"] is False
    assert doc["offline_violations"]


# -- exit codes and plumbing -------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(["gen", "--n", "4"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_file_exits_two(capsys):
    code, out = run(capsys, "offline", "--input", "/nonexistent/inst.edges")
    assert code == 2


def test_malformed_instance_exits_two(capsys, write_instance):
    path = write_instance("not numbers\n", name="bad.edges")
    code, _ = run(capsys, "offline", "--input", path)
    assert code == 2


def test_json_goes_to_out_file(capsys, t1_file, tmp_path):
    target = tmp_path / "doc.json"
    code, out = run(capsys, "offline", "--input", t1_file, "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "offline"
