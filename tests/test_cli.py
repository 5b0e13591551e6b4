import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repair_lab import cli, fieldmath
from repair_lab.scheme import RepairScheme
from repair_lab.search import VerificationError


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, "--json", *argv)
    assert code == 0, err
    return json.loads(out)


def test_field_info_human(capsys):
    code, out, _ = _run(capsys, "field-info", "--q", "2", "--ell", "3")
    assert code == 0
    assert "q=2 ell=3 modulus=[1,1,0,1]" in out
    assert "dual basis" in out


def test_field_info_json(capsys):
    payload = _run_json(capsys, "field-info", "--q", "2", "--ell", "2")
    assert payload["order"] == 4
    assert payload["basis"] == [1, 2]
    assert payload["dual_basis"] == [3, 1]


def test_field_info_custom_modulus_and_basis(capsys):
    payload = _run_json(
        capsys,
        "field-info",
        "--q", "2", "--ell", "3",
        "--modulus", "1,1,0,1",
        "--basis", "1,2,6",
    )
    assert payload["basis"] == [1, 2, 6]


def test_construct_reports_seventeen(capsys):
    payload = _run_json(
        capsys, "construct", "--q", "2", "--ell", "3", "--k", "6", "--s", "0"
    )
    assert payload["s"] == 0
    assert payload["predicted"] == 17
    assert payload["io_cost"] == 17
    assert payload["bandwidth"] == 17
    assert payload["cost_report"]["io_cost_formula"] == 17


def test_construct_picks_deepest_s_by_default(capsys):
    payload = _run_json(capsys, "construct", "--q", "2", "--ell", "3", "--k", "5")
    assert payload["s"] == 1
    assert payload["io_cost"] == 13


def test_construct_for_another_node(capsys):
    payload = _run_json(
        capsys, "construct", "--q", "2", "--ell", "3", "--k", "6", "--node", "4"
    )
    assert payload["cost_report"]["node"] == 4
    assert payload["io_cost"] == 17


def test_construct_infeasible_parameters_exit_2(capsys):
    code, _, err = _run(capsys, "construct", "--q", "2", "--ell", "2", "--k", "3", "--s", "1")
    assert code == 2
    assert "n - k" in err


def test_nonprime_q_exit_2(capsys):
    code, _, err = _run(capsys, "field-info", "--q", "4", "--ell", "2")
    assert code == 2
    assert "prime" in err


def test_cost_roundtrip_through_stdin(capsys, monkeypatch):
    payload = _run_json(
        capsys, "construct", "--q", "2", "--ell", "3", "--k", "6", "--s", "0"
    )
    # the cost command accepts either the bare scheme or the construct payload
    for doc in (payload, payload["scheme"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        report = _run_json(capsys, "cost")
        assert report["io_cost"] == 17
        assert report["io_cost_formula"] == 17


def test_cost_trivial_scheme(capsys, monkeypatch):
    doc = {
        "q": 2,
        "ell": 2,
        "modulus": [1, 1, 1],
        "basis": [1, 2],
        "n": 4,
        "k": 2,
        "star": 1,
        "duals": [[3], [1]],
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    report = _run_json(capsys, "cost")
    assert report["io_cost"] == (4 - 1) * 2


def test_cost_malformed_json_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
    code, _, err = _run(capsys, "cost")
    assert code == 2


def test_cost_invalid_scheme_exit_2(capsys, monkeypatch):
    doc = {
        "q": 2,
        "ell": 2,
        "n": 4,
        "k": 2,
        "star": 1,
        "duals": [[0, 0, 1], [1]],  # degree 2 is outside the dual code
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, _, err = _run(capsys, "cost")
    assert code == 2
    assert "degree" in err


_GOOD_DOC = {"q": 2, "ell": 2, "n": 4, "k": 2, "star": 1, "duals": [[3], [1]]}


@pytest.mark.parametrize(
    "doc",
    [
        [1],
        "scheme",
        5,
        None,
        {"scheme": [1]},
        {"q": "2", "ell": 3, "k": 5, "star": 1, "duals": [[1]]},
        {**_GOOD_DOC, "q": True},
        {**_GOOD_DOC, "ell": 2.0},
        {**_GOOD_DOC, "star": None},
        {key: v for key, v in _GOOD_DOC.items() if key != "k"},
        {**_GOOD_DOC, "modulus": "1,1,1"},
        {**_GOOD_DOC, "modulus": [1, "1", 1]},
        {**_GOOD_DOC, "basis": [1, False]},
        {**_GOOD_DOC, "duals": [3, 1]},
        {**_GOOD_DOC, "duals": [[3], [1.0]]},
        {**_GOOD_DOC, "duals": {"1": [3]}},
        {**_GOOD_DOC, "n": 99},
        {**_GOOD_DOC, "n": "abc"},
    ],
    ids=lambda doc: json.dumps(doc)[:40],
)
def test_cost_malformed_scheme_exit_2(capsys, monkeypatch, doc):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, err = _run(capsys, "cost")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text", ['[1]', '{"q":"2","ell":3,"k":5,"star":1,"duals":[[1]]}']
)
def test_cost_malformed_scheme_no_traceback_subprocess(text):
    proc = subprocess.run(
        [sys.executable, "-m", "repair_lab", "cost"],
        input=text,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "text", [_DEEP, json.dumps(_GOOD_DOC)[:-1] + ', "extra": ' + _DEEP + "}"],
    ids=["bare", "inside-a-scheme"],
)
def test_cost_deeply_nested_json_exits_2(text):
    proc = subprocess.run(
        [sys.executable, "-m", "repair_lab", "cost"],
        input=text,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


_TIMED_MAIN = """
import sys, time
from repair_lab import cli
t0 = time.perf_counter()
code = cli.main(sys.argv[1:])
print(time.perf_counter() - t0)
sys.exit(code)
"""


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["field-info", "--q", "2", "--ell", str(10**12)], ""),
        (["field-info", "--q", "2", "--ell", str(10**8)], ""),
        (["cost"], json.dumps({**_GOOD_DOC, "ell": 10**30})),
        (["cost"], json.dumps({**_GOOD_DOC, "ell": 10**30, "modulus": [1, 1, 1]})),
        (["compare", "--q", "2", "--ell", str(10**12), "--s", "0", "--k", "3"], ""),
        (["compare", "--q", "2", "--ell", str(10**5), "--s", "0", "--k", "3"], ""),
    ],
    ids=["field-info-1e12", "field-info-1e8", "cost-1e30", "cost-1e30-modulus",
         "compare-1e12", "compare-1e5"],
)
def test_huge_ell_exits_2_at_once(argv, stdin):
    # q**ell must not be formed before the modulus is resolved; a 1 GB address
    # space turns a regression into a quick MemoryError instead of an OOM kill
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, *argv],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert float(proc.stdout) < 1.0


def test_repair_demo_seventeen_reads(capsys):
    code, out, _ = _run(
        capsys,
        "repair-demo",
        "--q", "2", "--ell", "3", "--k", "6", "--s", "0",
        "--node", "3", "--seed", "1",
    )
    assert code == 0
    assert "recovered: exact" in out
    assert "total subsymbols read: 17" in out


def test_repair_demo_totals_match_at_every_node(capsys):
    totals = set()
    for node in ("1", "3", "8"):
        payload = _run_json(
            capsys,
            "repair-demo",
            "--q", "2", "--ell", "3", "--k", "6", "--node", node, "--seed", "5",
        )
        assert payload["exact"]
        assert payload["total_read"] == payload["io_cost"]
        totals.add(payload["total_read"])
    assert totals == {17}


def test_repair_demo_bad_node_exit_2(capsys):
    code, _, _ = _run(capsys, "repair-demo", "--q", "2", "--ell", "2", "--k", "2", "--node", "9")
    assert code == 2


def test_search_min_json(capsys):
    payload = _run_json(capsys, "search-min", "--q", "2", "--ell", "2", "--r", "2")
    # no `scored`: it depends on how the scan is split across workers
    assert sorted(payload) == [
        "cost_report", "ell", "min_io_cost", "node", "q", "r", "subspaces", "visited",
        "witness",
    ]
    assert payload["subspaces"] == 35
    assert payload["visited"] == 6
    assert payload["min_io_cost"] == 4
    assert payload["witness"]["star"] == 1
    assert payload["cost_report"]["io_cost"] == 4


def test_search_min_human(capsys):
    code, out, _ = _run(capsys, "search-min", "--q", "2", "--ell", "2", "--r", "2")
    assert code == 0
    assert out.startswith("searched 35 subspaces (6 visited) for q=2 ell=2 r=2, node 1\n")
    assert "minimum io cost: 4" in out


@pytest.mark.parametrize("command", ["search-min", "verify"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_exit_2(capsys, command, workers):
    code, out, err = _run(
        capsys, command, "--q", "2", "--ell", "2", "--r", "2", "--workers", workers
    )
    assert code == 2
    assert out == ""
    assert err == f"error: workers must be >= 1, got {workers}\n"


@pytest.mark.parametrize("value", ["abc", "2.5", " "])
def test_bad_worker_env_exits_2_naming_it(capsys, monkeypatch, value):
    monkeypatch.setenv("REPAIR_LAB_THREADS", value)
    code, out, err = _run(capsys, "search-min", "--q", "2", "--ell", "2", "--r", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: REPAIR_LAB_THREADS must be an integer, got {value!r}\n"


def test_verify_human(capsys):
    code, out, _ = _run(capsys, "verify", "--q", "2", "--ell", "2", "--r", "2")
    assert code == 0
    assert "bound 4" in out
    assert "exhaustive min 4" in out
    assert "gap: 0" in out


def test_verify_human_names_the_visits_over_the_cap(capsys):
    code, out, _ = _run(capsys, "verify", "--q", "2", "--ell", "4", "--r", "3")
    assert code == 0
    assert "search skipped (286392320 schemes to visit, over cap)" in out
    assert "gap: 2" in out


def test_verify_certifies_q2_ell5_two_parities(capsys):
    # 109 221 651 subspaces, certified by visiting 1 082 402 schemes
    payload = _run_json(capsys, "verify", "--q", "2", "--ell", "5", "--r", "2")
    assert payload["searched"]
    assert payload["subspaces"] == 109_221_651
    assert payload["min"] == payload["bound"] == payload["construction"] == 139
    assert payload["gap"] == 0


def test_verify_failure_exit_1(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise VerificationError("forced failure")

    monkeypatch.setattr(cli, "verify_bound", boom)
    code, _, err = _run(capsys, "verify", "--q", "2", "--ell", "2", "--r", "2")
    assert code == 1
    assert "verification failed" in err


def test_compare_table(capsys):
    payload = _run_json(
        capsys, "compare", "--q", "2", "--ell", "4", "--s", "1", "--k", "13"
    )
    assert payload["prior_bandwidth"] == 45
    assert payload["prior_io"] == 56
    assert payload["trivial_io"] == 52
    assert payload["ours"] == 44
    assert payload["below_trivial"] is True


def test_compare_with_measurement(capsys):
    payload = _run_json(
        capsys,
        "compare", "--q", "2", "--ell", "4", "--s", "1", "--k", "13", "--check",
    )
    assert payload["measured_io"] == 44
    assert payload["measured_bandwidth"] == 44


def test_compare_human_output(capsys):
    code, out, _ = _run(capsys, "compare", "--q", "2", "--ell", "3", "--s", "0", "--k", "6")
    assert code == 0
    assert "this construction:       17" in out
    assert "trivial repair io cost:  18" in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--q", "2", "--ell", "3", "--s", "5", "--k", "3"), "s < ell"),
        (("--q", "2", "--ell", "3", "--s", "0", "--k", "100"), "n - k"),
        (("--q", "4", "--ell", "3", "--s", "0", "--k", "3"), "prime"),
        (("--q", "2", "--ell", "3", "--s", "-1", "--k", "3"), "0 <= s"),
        (("--q", "2", "--ell", "3", "--s", "0", "--k", "0"), "k >= 1"),
    ],
    ids=["s-too-large", "k-too-large", "q-not-prime", "s-negative", "k-zero"],
)
def test_compare_infeasible_parameters_exit_2(capsys, flags, message):
    code, out, err = _run(capsys, "compare", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_construct_at_full_length_n1024(capsys):
    # q=2, ell=10: every node of the length-1024 code is a helper but one
    payload = _run_json(
        capsys, "construct", "--q", "2", "--ell", "10", "--k", "1020", "--s", "1",
        "--node", "517",
    )
    report = payload["cost_report"]
    assert payload["io_cost"] == report["io_cost_formula"] == payload["bandwidth"] == 9206
    assert len(report["per_node"]) == 1023
    scheme = RepairScheme.from_dict(payload["scheme"])
    assert scheme.star == 517
    word = scheme.code.random_codeword(2017)
    punctured = list(word)
    punctured[516] = None
    value, reads = scheme.repair_transcript(punctured)
    assert value == word[516]
    assert sum(len(cols) for cols in reads.values()) == 9206


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repair_lab", "--json", "field-info", "--q", "3", "--ell", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 9


def test_back_to_back_main_calls_share_no_state(capsys):
    # main() parses with one parser per process; no flag, default or output
    # mode may carry over from one call to the next, nor past a parse error
    small = ["--q", "2", "--ell", "3", "--k", "5"]
    calls = [
        ["--json", "construct", *small, "--node", "3"],
        ["repair-demo", *small, "--seed", "4"],
        ["construct", *small, "--no-such-flag"],
        ["--json", "field-info", "--q", "3", "--ell", "2"],
        ["construct", *small],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0]
    assert json.loads(shared[0][1])["scheme"]["star"] == 3
    assert shared[1][1].startswith("repair node 1 ") and shared[4][1].startswith("scheme for")
    assert "node 1" in shared[4][1].splitlines()[0]
    assert json.loads(shared[3][1])["order"] == 9


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "repair_lab", "no-such-command"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2


_N1024 = ["construct", "--q", "2", "--ell", "10", "--k", "1020", "--s", "1"]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["--json", *_N1024], _N1024, ["field-info", "--q", "2", "--ell", "3"]],
    ids=["json", "human", "small-output"],
)
def test_closed_output_pipe_exits_without_a_traceback(argv, unbuffered):
    # the reader takes one line (the JSON output is far larger than a pipe
    # buffer) or none, and closes the pipe while the command still has output
    # to write; a buffered small output fails only when it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repair_lab", *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    if argv[0] == "--json":
        assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    assert stderr == ""


@pytest.mark.parametrize(
    "extra, code, message",
    [
        ([], 2, "no built-in modulus"),
        (["--modulus", "0,1"], 0, None),
        (["--q", "2305843009213693953"], 2, "q must be prime"),
        (["--q", str(2**127 - 1), "--modulus", "0,1"], 2, "too large"),
    ],
    ids=["prime-no-modulus", "prime-with-modulus", "composite", "beyond-the-exact-range"],
)
def test_field_info_answers_for_a_huge_q(extra, code, message):
    # 2^61 - 1 is prime and 2^61 + 1 is not; neither is decided by trial division
    argv = ["--json", "field-info", "--q", "2305843009213693951", "--ell", "1", *extra]
    proc = subprocess.run(
        [sys.executable, "-m", "repair_lab", *argv], capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == code, proc.stderr
    if message is None:
        assert json.loads(proc.stdout)["order"] == 2**61 - 1
    else:
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert proc.stderr.count("\n") == 1


# ---- the JSON writer ---------------------------------------------------------------

_KEYS = st.text() | st.sampled_from(['', '"', "\\", "\n", "\x00\x1f", "\u00e9t\u00e9", "\u2028", "\U0001f600", "a/b"])
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300]) | _KEYS
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.tuples(inner, inner) | st.just(())
    | st.dictionaries(_KEYS, inner, max_size=5) | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps_byte_for_byte(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


def test_json_output_is_what_json_dumps_writes(capsys):
    # every --json payload goes through the writer; this one nests every shape
    code, out, _ = _run(capsys, "--json", "repair-demo", "--q", "3", "--ell", "2", "--k", "5", "--node", "4")
    assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"


# ---- shared field contexts -----------------------------------------------------------


def test_cli_and_from_dict_share_the_field_context(capsys, monkeypatch):
    monkeypatch.setattr(fieldmath, "_SHARED", {})
    field = ["--q", "2", "--ell", "4", "--basis", "3,2,4,8"]
    payload = _run_json(capsys, "construct", *field, "--k", "13", "--node", "5")
    ctx = cli._context(cli._parser().parse_args(["field-info", *field]))
    assert RepairScheme.from_dict(payload["scheme"]).ctx is ctx
    assert cli._context(cli._parser().parse_args(["field-info", *field[:4]])) is not ctx
    # a malformed field still exits 2, every time, and is never kept
    before = dict(fieldmath._SHARED)
    for _ in range(2):
        code, out, err = _run(capsys, "field-info", *field[:4], "--modulus", "1,0,1,0,1")
        assert (code, out) == (2, "") and "not irreducible" in err
    assert fieldmath._SHARED == before
