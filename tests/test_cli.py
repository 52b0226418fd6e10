import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import catdom as cd
from catdom import cli, engine
from catdom.cli import main

from conftest import (
    MIXED_ORDER_3X2_ROUNDS,
    PROFILE_3X2_ROWS,
    SHAPE_3X2,
    profile_of,
)


@pytest.fixture
def order_file(tmp_path, mixed_order_3x2):
    path = tmp_path / "order.json"
    path.write_text(json.dumps(cd.order_to_json(mixed_order_3x2)))
    return str(path)


@pytest.fixture
def profile_file(tmp_path):
    profile = profile_of(SHAPE_3X2, PROFILE_3X2_ROWS)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(cd.profile_to_json(profile)))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    """The pretty-printed document at the end of the output."""
    start = out.index("{\n")
    return json.loads(out[start:])


class TestRun:
    def test_mixed_run(self, capsys, order_file, profile_file):
        code, out = run_cli(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", "opt,opt,pess"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["allocation"]["bundles"] == {"1": [1, 1], "2": [2, 2], "3": [3, 3]}
        assert doc["ranks"] == {"1": 9, "2": 9, "3": 7}
        assert doc["message_count"] == 21

    def test_trace_lines(self, capsys, order_file, profile_file):
        code, out = run_cli(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", "opt,opt,pess", "--trace"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        first = json.loads(lines[0])
        assert first["t"] == 1
        assert first["agent"] == 1
        assert first["item"] == 1

    def test_ranks_read_once(self, monkeypatch, capsys, order_file, profile_file):
        # the play reads bitsets; each agent's rank is read once for the document
        calls = []
        rank_of = cd.Preference.rank_of

        def counted(pref, bundle):
            calls.append(bundle)
            return rank_of(pref, bundle)

        monkeypatch.setattr(cd.Preference, "rank_of", counted)
        code, out = run_cli(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", "opt,opt,pess"],
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["utilitarian"], doc["egalitarian"]) == (25, 9)
        assert calls == [(1, 1), (2, 2), (3, 3)]

    def test_trace_golden_3x4(self, capsys, tmp_path):
        # stdout bytes pinned by digest: a scripted, an optimistic and a
        # pessimistic agent on the balanced 3x4 order; a change is recorded
        # in CHANGES.md
        shape = cd.DomainShape(3, 4)
        rng = random.Random(2015)
        bundles = list(shape.bundles())
        rows = []
        for _ in shape.agents():
            rng.shuffle(bundles)
            rows.append([list(b) for b in bundles])
        (tmp_path / "profile.json").write_text(
            json.dumps({"n": 3, "p": 4, "preferences": rows})
        )
        order = cd.balanced_order([1, 2, 3], 4)
        (tmp_path / "order.json").write_text(json.dumps(cd.order_to_json(order)))
        (tmp_path / "script.json").write_text(json.dumps([2, 3, 2, 3]))
        code, out = run_cli(
            capsys,
            ["run", "--order", str(tmp_path / "order.json"),
             "--profile", str(tmp_path / "profile.json"),
             "--behaviors", f"script:{tmp_path / 'script.json'},opt,pess", "--trace"],
        )
        assert code == 0
        assert out.count("\n") > 12
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7a828d868b489ab14fab0fcf64d09c66646d8770aec11b4bcc3cb2aad2317e9f"
        )

    def test_scripted_behaviors(self, capsys, tmp_path, order_file, profile_file):
        for j, picks in ((1, [1, 1]), (2, [2, 2]), (3, [3, 3])):
            (tmp_path / f"script{j}.json").write_text(json.dumps(picks))
        behaviors = ",".join(f"script:{tmp_path}/script{j}.json" for j in (1, 2, 3))
        code, out = run_cli(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", behaviors],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["allocation"]["bundles"]["1"] == [1, 1]

    def test_behavior_count_error(self, capsys, order_file, profile_file):
        code, _ = run_cli(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", "opt,opt"],
        )
        assert code == 1

    def test_missing_file_error(self, capsys, profile_file):
        code, _ = run_cli(
            capsys,
            ["run", "--order", "/nonexistent/order.json", "--profile", profile_file,
             "--behaviors", "opt,opt,pess"],
        )
        assert code == 1


def assert_rejected(capsys, argv):
    """Exit 1, nothing on stdout, one ``error:`` line on stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


class TestMalformedInput:
    @pytest.mark.parametrize(
        "doc",
        [
            {"n": True, "p": 1, "rounds": [[1, 1]]},
            {"n": 2, "p": 1, "rounds": [[1.7, 1], [2, 1.2]]},
            {"n": 2, "p": 1, "rounds": [[1], [2, 1]]},
            {"n": 2, "p": 1, "rounds": [["a", 1], [2, 1]]},
        ],
    )
    def test_order_rejected(self, capsys, tmp_path, doc):
        path = tmp_path / "order.json"
        path.write_text(json.dumps(doc))
        assert_rejected(capsys, ["analyze-order", "--order", str(path)])

    @pytest.mark.parametrize("text", ["{not json", "", '{"n": 2,'])
    def test_order_file_not_json(self, capsys, tmp_path, text):
        path = tmp_path / "order.json"
        path.write_text(text)
        err = assert_rejected(capsys, ["analyze-order", "--order", str(path)])
        assert f"{path} is not valid JSON" in err

    @pytest.mark.parametrize("depth", [10_000, 100_000])
    def test_deeply_nested_file(self, capsys, tmp_path, depth):
        # json.load's RecursionError used to escape as a traceback
        path = tmp_path / "order.json"
        path.write_text("[" * depth + "]" * depth)
        err = assert_rejected(capsys, ["analyze-order", "--order", str(path)])
        assert f"{path} is nested too deeply to read" in err

    # which file of each subcommand is unreadable: the order, the profile or
    # a script file
    UNREADABLE = {
        "run-order": ["run", "--order", "BAD", "--profile", "PROFILE",
                      "--behaviors", "opt,opt,pess"],
        "run-profile": ["run", "--order", "ORDER", "--profile", "BAD",
                        "--behaviors", "opt,opt,pess"],
        "run-script": ["run", "--order", "ORDER", "--profile", "PROFILE",
                       "--behaviors", "script:BAD,opt,pess"],
        "analyze-order": ["analyze-order", "--order", "BAD"],
        "bounds": ["bounds", "--order", "BAD", "--behaviors", "opt,opt,pess"],
        "worst-case": ["worst-case", "--order", "BAD", "--behaviors", "opt,opt,pess"],
        "spne-order": ["spne", "--order", "BAD", "--profile", "PROFILE"],
        "spne-profile": ["spne", "--order", "ORDER", "--profile", "BAD"],
    }

    @pytest.mark.parametrize(
        "content",
        [
            # json.load's plain ValueError past the int digit limit
            b'{"n": 2, "p": 1, "rounds": [[' + b"7" * 5001 + b", 1], [2, 1]]}",
            # a UTF-16 byte order mark: not UTF-8
            b"\xff\xfe{\x00}\x00",
        ],
        ids=["5001-digit-agent", "utf-16-bytes"],
    )
    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_unreadable_file(self, capsys, tmp_path, order_file, profile_file, content, case):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        names = {"ORDER": order_file, "PROFILE": profile_file, "BAD": str(path)}
        argv = [names.get(arg, arg.replace("BAD", str(path))) for arg in self.UNREADABLE[case]]
        err = assert_rejected(capsys, argv)
        assert err.startswith(f"error: {path} is not valid JSON: ")

    @pytest.mark.parametrize("token", ["optimist", "script", "PESS", ""])
    def test_unknown_behavior_token(self, capsys, order_file, profile_file, token):
        err = assert_rejected(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", f"opt,{token},pess"],
        )
        assert f"unknown behavior {token!r} (use opt, pess, or script:FILE)" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            # a 500-deep entry: the whole argument used to be echoed
            (
                {"n": 2, "p": 1, "rounds": [[1, 1], json.loads("[" * 500 + "]" * 500)]},
                "order round 2 is not an (agent, category) pair of a 2x1 domain: [[...]]",
            ),
            # a 100000x1 order with one pair repeated: a 1.19 MB line before
            (
                {
                    "n": 100_000,
                    "p": 1,
                    "rounds": [[j, 1] for j in range(1, 100_000)] + [[7, 1]],
                },
                "order round 100000 repeats the pair (7, 1)",
            ),
            (
                {"n": 100_000, "p": 1, "rounds": [[j, 1] for j in range(100_000, 1, -1)]},
                "order has no round for the pair (1, 1)",
            ),
            (
                {"n": 2, "p": 1, "rounds": [[2, 1], ["x" * 10_000, 1]]},
                "order round 2 is not an (agent, category) pair of a 2x1 domain: ['xxxxx",
            ),
        ],
    )
    def test_bad_order_named_in_one_short_line(self, capsys, tmp_path, doc, message):
        path = tmp_path / "order.json"
        path.write_text(json.dumps(doc))
        err = assert_rejected(capsys, ["analyze-order", "--order", str(path)])
        assert err.startswith(f"error: {message}")
        assert len(err) < 200

    @pytest.mark.parametrize(
        "command, bad",
        [
            # one bundle of 100,000 components: a line of about 300,000 characters before
            ("run", {"bundle": [1] * 100_000}),
            # one item a 100,000-int list: about 600,000 characters before
            ("spne", {"bundle": [1, [0] * 100_000]}),
            # a script of 100,000 strings: about 500,000 characters before
            ("run", {"script": ["x"] * 100_000}),
        ],
    )
    def test_long_input_named_in_one_short_line(
        self, capsys, tmp_path, order_file, profile_file, command, bad
    ):
        behaviors = ["--behaviors", "opt,opt,pess"] if command == "run" else []
        if "bundle" in bad:
            doc = json.loads(Path(profile_file).read_text())
            doc["preferences"][0][0] = bad["bundle"]
            profile_file = tmp_path / "long.json"
            profile_file.write_text(json.dumps(doc))
        else:
            script = tmp_path / "script.json"
            script.write_text(json.dumps(bad["script"]))
            behaviors = ["--behaviors", f"opt,script:{script},pess"]
        argv = [command, "--order", order_file, "--profile", str(profile_file), *behaviors]
        err = assert_rejected(capsys, argv)
        assert len(err) < 200

    @pytest.mark.parametrize("row", [[[True, 1], [1, 2], [2, 1], [2, 2]], [1, 2, 3, 4]])
    def test_profile_row_rejected(self, capsys, tmp_path, game_order_2x2, game_profile_2x2, row):
        doc = cd.profile_to_json(game_profile_2x2)
        doc["preferences"][0] = row
        order_path = tmp_path / "order.json"
        order_path.write_text(json.dumps(cd.order_to_json(game_order_2x2)))
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(doc))
        assert_rejected(
            capsys,
            ["run", "--order", str(order_path), "--profile", str(profile_path),
             "--behaviors", "opt,opt"],
        )

    @pytest.mark.parametrize("picks", [[1.7, 1], [True, 1]])
    def test_script_picks_rejected(self, capsys, tmp_path, order_file, profile_file, picks):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(picks))
        err = assert_rejected(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", f"script:{script},opt,opt"],
        )
        assert "not all integers" in err


EXHAUSTIVE_SD = ["check-axioms", "--mechanism", "sd", "--n", "2", "--p", "2"]
SAMPLED_SD = EXHAUSTIVE_SD + ["--mode", "sampled"]
EXHAUSTIVE_SEARCH = ["search", "--n", "2", "--p", "2", "--behaviors", "opt,opt"]
RANDOM_SEARCH = EXHAUSTIVE_SEARCH + ["--mode", "random"]
EXPERIMENT = ["experiment", "--n", "2", "--phi", "0.5", "--samples", "2"]


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (SAMPLED_SD + ["--count", "0"], "count of at least 1, got 0"),
            (SAMPLED_SD + ["--count", "-1"], "count of at least 1, got -1"),
            (SAMPLED_SD + ["--seed", "-1"], "seed must be a non-negative integer, got -1"),
            (RANDOM_SEARCH + ["--seed", "-1"], "seed must be a non-negative integer, got -1"),
            (EXPERIMENT + ["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        ],
    )
    def test_seed_and_count_rejected(self, capsys, argv, needle):
        assert needle in assert_rejected(capsys, argv)

    @pytest.mark.parametrize(
        "flag, value, token",
        [("--phi", "0.5,,", "''"), ("--n", "2,x", "'x'"), ("--n", "1..x", "'x'")],
    )
    def test_experiment_list_token_named(self, capsys, flag, value, token):
        argv = ["experiment", "--n", "2", "--phi", "0.5", flag, value]
        assert f"{flag} has a malformed entry {token}" in assert_rejected(capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [["search", "--n", "x", "--p", "2", "--behaviors", "opt"], [], ["no-such-command"]],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        # argparse used to print a usage block and exit 2, the refusal code
        assert_rejected(capsys, argv)

    def test_help_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: catdom search")


# Malformed flag values: negative, empty, non-numeric (no digits, no "inf"
# or "nan"), or a ``..`` range with junk on one side.
_JUNK = st.text(alphabet="abxyz.,:", min_size=1)
_MALFORMED = st.one_of(
    st.integers(max_value=-1).map(str),
    st.just(""),
    _JUNK,
    st.builds("{}..{}".format, st.sampled_from(["", "1", "-1", "x"]), _JUNK),
    st.builds("{}..{}".format, _JUNK, st.sampled_from(["", "3", "x"])),
)
# Each base run is short and valid; the fuzz overrides some of its flags.
# Exhaustive mode reads neither --seed nor --count but still checks both.
_FUZZ = {
    "search": (RANDOM_SEARCH + ["--budget", "5"], ("--seed", "--n")),
    "search-exhaustive": (EXHAUSTIVE_SEARCH, ("--seed", "--n")),
    "check-axioms": (SAMPLED_SD + ["--count", "5"], ("--seed", "--count", "--n")),
    "check-axioms-exhaustive": (EXHAUSTIVE_SD, ("--seed", "--count", "--n")),
    "experiment": (EXPERIMENT, ("--seed", "--n", "--phi", "--samples")),
}


def run_quietly(argv):
    """``(exit code, stdout, stderr)`` of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_line_failure(code, out, err):
    assert code in (1, 2)
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_malformed_numbers_fuzz(data):
    base, flags = _FUZZ[data.draw(st.sampled_from(sorted(_FUZZ)))]
    chosen = data.draw(st.lists(st.sampled_from(flags), min_size=1, unique=True))
    argv = list(base)
    for flag in chosen:
        argv += [flag, data.draw(_MALFORMED)]
    assert_one_line_failure(*run_quietly(argv))


# Values of the wrong kind for any place in a JSON document: null, a float,
# true, a string, an object, nested lists, and integers past 2**63.
_WRONG_VALUES = (None, 1.5, True, "1", {}, [[1, [2]]], 2**63, 2**70 + 1)


def _locations(doc, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _locations(value, path + (key,))


def _malformed(doc, rng):
    """A copy of ``doc`` with one to three values dropped or replaced."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_locations(doc)))
        value = copy.deepcopy(rng.choice(_WRONG_VALUES))
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if rng.random() < 0.25:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def test_malformed_documents_fuzz(tmp_path, game_order_2x2, game_profile_2x2):
    # every run exits 0, or fails with one line; an integer of 2**63 or more
    # as a dimension used to escape as an OverflowError traceback
    valid = {
        "order": cd.order_to_json(game_order_2x2),
        "profile": cd.profile_to_json(game_profile_2x2),
        "script": [1, 1],
    }
    path = {name: str(tmp_path / f"{name}.json") for name in valid}
    runs = [
        ["run", "--order", path["order"], "--profile", path["profile"],
         "--behaviors", f"script:{path['script']},opt"],
        ["bounds", "--order", path["order"], "--behaviors", "opt,pess"],
        ["worst-case", "--order", path["order"], "--behaviors", "opt,pess"],
        ["spne", "--order", path["order"], "--profile", path["profile"]],
        ["analyze-order", "--order", path["order"]],
    ]
    for name, doc in valid.items():
        Path(path[name]).write_text(json.dumps(doc))
    assert [run_quietly(argv)[0] for argv in runs] == [0] * len(runs)
    rng = random.Random(2015)
    for _ in range(150):
        target = rng.choice(sorted(valid))
        for name, doc in valid.items():
            Path(path[name]).write_text(json.dumps(_malformed(doc, rng) if name == target else doc))
        for argv in runs:
            if path[target] in " ".join(argv):
                code, out, err = run_quietly(argv)
                if code != 0:
                    assert_one_line_failure(code, out, err)


def assert_refused(capsys, argv):
    """Exit 2, nothing on stdout, one ``refused:`` line on stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("refused: ") and captured.err.count("\n") == 1


HUGE = str(2**70)


class TestOversizedShapes:
    """2**70 categories overflowed a C integer inside the capacity guard, and
    check-axioms built its mechanism for 2**70 agents before the shape."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--n", "2", "--p", HUGE, "--behaviors", "opt,opt"],
            ["check-axioms", "--mechanism", "sd", "--n", "2", "--p", HUGE],
            ["check-axioms", "--mechanism", "sd", "--n", HUGE, "--p", "2"],
            ["check-axioms", "--mechanism", "worst-pick-sd", "--n", HUGE, "--p", "2"],
            ["experiment", "--n", "2", "--p", HUGE, "--phi", "0.5"],
        ],
    )
    def test_flag_refused(self, capsys, argv):
        assert_refused(capsys, argv)

    @pytest.mark.parametrize(
        "command, oversized",
        [(c, "order") for c in ("run", "bounds", "worst-case", "spne", "analyze-order")]
        + [("run", "profile"), ("spne", "profile")],
    )
    def test_document_refused(
        self, capsys, tmp_path, game_order_2x2, game_profile_2x2, command, oversized
    ):
        docs = {
            "order": cd.order_to_json(game_order_2x2),
            "profile": cd.profile_to_json(game_profile_2x2),
        }
        docs[oversized]["p"] = 2**70
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv = [command, "--order", str(tmp_path / "order.json")]
        if command in ("run", "spne"):
            argv += ["--profile", str(tmp_path / "profile.json")]
        if command in ("run", "bounds", "worst-case"):
            argv += ["--behaviors", "opt,opt"]
        assert_refused(capsys, argv)


class TestAnalyzeOrder:
    def test_analytics_doc(self, capsys, order_file):
        code, out = run_cli(capsys, ["analyze-order", "--order", order_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["rounds"] == [list(r) for r in MIXED_ORDER_3X2_ROUNDS]
        agent1 = doc["agents"][0]
        assert agent1["suborder"] == [1, 2]
        assert agent1["slacks"] == {"1": 3, "2": 1}
        assert agent1["uninterrupted_index"] == 2
        assert doc["message_count"] == 21

    PINNED = {
        "sd-3x4": (
            lambda: cd.serial_dictatorship_order([1, 2, 3], 4),
            "af181ac0dbb7eccb3d1b6b2835793e2e2a5e7820879cde5e85c733cec704cdd2",
        ),
        "sd-4x4": (
            lambda: cd.serial_dictatorship_order([1, 2, 3, 4], 4),
            "1f26f02e90c70abef58b76de233cfab1e8431fccfdfb1ad0eb7ba2014f710419",
        ),
        "balanced-3x4": (
            lambda: cd.balanced_order([1, 2, 3], 4),
            "d67056bb30f7eedf39408f43f9e817a656157e1cf0c0738a00ebe237ced74a8c",
        ),
        "balanced-4x4": (
            lambda: cd.balanced_order([1, 2, 3, 4], 4),
            "485f5004bc06ebd7da2a4923d453c458f5c05dc62a83269b0f094113669aba6d",
        ),
        "interrupter-4x2": (
            lambda: cd.interrupter_order(4, 2),
            "a80c5dfa4e8682d9307ef990b2a4122c07e81ba39fcb0327208ebd637384aa02",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_doc_pinned(self, capsys, tmp_path, name):
        # stdout bytes pinned by digest; a change is recorded in CHANGES.md
        make, digest = self.PINNED[name]
        path = tmp_path / "order.json"
        path.write_text(json.dumps(cd.order_to_json(make())))
        code, out = run_cli(capsys, ["analyze-order", "--order", str(path)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBounds:
    def test_report_doc(self, capsys, order_file):
        code, out = run_cli(
            capsys, ["bounds", "--order", order_file, "--behaviors", "opt,opt,pess"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["utilitarian"] == 25
        assert doc["egalitarian"] == 9
        assert [a["bound"] for a in doc["agents"]] == [9, 9, 7]


class TestSearch:
    def test_exhaustive_small(self, capsys):
        code, out = run_cli(
            capsys,
            ["search", "--n", "2", "--p", "2", "--behaviors", "pess,pess",
             "--objective", "egalitarian"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["score"] == 3
        assert doc["objective"] == "egalitarian"

    def test_budget_exceeded_exit_code(self, capsys):
        code, _ = run_cli(
            capsys,
            ["search", "--n", "3", "--p", "3", "--behaviors", "opt,opt,opt",
             "--budget", "10"],
        )
        assert code == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_scripted_search_is_bad_input_at_every_shape(self, capsys, tmp_path, n):
        # at 3x3, (n*p)! is over the default budget: bad input still wins
        script = tmp_path / "s.json"
        script.write_text(json.dumps([1] * n))
        behaviors = ",".join(["opt"] * (n - 1) + [f"script:{script}"])
        err = assert_rejected(
            capsys, ["search", "--n", str(n), "--p", str(n), "--behaviors", behaviors]
        )
        assert "scripted agents have no order-level worst-case guarantee" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_exhaustive_budget_below_one_exit_code(self, budget):
        code, out, err = run_quietly(
            ["search", "--n", "2", "--p", "2", "--behaviors", "opt,opt", "--budget", budget]
        )
        assert code == 1
        assert_one_line_failure(code, out, err)
        assert err.startswith("error: exhaustive search needs a budget of at least 1 order")

    def test_oversized_exhaustive_search_refused(self, capsys):
        # formatting (n*p)! here used to escape as a ValueError traceback
        code = main(["search", "--n", "1", "--p", "3000", "--behaviors", "opt"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("refused: ") and err.count("\n") == 1
        assert "more than 200000 orders" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_random_mode_empty_budget_exit_code(self, capsys, budget):
        code = main(
            ["search", "--n", "2", "--p", "2", "--behaviors", "opt,opt",
             "--mode", "random", "--budget", budget]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_random_mode_empty_budget_under_optimize_flag(self):
        # the budget check must not be an assert, which python -O strips
        env = dict(os.environ, PYTHONPATH=str(Path(cd.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "catdom.cli", "search", "--n", "2", "--p", "2",
             "--behaviors", "opt,opt", "--mode", "random", "--budget", "0"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


class TestWorstCase:
    def test_profile_written(self, capsys, tmp_path, order_file):
        out_path = tmp_path / "witness.json"
        code, out = run_cli(
            capsys,
            ["worst-case", "--order", order_file, "--behaviors", "opt,opt,pess",
             "--out", str(out_path)],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["realized"]["ranks"] == {"1": 9, "2": 9, "3": 7}
        assert doc["near_optimal"]["ranks"] == {"1": 2, "2": 1, "3": 1}
        written = cd.profile_from_json(json.loads(out_path.read_text()))
        assert written.shape == SHAPE_3X2

    def test_unwritable_out_is_bad_input(self, capsys, tmp_path, order_file):
        out_path = tmp_path / "missing" / "witness.json"
        code = main(
            ["worst-case", "--order", order_file, "--behaviors", "opt,opt,pess",
             "--out", str(out_path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out_path}: ")
        assert captured.err.count("\n") == 1


class TestSpne:
    def test_equilibrium_doc(self, capsys, tmp_path, game_order_2x2, game_profile_2x2):
        order_path = tmp_path / "order.json"
        order_path.write_text(json.dumps(cd.order_to_json(game_order_2x2)))
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(cd.profile_to_json(game_profile_2x2)))
        code, out = run_cli(
            capsys,
            ["spne", "--order", str(order_path), "--profile", str(profile_path),
             "--trace", "--states"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert json.loads(lines[0])["t"] == 1
        doc = last_json(out)
        assert doc["allocation"]["bundles"] == {"1": [1, 1], "2": [2, 2]}
        assert doc["state_space_size"] > 0

    def test_trace_golden_3x4(self, capsys, tmp_path):
        # stdout bytes pinned by digest: the balanced 3x4 order against three
        # shuffled rankings; a change is recorded in CHANGES.md
        shape = cd.DomainShape(3, 4)
        rng = random.Random(2015)
        bundles = list(shape.bundles())
        rows = []
        for _ in shape.agents():
            rng.shuffle(bundles)
            rows.append([list(b) for b in bundles])
        (tmp_path / "profile.json").write_text(
            json.dumps({"n": 3, "p": 4, "preferences": rows})
        )
        order = cd.balanced_order([1, 2, 3], 4)
        (tmp_path / "order.json").write_text(json.dumps(cd.order_to_json(order)))
        code, out = run_cli(
            capsys,
            ["spne", "--order", str(tmp_path / "order.json"),
             "--profile", str(tmp_path / "profile.json"), "--trace", "--states"],
        )
        assert code == 0
        lines = out.split("\n")
        assert [list(json.loads(line)) for line in lines[:12]] == [
            ["t", "agent", "category", "item"]
        ] * 12
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7f757bcb23424f6da8f80c972f78abc8d3fdd81b8f163a203cdbbae5687ce1e7"
        )

    def test_one_agent_deep_game(self, capsys, tmp_path):
        p = 1500
        order_path = tmp_path / "order.json"
        order_path.write_text(json.dumps(cd.order_to_json(cd.serial_dictatorship_order([1], p))))
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps({"n": 1, "p": p, "preferences": [[[1] * p]]}))
        code = main(["spne", "--order", str(order_path), "--profile", str(profile_path),
                     "--states"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        doc = json.loads(captured.out)
        assert doc["allocation"]["bundles"] == {"1": [1] * p}
        assert doc["ranks"] == {"1": 1}
        assert doc["state_space_size"] == p + 1

    def test_state_cap_exit_code(self, capsys, tmp_path, game_order_2x2, game_profile_2x2):
        order_path = tmp_path / "order.json"
        order_path.write_text(json.dumps(cd.order_to_json(game_order_2x2)))
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(cd.profile_to_json(game_profile_2x2)))
        code, _ = run_cli(
            capsys,
            ["spne", "--order", str(order_path), "--profile", str(profile_path),
             "--state-cap", "2"],
        )
        assert code == 2

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_state_cap_below_one_exit_code(self, tmp_path, game_order_2x2, game_profile_2x2, cap):
        order_path = tmp_path / "order.json"
        order_path.write_text(json.dumps(cd.order_to_json(game_order_2x2)))
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(cd.profile_to_json(game_profile_2x2)))
        code, out, err = run_quietly(
            ["spne", "--order", str(order_path), "--profile", str(profile_path),
             "--state-cap", cap]
        )
        assert code == 1
        assert_one_line_failure(code, out, err)
        assert err.startswith("error: state cap must be at least 1 state")


class TestCheckAxioms:
    def test_sd_exhaustive(self, capsys):
        code, out = run_cli(
            capsys, ["check-axioms", "--mechanism", "sd", "--n", "2", "--p", "2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mechanism"] == "sd[1, 2]"
        assert all(v["passed"] for v in doc["verdicts"])

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_exhaustive_budget_below_one_exit_code(self, budget):
        code, out, err = run_quietly(
            ["check-axioms", "--mechanism", "sd", "--n", "2", "--p", "2", "--budget", budget]
        )
        assert code == 1
        assert_one_line_failure(code, out, err)
        assert err.startswith("error: exhaustive mode needs a budget of at least 1 check")

    def test_bossy_sampled(self, capsys):
        code, out = run_cli(
            capsys,
            ["check-axioms", "--mechanism", "bossy-sd", "--n", "3", "--p", "2",
             "--mode", "sampled", "--count", "2000", "--seed", "0"],
        )
        assert code == 0
        doc = json.loads(out)
        by_axiom = {v["axiom"]: v["passed"] for v in doc["verdicts"]}
        assert by_axiom["non-bossiness"] is False

    def test_oversized_exhaustive_refused(self, capsys):
        # (2**14)! rankings: the budget guard must refuse without forming that count
        code = main(["check-axioms", "--mechanism", "sd", "--n", "2", "--p", "14"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("refused: ") and captured.err.count("\n") == 1
        assert "more than 10000000 checks" in captured.err


class TestExperiment:
    def test_csv_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "results.csv"
        code, _ = run_cli(
            capsys,
            ["experiment", "--p", "2", "--n", "2..3", "--phi", "0.5",
             "--samples", "10", "--seed", "1", "--out", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("mechanism,behavior,")
        assert len(lines) == 1 + 4 * 2

    def test_unwritable_out_is_bad_input(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "results.csv"
        code = main(
            ["experiment", "--n", "2", "--phi", "0.5", "--samples", "2", "--out", str(out_path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out_path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("samples", ["1000000000000000", "10000000000000000000"])
    def test_oversized_sample_count_refused(self, capsys, samples):
        # numpy refuses the rank table at either size without allocating it
        code = main(["experiment", "--n", "2", "--phi", "0.5", "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"refused: {samples} samples per cell are too many: ")
        assert captured.err.count("\n") == 1

    def test_mechanism_subset_to_stdout(self, capsys):
        code, out = run_cli(
            capsys,
            ["experiment", "--p", "2", "--n", "2", "--phi", "0.5,1.0",
             "--samples", "5", "--seed", "1", "--mechanisms", "sd:opt"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 1 * 2
        assert lines[1].split(",")[0] == "sd"

    @pytest.mark.parametrize("token", sorted(engine._BEHAVIORS))
    def test_every_behavior_token_accepted_by_both_flags(
        self, capsys, order_file, profile_file, token
    ):
        code, out = run_cli(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", ",".join([token] * 3)],
        )
        assert code == 0 and json.loads(out)["message_count"] == 21
        code, out = run_cli(capsys, EXPERIMENT + ["--mechanisms", f"sd:{token},balanced:{token}"])
        assert code == 0
        rows = [line.split(",")[:2] for line in out.strip().split("\n")[1:]]
        assert rows == [["sd", token], ["balanced", token]]

    @pytest.mark.parametrize("token", ["strat", "optimist", "PESS", "script", "sd"])
    def test_unknown_behavior_token_refused_by_both_flags(
        self, capsys, order_file, profile_file, token
    ):
        err = assert_rejected(
            capsys,
            ["run", "--order", order_file, "--profile", profile_file,
             "--behaviors", f"opt,{token},pess"],
        )
        assert err == f"error: unknown behavior {token!r} (use opt, pess, or script:FILE)\n"
        err = assert_rejected(capsys, EXPERIMENT + ["--mechanisms", f"sd:opt,sd:{token}"])
        assert err == f"error: unknown behavior {token!r}\n"

    @pytest.mark.parametrize("value", ["", "sd:opt,"])
    def test_empty_mechanism_refused(self, capsys, value):
        # an empty --mechanisms used to run the default grid
        err = assert_rejected(capsys, EXPERIMENT + ["--mechanisms", value])
        assert "unknown order family ''" in err

    def test_capacity_refused_before_any_draw(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("Mallows draw made before the capacity guard")

        monkeypatch.setattr("catdom.mallows.sample_mallows", fail)
        monkeypatch.setattr("catdom.mallows._draw", fail)
        code = main(["experiment", "--n", "3,1001", "--phi", "0.5", "--samples", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("refused: ") and captured.err.count("\n") == 1

    def test_oversized_range_refused_before_it_is_built(self, capsys):
        # the 3,000,000-entry range took 144 MB before the first shape check;
        # kept lazy, it is refused at n=1001 without being built
        tracemalloc.start()
        try:
            code = main(["experiment", "--n", "1..3000000", "--phi", "0.5", "--samples", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("refused: ") and captured.err.count("\n") == 1
        assert "1001" in captured.err
        assert peak < 5 * 2**20

    def test_bad_phi_exit_code(self, capsys):
        code, _ = run_cli(
            capsys,
            ["experiment", "--p", "2", "--n", "2", "--phi", "1.5", "--samples", "5",
             "--seed", "1"],
        )
        assert code == 1


# The indented writer, against json.dumps(indent=2) as the oracle.
class _Int(int):
    def __repr__(self):
        return "not used by json"


class _Float(float):
    def __repr__(self):
        return "not used by json"


_STRINGS = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x01\x08\x0c\x1f\x7f\x80\xe9 \ud800\uffff\U0001f600 az\n\t\r'),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers().map(_Int),
    st.floats(),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]),
    st.floats().map(_Float),
    _STRINGS,
)
_KEYS = st.one_of(_STRINGS, st.integers(), st.floats(), st.booleans(), st.none())
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
        st.dictionaries(_KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS)
def test_writer_matches_json_dumps(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS, st.sampled_from([object(), {1, 2}, b"x", 1j, (x for x in ())]), st.data())
def test_writer_refuses_what_json_refuses(doc, bad, data):
    # the unserializable value in place of a leaf, or as a dict key
    wrapped = data.draw(
        st.sampled_from([[doc, bad], {"a": doc, "b": bad}, {(1, 2): doc}, bad])
    )
    with pytest.raises(TypeError) as want:
        json.dumps(wrapped, indent=2)
    with pytest.raises(TypeError) as got:
        cli._dumps(wrapped)
    assert str(got.value) == str(want.value)


def test_writer_empty_and_nested_empty_containers():
    for doc in ([], (), {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()], {"": [[[]]]}):
        assert cli._dumps(doc) == json.dumps(doc, indent=2)


def spy_documents(monkeypatch):
    """The documents handed to the writer at top level, in order."""
    docs = []
    dumps = cli._dumps

    def spy(doc, *rest):
        if not rest:
            docs.append(doc)
        return dumps(doc, *rest)

    monkeypatch.setattr(cli, "_dumps", spy)
    return docs


class TestPrintedBytes:
    """Every subcommand's stdout, byte for byte as json.dumps(indent=2)
    prints the document, after any compact trace lines."""

    @pytest.fixture
    def inputs(self, tmp_path, order_file, profile_file, game_order_2x2, game_profile_2x2):
        game_order = tmp_path / "game-order.json"
        game_order.write_text(json.dumps(cd.order_to_json(game_order_2x2)))
        game_profile = tmp_path / "game-profile.json"
        game_profile.write_text(json.dumps(cd.profile_to_json(game_profile_2x2)))
        return {
            "ORDER": order_file,
            "PROFILE": profile_file,
            "GAME_ORDER": str(game_order),
            "GAME_PROFILE": str(game_profile),
        }

    ARGV = {
        "run": ["run", "--order", "ORDER", "--profile", "PROFILE",
                "--behaviors", "opt,opt,pess", "--trace"],
        "analyze-order": ["analyze-order", "--order", "ORDER"],
        "bounds": ["bounds", "--order", "ORDER", "--behaviors", "opt,pess,pess"],
        "search": ["search", "--n", "2", "--p", "3", "--behaviors", "opt,opt"],
        "search-random": ["search", "--n", "3", "--p", "2", "--behaviors", "opt,pess,opt",
                          "--mode", "random", "--budget", "50", "--seed", "4"],
        "worst-case": ["worst-case", "--order", "ORDER", "--behaviors", "opt,opt,pess"],
        "spne": ["spne", "--order", "GAME_ORDER", "--profile", "GAME_PROFILE",
                 "--trace", "--states"],
        "check-axioms": ["check-axioms", "--mechanism", "sd", "--n", "2", "--p", "2"],
        "check-axioms-counterexample": [
            "check-axioms", "--mechanism", "bossy-sd", "--n", "3", "--p", "2",
            "--mode", "sampled", "--count", "150", "--seed", "3",
        ],
    }

    @pytest.mark.parametrize("name", sorted(ARGV))
    def test_stdout(self, monkeypatch, inputs, name):
        docs = spy_documents(monkeypatch)
        code, out, err = run_quietly([inputs.get(arg, arg) for arg in self.ARGV[name]])
        assert (code, err) == (0, "")
        assert len(docs) == 1
        printed = json.dumps(docs[0], indent=2) + "\n"
        assert out.endswith(printed)
        for line in out[: -len(printed)].splitlines():
            assert line == json.dumps(json.loads(line))
        if name == "check-axioms-counterexample":
            assert any("counterexample" in v for v in docs[0]["verdicts"])

    def test_worst_case_out_file(self, monkeypatch, tmp_path, order_file):
        docs = spy_documents(monkeypatch)
        out_path = tmp_path / "witness.json"
        code, out, _ = run_quietly(
            ["worst-case", "--order", order_file, "--behaviors", "opt,opt,pess",
             "--out", str(out_path)]
        )
        assert code == 0
        profile_doc, doc = docs
        assert out_path.read_bytes() == json.dumps(profile_doc, indent=2).encode()
        assert profile_doc == doc["profile"]
        assert out == json.dumps(doc, indent=2) + "\n"
