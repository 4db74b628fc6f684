"""Command line interface: outputs, exit codes, file exports."""

import json

import pytest

from grigorchuk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "abcd")
    assert code == 0
    assert out.strip() == "a"
    code, out, _ = run(capsys, "reduce", "bcd")
    assert code == 0
    assert out.strip() == "1"    # identity prints as 1


def test_wp_yes_no(capsys):
    assert run(capsys, "wp", "adadadad") == (0, "YES\n", "")
    assert run(capsys, "wp", "ab")[1] == "NO\n"
    assert run(capsys, "wp", "ab")[0] == 0


def test_wp_tree_export(capsys, tmp_path):
    tree_path = tmp_path / "t.json"
    dot_path = tmp_path / "t.dot"
    code, out, _ = run(capsys, "wp", "abab",
                       "--tree", str(tree_path), "--dot", str(dot_path))
    assert code == 0
    data = json.loads(tree_path.read_text())
    assert set(data) == {"word", "mark", "children"}
    dot = dot_path.read_text()
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


def test_split(capsys):
    assert run(capsys, "split", "abab")[1] == "ca ac\n"
    code, out, _ = run(capsys, "split", "ab")
    assert out == "shifted: c a\n"
    code, out, _ = run(capsys, "split", "d")
    assert out == "1 b\n"        # empty section prints as 1


def test_norm(capsys):
    code, out, _ = run(capsys, "norm", "ab")
    assert code == 0
    assert out.strip() == "3.755896"
    code, out, _ = run(capsys, "norm", "--exact", "b")
    assert out.strip() == "2 + 0α + 0α²"


def test_coset(capsys):
    assert run(capsys, "coset", "abab")[1] == "0 even\n"
    code, out, _ = run(capsys, "coset", "a")
    assert out.split() == ["1", "odd"]


def test_coset_lift_csv(capsys, tmp_path):
    path = tmp_path / "lift.csv"
    code, out, _ = run(capsys, "coset", "--lift-csv", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,lifted"
    assert len(lines) == 33


def test_coset_without_word_or_csv_fails(capsys):
    code, _, err = run(capsys, "coset")
    assert code == 1


def test_conj(capsys):
    code, out, _ = run(capsys, "conj", "ab", "ba")
    assert code == 0
    assert out == "YES, Q = {1, 2}\n"
    code, out, _ = run(capsys, "conj", "b", "c")
    assert code == 0
    assert out == "NO, Q = {}\n"


def test_conj_tree_export(capsys, tmp_path):
    tree_path = tmp_path / "c.json"
    dot_path = tmp_path / "c.dot"
    code, out, _ = run(capsys, "conj", "abab", "baba",
                       "--tree", str(tree_path), "--dot", str(dot_path))
    assert code == 0
    data = json.loads(tree_path.read_text())
    assert set(data) == {"u", "v", "kind", "q", "children"}
    assert dot_path.read_text().startswith("digraph")


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 15
    assert all("ok" in l for l in lines if not l.startswith("all"))


def test_bench_small(capsys, tmp_path):
    path = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", "--max-len", "64",
                       "--samples", "2", "--seed", "1", "--csv", str(path))
    assert code == 0
    assert "exponent" in out
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,tree_size,visited,millis"
    assert len(lines) > 4


@pytest.mark.parametrize("argv", [
    ("--samples", "0"), ("--max-len", "0"), ("--max-len", "-5"),
    ("--max-len", "8"), ("--max-len", "16")])
def test_bench_rejects_degenerate_arguments(capsys, argv):
    # no samples or fewer than two lengths leave no slope to fit
    with pytest.raises(SystemExit) as exc:
        main(["bench", *argv])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert f"argument {argv[0]}: must be greater than" in err


@pytest.mark.parametrize("argv", [
    ("wp", "ab", "--tree"), ("coset", "--lift-csv")])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.txt"
    code, _, err = run(capsys, *argv, str(path))
    assert code == 1
    assert err.startswith("grig: ") and str(path) in err
    assert not path.parent.exists()


def test_bad_letter_exit_code(capsys):
    code, _, err = run(capsys, "wp", "ax")
    assert code == 2
    assert "invalid letter" in err


def test_odd_split_exit_code(capsys):
    code, _, err = run(capsys, "split", "abx")
    assert code == 2


def test_unknown_verb_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    capsys.readouterr()
    assert exc.value.code == 1
