import json
import shlex
from pathlib import Path

import pytest

from qcab import braid
from qcab.cli import main

from test_qgroth import plant

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_seed_and_mutate_round_trip(tmp_path, capsys):
    seed_path = tmp_path / "seed.json"
    code, _ = run(capsys, "seed", "--type", "B2", "--seq", "alt", "--window", "6", "--out", str(seed_path))
    assert code == 0
    doc = json.loads(seed_path.read_text())
    assert doc["window"] == 6 and doc["frozen"] == [5, 6]

    out_path = tmp_path / "mut.json"
    code, _ = run(capsys, "mutate", str(seed_path), "--at", "3", "--at", "3", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text()) == doc  # involution restores the file


def test_seed_deterministic(capsys):
    code1, out1 = run(capsys, "seed", "--type", "G2", "--seq", "alt", "--window", "8")
    code2, out2 = run(capsys, "seed", "--type", "G2", "--seq", "alt", "--window", "8")
    assert code1 == code2 == 0 and out1 == out2


def test_verify_move(capsys):
    code, out = run(capsys, "verify-move", "--type", "G2", "--seq", "alt", "--k", "1", "--window", "14")
    assert code == 0 and "six-move" in out and "ok" in out


def test_g_map_fixture(capsys):
    code, out = run(
        capsys, "g-map", "--move", "6", "--k", "1", "--type", "G2",
        "--seq", "2,1,2,1,2,1,2,1,2,1,2,1", "--g", "2:1",
    )
    assert code == 0
    assert out.strip() == "1:1,4:-1,6:1"


@pytest.mark.parametrize("g", ["0:1", "99:1", "2:1,-3:1"])
def test_g_map_rejects_positions_outside_the_sequence(capsys, g):
    argv = ["g-map", "--move", "6", "--k", "1", "--type", "G2", "--seq", "2,1,2,1,2,1,2,1,2,1,2,1", "--g", g]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: degree position")


def test_g_map_refuses_a_move_of_another_kind(capsys):
    """B2's letters 1,2,1,2 make a four-move, so asking for a six-move there is a usage error."""
    assert main(["g-map", "--move", "6", "--k", "1", "--type", "B2", "--seq", "1,2,1,2", "--g", "1:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: position 1 carries a four-move, not a 6-move\n"


def test_c_map_fixture(capsys):
    code, out = run(
        capsys, "c-map", "--move", "6", "--k", "1", "--type", "G2",
        "--seq", "2,1,2,1,2,1", "--c", "0,0,1,0,0,0",
    )
    assert code == 0
    assert out.strip() == "3,0,0,0,0,2"


def test_npair(capsys):
    code, out = run(capsys, "npair", "--type", "B2", "--i", "2", "--p", "1", "--j", "1", "--s", "0")
    assert code == 0
    assert out.strip().lstrip("-").isdigit()


def test_check_fq(capsys):
    code, out = run(
        capsys, "check-fq", str(FIXTURES / "b4_fundamental_x10.txt"),
        "--type", "B4", "--i", "1", "--p", "0", "--s", "0",
    )
    assert code == 0 and "FAIL" not in out


def test_check_fq_truncated_fixture_fails_only_bar_invariance(capsys):
    """Criterion 11: the B3 truncated fixture's printed q-powers are not
    bar-invariant, and every check it is held to passes."""
    code, out = run(
        capsys, "check-fq", str(FIXTURES / "b3_truncated_simple.txt"), "--type", "B3",
        "--xi", "1:0,2:-1,3:0", "--dominant", "2,-5:1;1,0:1",
    )
    assert code == 1
    assert [line for line in out.splitlines() if not line.endswith(": ok")] == ["bar_invariant: FAIL"]


def test_substitute_b2_cli(capsys):
    code, out = run(capsys, "substitute-b2", "--m", "1")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 22 and lines == sorted(lines)
    assert all(line.endswith(": ok") for line in lines)
    assert main(["substitute-b2", "--m", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("code", ["A2", "B2", "G2"])
def test_maps_read_alt_as_the_alternating_word(capsys, code):
    """--seq alt reads as the alternating word for g-map (here 4 l letters) and c-map (l letters)."""
    ell = {"A2": 3, "B2": 4, "G2": 6}[code]
    common = ["--move", str(ell), "--k", "1", "--type", code]
    g = ["--g", "1:1,2:-1,3:2"]
    c = ["--c", ",".join(str(t % 3) for t in range(ell))]
    for argv, n in ((["g-map", *common, *g], 4 * ell), (["c-map", *common, *c], ell)):
        alt = run(capsys, *argv, "--seq", "alt")
        assert alt[0] == 0 and alt == run(capsys, *argv, "--seq", ",".join(str(1 + t % 2) for t in range(n)))


def test_g_map_shift_on_alt(capsys):
    assert run(capsys, "g-map", "--move", "shift", "--type", "B2", "--seq", "alt", "--g", "1:1") == (0, "2:1\n")


@pytest.mark.parametrize(
    "move",
    [
        ["--move", "4", "--k", "1", "--g", "17:1"],
        ["--move", "4", "--k", "15", "--g", "1:1,16:3,18:-1"],
        ["--move", "shift", "--g", "2:1,30:2"],
    ],
)
def test_g_map_reads_every_position_of_alt(capsys, move):
    """g-map on alt takes degree positions and move blocks past 4 l letters,
    and prints what it prints on an explicit unfolding of the word."""
    argv = ["g-map", "--type", "B2", *move]
    alt = run(capsys, *argv, "--seq", "alt")
    assert alt[0] == 0 and alt == run(capsys, *argv, "--seq", ",".join(str(1 + t % 2) for t in range(40)))


def test_g_map_far_out_on_alt(capsys):
    """g-map on alt reads a degree position of 10^8 without unfolding the word."""
    argv = ["g-map", "--type", "B2", "--seq", "alt", "--move", "4", "--k", "1", "--g", "100000000:1"]
    assert run(capsys, *argv) == (0, "100000000:1\n")


def test_c_map_past_the_word_is_a_usage_error(capsys):
    """A three-move at 3 on alt of A2 runs past its 3 letters: exit 2, one error line."""
    assert main(["c-map", "--type", "A2", "--seq", "alt", "--move", "3", "--k", "3", "--c", "1,0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: a three-move at 3 runs past")
    assert len(captured.err.splitlines()) == 1


def test_check_kappa(capsys):
    code, out = run(capsys, "check-kappa", "--type", "B2", "--window", "8", "--xi", "1:0,2:1")
    assert code == 0 and "ok" in out


def test_check_kappa_prints_the_witness(capsys, monkeypatch):
    plant(monkeypatch, "lam", 2, 3)
    code, out = run(capsys, "check-kappa", "--type", "B2", "--window", "8", "--xi", "1:0,2:1")
    assert code == 1 and out == "kappa comparison: MISMATCH at lam[2,3]: got 1, want 0\n"
    monkeypatch.undo()
    plant(monkeypatch, "b", 5, 3)
    code, out = run(capsys, "check-kappa", "--type", "B2", "--window", "8", "--xi", "1:0,2:1")
    assert code == 1 and out == "kappa comparison: MISMATCH at image[3,(2, -3)]: got 0, want -1\n"


def test_check_kappa_rejects_partial_height_function(capsys):
    assert main(["check-kappa", "--type", "B3", "--window", "4", "--xi", "1:0"]) == 2
    assert capsys.readouterr().err.startswith("error: height function misses node 2")


def test_check_kappa_rejects_a_node_outside_the_diagram(capsys):
    assert main(["check-kappa", "--type", "B2", "--window", "4", "--xi", "1:0,2:1,3:0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: height function names node 3 outside 1..2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["seed", "--type", "B2", "--window", "4"],
        ["verify-move", "--type", "B2", "--k", "1", "--window", "4"],
        ["g-map", "--type", "B2", "--move", "4", "--g", "1:1"],
        ["c-map", "--type", "B2", "--move", "4", "--c", "0,1,0,0"],
    ],
    ids=lambda argv: argv[0],
)
def test_empty_seq_is_a_usage_error(capsys, argv):
    """An empty --seq is refused before a word is built, naming the flag."""
    assert main([*argv, "--seq="]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == 'error: --seq is empty; expected "alt" or letters n,n,...\n'


@pytest.mark.parametrize("code", ["Bx", "B2.5"])
def test_bad_type_code_is_a_usage_error(capsys, code):
    assert main(["seed", "--type", code, "--seq", "alt", "--window", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: bad type code {code!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-kappa", "--type", "B2", "--window", "4"],
        ["check-fq", str(FIXTURES / "b3_truncated_simple.txt"), "--type", "B3", "--dominant", "2,-5:1;1,0:1"],
    ],
    ids=lambda argv: argv[0],
)
def test_empty_xi_is_an_empty_height_function(capsys, argv):
    """An empty --xi has no entries, as every empty list argument: it is read, not replaced by a default."""
    assert main([*argv, "--xi="]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: height function misses node 1\n"


GRAMMARS = {"--seq": "n", "--c": "n", "--g": "u:val", "--xi": "i:h", "--dominant": "i,p:e"}
B2_G_MAP = ["g-map", "--type", "B2", "--seq", "alt", "--move", "4"]
B2_KAPPA = ["check-kappa", "--type", "B2", "--window", "4"]
B3_FQ = ["check-fq", str(FIXTURES / "b3_truncated_simple.txt"), "--type", "B3", "--xi", "1:0,2:-1,3:0"]


@pytest.mark.parametrize(
    "argv, chunk",
    [
        (["g-map", "--type", "B2", "--seq", "alt", "--move", "4", "--g", ","], "--g entry ''"),
        (["g-map", "--type", "B2", "--seq", "alt", "--move", "shift", "--g", "1:1,2"], "--g entry '2'"),
        (["g-map", "--type", "B2", "--seq", "alt", "--move", "4", "--g", "1:x"], "--g entry '1:x'"),
        ([*B2_G_MAP, "--g", "1:1:2"], "--g entry '1:1:2'"),
        (["seed", "--type", "B2", "--seq", "1,x", "--window", "2"], "--seq entry 'x'"),
        (["c-map", "--type", "B2", "--seq", "alt", "--move", "4", "--c", "1,2,x,4"], "--c entry 'x'"),
        ([*B2_KAPPA, "--xi", "1:0,2"], "--xi entry '2'"),
        ([*B2_KAPPA, "--xi", "1:0,2:x"], "--xi entry '2:x'"),
        ([*B3_FQ, "--dominant", "2,-5:1;1,0"], "--dominant entry '1,0'"),
        ([*B2_G_MAP, "--g", "1:1,1:5"], "--g entry '1:5' repeats key 1"),
        ([*B2_KAPPA, "--xi", "1:0,2:1,1:2"], "--xi entry '1:2' repeats key 1"),
        ([*B3_FQ, "--dominant", "2,-5:1;2,-5:2"], "--dominant entry '2,-5:2' repeats key 2,-5"),
    ],
)
def test_malformed_g_entry_is_named(capsys, argv, chunk):
    """Every list argument names its bad entry: a malformed one with its grammar, a repeated key as such."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    want = chunk if "repeats" in chunk else f"malformed {chunk}; expected {GRAMMARS[chunk.split()[0]]}"
    assert captured.out == "" and captured.err == f"error: {want}\n"


@pytest.mark.parametrize(
    "message, line",
    [("Unable to allocate 3.0 GiB", "Unable to allocate 3.0 GiB"), ("", "MemoryError")],
    ids=["numpy", "bare"],
)
def test_memory_error_is_a_usage_error(capsys, monkeypatch, message, line):
    """Running out of memory exits 2 with one error line: exit 1 means a failed check."""

    def build_seed(seq, s):
        raise MemoryError(message)

    monkeypatch.setattr(braid, "build_seed", build_seed)
    assert main(["seed", "--type", "B2", "--seq", "alt", "--window", "20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {line}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["seed", "--type", "B2", "--seq", "alt", "--window", "0"],
        ["check-kappa", "--type", "B2", "--window", "0"],
        ["check-kappa", "--type", "B2", "--window", "-2"],
    ],
)
def test_window_below_one_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: window") and "below 1" in captured.err


def test_usage_error_exit_code(capsys):
    assert main(["npair", "--type", "B2", "--i", "1", "--p", "1", "--j", "1", "--s", "0"]) == 2


@pytest.mark.parametrize(
    "ij, named",
    [
        (("9", "0", "1", "0"), "node 9"),  # a node past the rank
        (("1", "1", "1", "0"), "level 1"),  # a level of the wrong parity
        (("1", "0", "0", "1"), "node 0"),
        (("1", "0", "2", "0"), "level 0"),
    ],
)
def test_npair_rejects_bad_generators(capsys, ij, named):
    i, p, j, s = ij
    assert main(["npair", "--type", "B2", "--i", i, "--p", p, "--j", j, "--s", s]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_bad_fixture_fails(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    text = (FIXTURES / "b4_fundamental_x10.txt").read_text().replace("(q^-1 + q)", "(q^-1 - q)", 1)
    bad.write_text(text)
    code, out = run(capsys, "check-fq", str(bad), "--type", "B4", "--i", "1", "--p", "0", "--s", "0")
    assert code == 1 and "FAIL" in out


# a compatible 2x2 pair: position 1 exchangeable, b_21 = -2, Lambda_21 = -1
GOOD_SEED = {"window": 2, "lambda": [[0, 1], [-1, 0]], "b": [[2, 1, -2]], "frozen": [2], "diag": [1, 1]}


@pytest.mark.parametrize(
    "change",
    [
        {"window": None},
        {"lambda": None},
        {"b": [[0, 1, -2]]},  # row 0 would wrap to the last row
        {"b": [[3, 1, -2]]},  # row past the window
        {"b": [[2, 1, -1]]},  # incompatible with Lambda
        {"lambda": [[0, 0], [0, 0]], "b": [[1, 2, 1]], "frozen": []},  # incompatible
        {"b": [["2", 1, -2]]},  # a string index
        {"b": [[2.0, 1, -2]]},  # a float index
        {"b": [[2, 1, -2.5]]},  # a value that would be truncated
        {"b": [[2, 1]]},  # not a triplet
        {"b": [2]},
        {"window": "2"},
        {"window": True},
        {"lambda": [[0, 1.5], [-1.5, 0]]},  # would be truncated to a compatible Lambda
        {"diag": [1.9, 1]},
        {"lambda": 7},
        {"lambda": [[0, 2**70], [-(2**70), 0]]},  # past int64
        {"sequence": 5},
        {"sequence": [1, "2"]},
        {"type": 5},
        {"window": -1},
        {"window": 3},  # more positions than Lambda rows
        {"lambda": [[0, 1], [-1]]},  # ragged
        {"lambda": [[0, 1, 0], [-1, 0, 0]]},  # not square
        {"frozen": [99]},
        {"frozen": [0, 2]},
        {"b": [], "diag": [0, 1]},  # compatible, since 2 d_1 = 0
        {"b": [[2, 1, 2]], "diag": [-1, 1]},  # compatible, since 2 d_1 = b_21 Lambda_21 = -2
        {"diag": [1, 0]},  # a frozen position's entry
        {"diag": [2**62, 1]},  # 2 d_1 past int64
        # B^T Lambda is 2**64 + 2 at (1, 1), which wraps to a compatible 2 in int64
        {"lambda": [[0, -3074457345618258603], [3074457345618258603, 0]], "b": [[2, 1, 6]]},
    ],
)
def test_mutate_rejects_bad_seed_file(tmp_path, capsys, change):
    path = tmp_path / "seed.json"
    doc = {k: v for k, v in {**GOOD_SEED, **change}.items() if v is not None}
    path.write_text(json.dumps(doc))
    assert main(["mutate", str(path), "--at", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    path.write_text(json.dumps(GOOD_SEED))
    assert main(["mutate", str(path), "--at", "1"]) == 0


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"window": 2,', "not valid JSON"),
        (json.dumps({**GOOD_SEED, "sequence": 5}), "sequence 5 is not a list"),
        (json.dumps({**GOOD_SEED, "window": -1}), "lambda is not a -1 x -1 matrix"),
        (json.dumps({**GOOD_SEED, "lambda": [[0, 1], [-1]]}), "lambda is not a 2 x 2 matrix"),
        (json.dumps({**GOOD_SEED, "lambda": []}), "lambda is not a 2 x 2 matrix"),  # before B is allocated
        (json.dumps({**GOOD_SEED, "frozen": [99]}), "frozen positions [99] outside the window 1..2"),
        (json.dumps({**GOOD_SEED, "b": [], "diag": [0, 1]}), "diag entry 0 at position 1 is below 1"),
    ],
    ids=["json", "sequence", "window", "ragged", "no-rows", "frozen", "diag"],
)
def test_mutate_names_the_bad_seed_file_part(tmp_path, capsys, text, named):
    path = tmp_path / "seed.json"
    path.write_text(text)
    assert main(["mutate", str(path), "--at", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "args, named",
    [
        (["--xi", "1:0,2:-1,3:0"], "--dominant"),
        (["--i", "1", "--p", "0"], "--s"),
        (["--p", "0", "--s", "0"], "--i"),
        (["--xi", "1:0,2:-1,3:0", "--dominant", "2,-5"], "--dominant"),
        (["--xi", "1:0,2:-1,3:0", "--dominant", "2:1;1,0:1"], "--dominant"),
        (["--xi", "1:0", "--dominant", "2,-5:1;1,0:1"], "misses node 2"),
        (["--xi", "1:0,2:0,3:0", "--dominant", "2,-5:1;1,0:1"], "parity mismatch at node 2"),
        (["--xi", "1:0,2:-1,3:0", "--dominant", "9,-5:1"], "node 9 outside 1..3"),
    ],
)
def test_check_fq_usage_errors(capsys, args, named):
    fixture = str(FIXTURES / "b3_truncated_simple.txt")
    assert main(["check-fq", fixture, "--type", "B3", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and err.count("\n") == 1


B4_FQ = ["--type", "B4", "--i", "1", "--p", "0", "--s", "0"]


B3_DOM = ["--dominant", "2,-5:1;1,0:1"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["check-fq", str(FIXTURES / "b4_fundamental_x10.txt"), *B4_FQ, "--dominant", "1,0:1"],
         "--dominant needs --xi"),
        (["check-fq", str(FIXTURES / "b3_truncated_simple.txt"), "--type", "B3", *B3_DOM], "--dominant needs --xi"),
        ([*B3_FQ, *B3_DOM, "--i", "1", "--p", "0", "--s", "99"], "--i, --p, --s cannot go with --xi"),
        ([*B3_FQ, *B3_DOM, "--s", "99"], "--s cannot go with --xi"),
    ],
    ids=["fundamental-dominant", "dominant-alone", "truncated-ips", "truncated-s"],
)
def test_check_fq_refuses_a_mix_of_its_modes(capsys, argv, named):
    """--dominant belongs to the truncated mode and --i/--p/--s to the fundamental one: a mix is a usage error."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: check-fq: {named}\n"


@pytest.mark.parametrize(
    "extra, args, named",
    [
        (" + (1) X[9,0]", B4_FQ, "node 9 outside 1..4"),
        (" + (1) X[0,0]", B4_FQ, "node 0 outside"),  # d(0) would wrap to the last node
        (" + (1) X[-1,0]", B4_FQ, "node -1 outside"),
        (" + (1) X[1,1]", B4_FQ, "parity of node 1"),
        (" + (1)) X[1,0]", B4_FQ, "') X[1,0]': expected X[n,n]"),
        (" + (1) Q[1,0]", B4_FQ, "'Q[1,0]': expected X[n,n]"),
        (" + (1) X[1]", B4_FQ, "'X[1]': expected X[n,n]"),
        (" + (q^x) X[1,0]", B4_FQ, "bad integer 'x'"),
        ("", ["--type", "B4", "--i", "9", "--p", "0", "--s", "0"], "node 9 outside 1..4"),
    ],
    ids=["node9", "node0", "node-1", "parity", "paren", "label", "arity", "coeff", "flag-i9"],
)
def test_check_fq_rejects_bad_fixture_text(tmp_path, capsys, extra, args, named):
    path = tmp_path / "fixture.txt"
    path.write_text((FIXTURES / "b4_fundamental_x10.txt").read_text().strip() + extra)
    assert main(["check-fq", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("hat", ["X[2,0]", "X[4,-2]^2"])
def test_check_fq_names_a_wrong_parity_hat_once(tmp_path, capsys, hat):
    """A hat off its node's parity stops check-fq at the element boundary: exit 2, one error line, no output."""
    path = tmp_path / "fixture.txt"
    path.write_text((FIXTURES / "b4_fundamental_x10.txt").read_text().strip() + f" + (q) X[1,0]*{hat}")
    assert main(["check-fq", str(path), *B4_FQ]) == 2
    captured = capsys.readouterr()
    node, level = hat[2:].split("]")[0].split(",")
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: level {level} does not match the parity of node {node}"]


def readme_cli_lines():
    """The commands of the README's CLI shell block, comments dropped."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_exit_0(tmp_path, capsys, monkeypatch):
    """Every line of the README's CLI block exits 0; the seed file it mutates is the seed line's output."""
    monkeypatch.chdir(ROOT)  # the examples name fixtures relative to the checkout
    seed = tmp_path / "seed.json"
    lines = readme_cli_lines()
    assert [argv[:2] for argv in lines[:2]] == [["qcab", "seed"], ["qcab", "mutate"]]
    for argv in lines:
        assert argv[0] == "qcab"
        args = [str(seed) if a == "seed.json" else a for a in argv[1:]]
        assert main(args) == 0, argv
        if args[0] == "seed":
            seed.write_text(capsys.readouterr().out, encoding="utf-8")
