import re
import shutil
from pathlib import Path

import op_digests

ROOT = Path(__file__).resolve().parents[1]

SHA1 = re.compile(r"^[0-9a-f]{40}$")


def test_galerkin_digests_are_independent_of_the_input_directory(capsys):
    # two runs write their inputs to two different temporary directories
    first = op_digests.digest_ops("galerkin", 3, ROOT)
    assert op_digests.main(["galerkin", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == first
    assert len(first) == 12
    for i, line in enumerate(first):
        index, rc, stdout, *rest = line.split("  ")
        assert (index, rc) == (str(i), "rc=0")
        assert SHA1.match(stdout.removeprefix("stdout="))
        assert "{tmp}" in rest[-1] and ":@/" not in line
    written = [line for line in first if "--matrix-output" in line]
    assert len(written) == 1 and SHA1.match(written[0].split("  ")[3].removeprefix("section.csv="))


def test_radial_closed_round_is_listed_in_order():
    lines = op_digests.digest_ops("radial-closed", 1, ROOT)
    assert len(lines) == 40
    assert [line.split("  ")[-1].split()[0] for line in lines[:3]] == ["counting"] * 3


def test_against_the_same_checkout_prints_nothing(capsys):
    assert op_digests.main(["radial-closed", "2", "--against", str(ROOT)]) == 0
    assert capsys.readouterr().out == ""


def test_against_another_checkout_prints_the_lines_that_differ(tmp_path, capsys):
    # a copy whose counting comment differs: the other checkout's line comes
    # first ("- "), then this one's ("+ "), for the counting ops only
    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, other / part, ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "src" / "harmotop" / "cli.py"
    text = cli.read_text()
    assert text.count("n_plus(lambda) = ") == 1
    cli.write_text(text.replace("n_plus(lambda) = ", "n_plus(lambda) := "))
    assert op_digests.main(["radial-closed", "1", "--against", str(other)]) == 1
    printed = capsys.readouterr().out.splitlines()
    ours = op_digests.digest_ops("radial-closed", 1, ROOT)
    counting = [line for line in ours if line.split("  ")[-1].startswith("counting ")]
    assert len(counting) == 24
    assert printed[1::2] == [f"+ {line}" for line in counting]
    assert [line[:2] for line in printed[::2]] == ["- "] * 24
    for theirs, mine in zip(printed[::2], printed[1::2]):
        index, rc, stdout, argv = theirs[2:].split("  ")
        assert [index, rc, argv] == [mine[2:].split("  ")[i] for i in (0, 1, 3)] and stdout != mine.split("  ")[2]
