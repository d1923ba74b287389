import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("op_digests", ROOT / "tools" / "op_digests.py")
op_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_digests)

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
