import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("command_reach", ROOT / "tools" / "command_reach.py")
command_reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(command_reach)


def test_lists_the_functions_only_tests_reach(capsys):
    assert command_reach.main() == 0  # one traced pass
    out = capsys.readouterr().out.splitlines()
    head = "lines no command reaches, in the functions that are reached ("
    split = next(i for i, line in enumerate(out) if line.startswith(head))
    unreached = [line.strip() for line in out[1:split]]
    partial = [line.strip() for line in out[split + 1 :]]
    assert out[0] == f"functions no command reaches ({len(unreached)}):"
    assert out[split] == f"{head}{len(partial)}):"
    # the dense node matrix is the reference of a test; every counting command calls counting
    assert "grids.harmonic_node_matrix" in unreached
    assert "radial_toeplitz.counting" not in unreached
    assert all(": lines " in line for line in partial)
    assert not any(line.startswith(f"{name}: ") for name in unreached for line in partial)
