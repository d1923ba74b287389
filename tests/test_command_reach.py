import command_reach

# The package functions that no command reaches, each group with the reason
# it stays.  A new function that no command reaches fails the test below
# until it is listed here with a reason (or a command reaches it).
UNREACHED = {
    # perfbench/run.py traces these names; they go with ROADMAP item 7
    "held by the benchmark": [
        "numerics.gauss_jacobi01",
        "radial_toeplitz.radial_eigenvalue",
        "radial_toeplitz.log_radial_eigenvalue",
        "grids.harmonic_node_matrix",
    ],
    # NotImplementedError stubs of the protocol; each symbol type overrides them
    "RadialSymbol protocol stubs": [
        "symbols.RadialSymbol.values",
        "symbols.RadialSymbol.sup",
        "symbols.RadialSymbol.breakpoints",
        "symbols.RadialSymbol.log_mu",
        "symbols.RadialSymbol.mu",
        "symbols.RadialSymbol.tails",
    ],
    # a radial profile on the tensor grid (and the node radii it reads):
    # library Galerkin cross-checks of radial symbols call them, commands
    # take the closed forms in mu_k
    "radial values and breakpoints": [
        "grids.BallGrid.radii",
        "symbols.Step.values",
        "symbols.Step.breakpoints",
        "symbols.Power.values",
        "symbols.Sampled.values",
        "symbols.Sampled.breakpoints",
        "symbols.SymbolSum.values",
        "symbols.SymbolSum.breakpoints",
    ],
    # refusals that no traced case triggers; tests do
    "refusal paths": ["cli.SymbolSyntaxError.__init__"],
    # the default grid of a degree, for library callers and tests; a command
    # runs on a general:@ file's own grid
    "TruncationSpec.for_degree": ["grids.TruncationSpec.for_degree"],
}


def test_lists_the_functions_only_tests_reach(capsys):
    assert command_reach.main() == 0  # one traced pass
    out = capsys.readouterr().out.splitlines()
    head = "lines no command reaches, in the functions that are reached ("
    split = next(i for i, line in enumerate(out) if line.startswith(head))
    unreached = [line.strip() for line in out[1:split]]
    partial = [line.strip() for line in out[split + 1 :]]
    assert out[0] == f"functions no command reaches ({len(unreached)}):"
    assert out[split] == f"{head}{len(partial)}):"
    listed = [name for group in UNREACHED.values() for name in group]
    assert len(set(listed)) == len(listed)
    assert sorted(unreached) == sorted(listed)
    assert "radial_toeplitz.counting" not in unreached  # every counting command calls it
    assert all(": lines " in line for line in partial)
    assert not any(line.startswith(f"{name}: ") for name in unreached for line in partial)
