import numpy as np
import pytest

from harmotop.symbols import (
    GeneralSymbol,
    Power,
    Sampled,
    Step,
    SymbolSum,
    from_radial,
)


def test_step_validation():
    with pytest.raises(ValueError):
        Step(1.0, 0.0)
    with pytest.raises(ValueError):
        Step(1.0, 1.0)


def test_power_validation():
    with pytest.raises(ValueError):
        Power(-1.0, 1.0)
    with pytest.raises(ValueError):
        Power(1.0, 0.0)


def test_sampled_validation():
    with pytest.raises(ValueError):
        Sampled([0.0], [1.0])
    with pytest.raises(ValueError):
        Sampled([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        Sampled([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        SymbolSum([])


def test_radial_values():
    r = np.array([0.0, 0.3, 0.5, 0.7])
    assert Step(2.0, 0.5).values(r) == pytest.approx([2.0, 2.0, 2.0, 0.0])
    assert Power(1.0, 2.0).values(r) == pytest.approx((1.0 - r) ** 2)
    prof = Sampled([0.2, 0.6], [1.0, 0.0])
    # constant continuation on both sides of the sample range
    assert prof.values(np.array([0.0, 0.2, 0.4, 0.6, 0.9])) == pytest.approx(
        [1.0, 1.0, 0.5, 0.0, 0.0]
    )
    both = SymbolSum([Step(1.0, 0.5), Power(1.0, 1.0)])
    assert both.values(r) == pytest.approx([2.0, 1.7, 1.5, 0.3])


def test_breakpoints_and_boundary_data():
    assert Step(1.0, 0.5).breakpoints() == (0.5,)
    assert Power(1.0, 1.0).breakpoints() == ()
    assert Sampled([0.0, 0.3, 0.9], [1.0, 2.0, 0.5]).breakpoints() == (0.3, 0.9)
    s = SymbolSum([Step(1.0, 0.5), Sampled([0.0, 0.5, 0.7], [1.0, 1.0, 0.0])])
    assert s.breakpoints() == (0.5, 0.7)
    assert Step(1.0, 0.5).boundary_value() == 0.0
    assert Sampled([0.0, 0.9], [1.0, 0.3]).boundary_value() == 0.3
    assert s.sup() == 2.0


def test_general_symbol_boundary_meta():
    g = from_radial(Power(2.0, 1.5))
    assert g.boundary_gamma == 1.5
    assert g.check_boundary_meta(2)
    pts = np.array([[0.1, 0.2], [0.0, 0.0]])
    assert g(pts) == pytest.approx(2.0 * (1.0 - np.linalg.norm(pts, axis=1)) ** 1.5)
    plain = GeneralSymbol(lambda p: np.ones(p.shape[0]))
    with pytest.raises(ValueError):
        plain.check_boundary_meta(2)
