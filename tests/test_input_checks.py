"""The library's own checks on the arguments it is handed: each bad argument raises, or compares unequal."""

import pytest

from vka.diagram import Diagram, parse_gauss
from vka.invariants import det_exact, determinant_long, elementary_minors
from vka.laurent import LaurentPoly, divexact
from vka.moves import random_walk

K1 = parse_gauss("O1- U2- O2- U1-")
P = LaurentPoly.const(2)


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: elementary_minors([], [], -1), ValueError, id="elementary_minors-negative-k"),
    pytest.param(lambda: determinant_long(parse_gauss("closed\nO1- U2- O2- U1-")), ValueError,
                 id="determinant_long-closed"),
    pytest.param(lambda: det_exact([]), 1, id="det_exact-empty-is-1"),
    pytest.param(lambda: random_walk(K1, 0, -1), ValueError, id="random_walk-negative-steps"),
    pytest.param(lambda: P.inverse(), ZeroDivisionError, id="inverse-of-a-non-unit"),
    pytest.param(lambda: divexact(3, P), TypeError, id="divexact-int-dividend"),
    pytest.param(lambda: P + "x", TypeError, id="poly-plus-str"),
    pytest.param(lambda: P - "x", TypeError, id="poly-minus-str"),
    pytest.param(lambda: P * "x", TypeError, id="poly-times-str"),
    pytest.param(lambda: P == "x", False, id="poly-equals-str"),
    pytest.param(lambda: Diagram(K1.kind, K1.passages) == "x", False, id="diagram-equals-str"),
])
def test_input_checks(call, expected):
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            call()
    else:
        value = call()
        assert type(value) is type(expected) and value == expected
