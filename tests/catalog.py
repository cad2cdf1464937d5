"""Frozen Gauss codes for the example knots and family samples.

These codes were fixed by calibration: the generated arc-group
presentations, characteristic polynomials and coloring behavior are pinned
by the golden tests.  The on-disk ``corpus/`` directory mirrors this
catalog; ``test_catalog.py`` keeps the two in sync.
"""

from __future__ import annotations

from vka.diagram import TRIVIAL_LONG, concatenate, dn_family, parse_gauss

K1 = "O1+ U2+ U1+ O2+"
K2 = "U1+ U2+ O1+ O2+"
K3 = "U1+ O2+ O1+ U2+"
K4 = "U1- O2+ O1- U2+"
K5 = "O1+ U2- U1+ O2-"
TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
EMPTY = ""


def k1():
    return parse_gauss(K1)


def k2():
    return parse_gauss(K2)


def k3():
    return parse_gauss(K3)


def k4():
    return parse_gauss(K4)


def k5():
    return parse_gauss(K5)


def trefoil():
    return parse_gauss(TREFOIL)


def k4k5():
    return concatenate(k4(), k5())


def k5k4():
    return concatenate(k5(), k4())


def dn(n):
    return dn_family(TRIVIAL_LONG, n)


def corpus():
    """name -> Diagram for every shipped corpus entry."""
    return {
        "empty": TRIVIAL_LONG,
        "k1": k1(),
        "k2": k2(),
        "k3": k3(),
        "k4": k4(),
        "k5": k5(),
        "k4k5": k4k5(),
        "k5k4": k5k4(),
        "trefoil": trefoil(),
        "d1": dn(1),
        "d2": dn(2),
        "d3": dn(3),
    }

