"""A test-time guard that every scalar stays exact.

Over Q a scalar is an int or a Fraction, and over F_p an FpElement; a
float (say from an int / int that bypassed Field.inv), a complex or a
bool is a fault.  install() wraps the places where scalars are stored:
Element.__init__, Element._from_terms, linalg.rref and Poly.__init__.
A wrapped call that meets such a scalar records the fault in HITS and
raises FloatScalarError; conftest fails any test that leaves a fault
recorded, also when the program caught the error on the way.
"""

from functools import wraps

from superkit import linalg
from superkit.algebra import Element
from superkit.symbolic import Poly

NOT_SCALARS = frozenset((float, complex, bool))
HITS = []


class FloatScalarError(AssertionError):
    pass


def check(values, where):
    """Raise FloatScalarError if any of values is a float, complex or bool."""
    bad = NOT_SCALARS.intersection(map(type, values))
    if bad:
        msg = "%s stored a %s scalar" % (where, "/".join(sorted(t.__name__ for t in bad)))
        HITS.append(msg)
        raise FloatScalarError(msg)


def install():
    init, from_terms = Element.__init__, Element._from_terms.__func__

    @wraps(init)
    def element_init(self, algebra, coords):
        init(self, algebra, coords)
        check(self.terms.values(), "Element.__init__")

    @wraps(from_terms)
    def element_from_terms(cls, algebra, terms):
        check(terms.values(), "Element._from_terms")
        return from_terms(cls, algebra, terms)

    Element.__init__ = element_init
    Element._from_terms = classmethod(element_from_terms)

    rref = linalg.rref

    @wraps(rref)
    def checked_rref(rows, field):
        red, pivots = rref(rows, field)
        for row in red:
            check(row, "linalg.rref")
        return red, pivots

    linalg.rref = checked_rref

    poly_init = Poly.__init__

    @wraps(poly_init)
    def checked_poly_init(self, field, terms=None):
        poly_init(self, field, terms)
        check(self.terms.values(), "Poly.__init__")

    Poly.__init__ = checked_poly_init
