"""Reference operations on CycloElt values that the package itself never needs.

The pairing <chi, psi> sums chi * conj(psi) over the classes; ``reps.gram``
applies the conjugation inline to each term, and the properties check it
against this independent form.
"""

from dihedral_mckay.exactnum import CycloElt


def conjugate(a):
    """Ring involution t -> t^(n-1), i.e. complex conjugation on values."""
    n = a.order
    return CycloElt(n, {-k % n: c for k, c in a.terms.items()})
