"""Shared fixture values used across the test modules.

Names follow the worked examples the suite reproduces: S1 is the
pseudo-symmetric semigroup {0,3,5->} whose even-type doubles are D1, D2, D3;
S2/F2/T2 is the counterexample triple showing the necessary odd-type
conditions are not sufficient; T1 is the semigroup that admits no
decomposition with a proper ideal.
"""

from sgdouble import NumericalSemigroup, naturals_ideal, relative_ideal
from sgdouble.semigroup import _almost_symmetric_by_pairing, _almost_symmetric_by_reflection

S1 = NumericalSemigroup.from_generators([3, 5, 7])                 # {0, 3, 5->}
S2 = NumericalSemigroup.from_small_elements([0, 4, 5, 6], 8)       # symmetric
T1 = NumericalSemigroup.from_generators([9, 10, 14, 15])           # f = 31
ST1 = NumericalSemigroup.from_small_elements([0, 5, 7, 9, 10, 12], 14)  # T1 / 2
T2 = NumericalSemigroup.from_small_elements([0, 8, 9, 10, 11, 12, 13], 16)

D1 = NumericalSemigroup.from_small_elements([0, 3, 6, 7], 9)
D2 = NumericalSemigroup.from_small_elements([0, 5, 6, 7], 9)
D3 = NumericalSemigroup.from_small_elements([0, 6, 7], 9)

E1 = naturals_ideal(S1)                 # the naturals over S1
E2 = relative_ideal(S1, [0], 2)         # {0, 2->}
E3 = relative_ideal(S1, [0], 3)         # {0, 3->}
E4 = relative_ideal(S1, [0, 1], 3)      # {0, 1, 3->}
K1 = relative_ideal(S1, [0, 2, 3], 5)   # standard canonical ideal of S1
F2 = relative_ideal(S2, [2, 3, 4], 6)   # {2, 3, 4, 6->} over S2


def criteria(s):
    """Almost symmetry of ``s`` by the reflection and by the pairing characterization.

    ``classify`` decides it by the definition, L(S) inside PF(S); the tests
    hold these two reference implementations equal to it.
    """
    pf, ell = s._pf_mask, s._second_type_mask
    return {c.__name__: c(s, pf, ell)
            for c in (_almost_symmetric_by_reflection, _almost_symmetric_by_pairing)}
