"""Exact-arithmetic combinatorics and truncated module theory for gl(n|n).

The package realizes, at desk scale and in exact rational arithmetic:

* the Lie superalgebra gl(n|n) with its matrix-unit basis and supercommutator;
* the lattice of Borel subalgebras containing the standard even Borel,
  indexed by partitions in the n x n box (equivalently epsilon/delta shuffle
  sequences), with odd reflections, rho-vectors, and the hypercube family;
* truncated highest-weight modules: Verma modules for every Borel, the
  parabolically induced family attached to the principal good grading (bg
  modules, induced from tensor products of rank-1 realizations on the
  degree-zero Levi), and inductions from smaller subalgebras, all with PBW
  monomial bases and an exact straightening action;
* the rank-one odd homology functor (kernel mod image of an odd
  self-commuting matrix unit) with census, induced action of the centralizer
  subalgebra, and certification of the expected Verma answers;
* a verification harness binding named scenarios to machine-checked verdicts.
"""

__version__ = "0.1.0"
