"""Exact computations in the Hecke-Clifford algebra and its spin subalgebra.

The package exposes, layer by layer:

* scalars        — the field Q(i)(u) with v = u^2, canonical forms, parsing;
* combinatorics  — partitions, compositions, permutations, shifted diagrams;
* hecke_clifford — the algebra itself: normal forms and exact products;
* traces         — class polynomials f_nu and the symmetrizing form gimel;
* symfunc        — monomial and Schur Q-function symmetric polynomials;
* characters     — the character table, Schur elements, generic degrees;
* tensor_oracle  — an independent tensor-space realization used for checks;
* spin_hecke     — the odd-generator subalgebra through its embedding;
* cli            — the command-line front end.
"""

__all__ = [
    "scalars",
    "combinatorics",
    "hecke_clifford",
    "traces",
    "symfunc",
    "characters",
    "tensor_oracle",
    "spin_hecke",
    "cli",
]

__version__ = "0.1.0"
