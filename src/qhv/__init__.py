"""Exact symbolic verification of quadric and F4 fiber degenerations.

Submodules: :mod:`qhv.polyring` (exact Laurent-capable polynomial
arithmetic), :mod:`qhv.ideals` (Groebner bases, elimination, Jacobian
ideals), :mod:`qhv.group_actions` (derivations, sl2 triples, torus
scalings), :mod:`qhv.degenerations` (the two glued chart families and every
identity asserted about them), :mod:`qhv.singular` (cyclic quotient
terminality), :mod:`qhv.ruled` (ruled-surface lattices and the bundle
normal-form walk) and :mod:`qhv.cli` (the batch verification driver).
"""
