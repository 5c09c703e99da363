"""Numerical toolkit for a degenerate quasilinear free boundary problem.

The package solves, on axis-aligned box domains, the coupled problem for a
head u and a saturation indicator chi,

    0 <= u <= M,  0 <= chi <= 1,  u (1 - chi) = 0,
    div( a(|grad u|) grad u / |grad u| + chi H(x) ) = 0,

with u = 0 on a marked part of the boundary and Dirichlet data elsewhere,
and numerically certifies the structural ingredients of the underlying
regularity theory: ellipticity of the nonlinearity, flux monotonicity,
radial and boundary comparison functions with their closed-form growth
constants, the characteristic flow of H with its Jacobian determinant,
monotonicity of chi along the flow, and the graph representation of the
free boundary.
"""

__version__ = "0.1.0"
