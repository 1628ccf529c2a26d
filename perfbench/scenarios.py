"""Jet scenarios that the benchmark needs and the package does not ship.

METRIC3D is the 3D analogue of the built-in ``metric2d`` scenario: the
diffeomorphism pseudogroup of 3-space acting on the six metric
coefficients through the Lie derivative, phi_ij = -(g_kj d_i xi^k +
g_ik d_j xi^k).  Positivity is imposed on the leading 1x1 and 2x2 minors
only; the full 3x3 determinant makes rejection sampling give up
(``BadSample``) before it finds a point.
"""

METRIC3D = {
    "id": "metric3d",
    "base": ["x", "y", "z"],
    "fiber": ["g11", "g12", "g13", "g22", "g23", "g33"],
    "free_functions": ["a", "b", "c"],
    "lift_order": 1,
    "generators": [
        {
            "xi": ["a", "b", "c"],
            "phi": [
                "-(2*g11*a_x + 2*g12*b_x + 2*g13*c_x)",
                "-(g11*a_y + g12*b_y + g13*c_y + g12*a_x + g22*b_x + g23*c_x)",
                "-(g11*a_z + g12*b_z + g13*c_z + g13*a_x + g23*b_x + g33*c_x)",
                "-(2*g12*a_y + 2*g22*b_y + 2*g23*c_y)",
                "-(g12*a_z + g22*b_z + g23*c_z + g13*a_y + g23*b_y + g33*c_y)",
                "-(2*g13*a_z + 2*g23*b_z + 2*g33*c_z)",
            ],
        }
    ],
    "strata": [{"label": "generic", "equalities": [], "inequations": []}],
    "positivity": ["g11", "g11*g22 - g12^2"],
}
