"""Certify that two hyperbolic isometries power to a free group.

The generators act on the space of binary forms (a, b, c) with the
discriminant pairing b^2 - 4ac; they arise as symmetric squares of
integer 2x2 matrices.  The certificate is a ping-pong table of
Dirichlet half-spaces: from the base point x^2 + xy + y^2, the points
nearer s(base) than the base for s = g1^(+-m), g2^(+-m).  Six integer
inequalities on their normals show the four half-spaces disjoint, and
each power maps the complement of its inverse's half-space into its own.
Each generator's axis is the line of H^2 orthogonal to its integer
normal c, the kernel of A - det A.

Run as `python3 demos/free_subgroup.py`.
"""

from qflat.exact import determinant
from qflat.pingpong import (LABELS, axis_normal, schottky_certify,
                            symmetric_square, translation_length)


def main():
    m1 = ((2, 1), (1, 1))
    m2 = ((1, 1), (1, 2))
    g1 = symmetric_square(m1)
    g2 = symmetric_square(m2)
    print("g1 =", g1)
    print("g2 =", g2)

    for name, g in (("g1", g1), ("g2", g2)):
        length = translation_length(g)
        c = axis_normal(g)
        t = sum(g[i][i] for i in range(3)) - determinant(g)
        print(f"\n{name}: translation length in "
              f"[{float(length.lo):.12f}, {float(length.hi):.12f}]")
        print(f"    axis (x, {c}) = 0")
        print(f"    eigenvalues nu, 1/nu with nu + 1/nu = {t}")

    cert = schottky_certify(g1, g2, m_max=20)
    print(f"\nping-pong table found at m = {cert.m}")
    print(f"  base point {cert.base}")
    for label, a in zip(LABELS, cert.normals):
        print(f"  {label}: half-space (x, {a}) > 0")
    for a, b, ab, aabb in cert.inequalities():
        print(f"  ({a}, {b}) = {ab} < 0 and ({a}, {b})^2 > "
              f"({a}, {a})({b}, {b}) = {aabb}")
    print(f"word audit: {cert.words_checked} reduced words of length <= 6, "
          "none equal to the identity")
    print(f"\nhence <g1^{cert.m}, g2^{cert.m}> is free of rank 2.")


if __name__ == "__main__":
    main()
