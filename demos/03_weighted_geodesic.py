"""Stationarity and non-degeneracy of candidate concentration curves.

Three verdicts: the centered line in a quadratic-well weight (stationary and
non-degenerate), constant weight (degenerate by translation), and the disk
diameter under a radial weight (degenerate by rotation -- the kernel is the
exact rotation field, which the eigenvalue nearest 0 of the location
operator picks up).
"""

import os
import sys

import numpy as np

from curvelayers import geodesic as gd
from curvelayers import geometry as ge

# the three-way first variation lives with the tests' other independent checks
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from oracles import first_variation_ways  # noqa: E402

flat = ge.build_chart(ge.flat_channel_curve(), delta0=4.0)
disk = ge.build_chart(ge.disk_diameter_curve(), delta0=0.35)

cases = {
    "flat channel, V = 1 + t^2": (flat, gd.build_potential(3.0, lambda t, th: 1.0 + np.asarray(t, dtype=float) ** 2)),
    "flat channel, V = 1": (flat, gd.build_potential(3.0, lambda t, th: np.ones_like(np.asarray(t) + np.asarray(th)))),
}


def radial(t, th):
    t = np.asarray(t, dtype=float)
    Theta = disk.Theta(t, np.asarray(th, dtype=float))
    return 1.0 + t**2 + (Theta - 0.5) ** 2


cases["disk diameter, radial V"] = (disk, gd.build_potential(3.0, radial, span=(-0.04, 1.04)))

for name, (chart, field) in cases.items():
    _, _, sup = gd.stationarity_residual(chart, field)
    rep = gd.nondegeneracy_test(chart, field)
    print(f"{name}:")
    print(f"  stationarity residual sup = {sup:.2e}")
    print(f"  smallest |eigenvalue|     = {rep.smallest:.3e} (threshold {rep.threshold:.1e})")
    print(f"  verdict: {'non-degenerate' if rep.nondegenerate else 'DEGENERATE'}")

print("\nfirst variation three ways (off-center weight, so nonzero):")
off = gd.build_potential(3.0, lambda t, th: 1.0 + (np.asarray(t, dtype=float) - 0.1) ** 2)
h = lambda th: np.sin(np.pi * np.asarray(th, dtype=float)) + 0.3
hp = lambda th: np.pi * np.cos(np.pi * np.asarray(th, dtype=float))
print("  variational display / residual form / central differences:")
print("  %.10f / %.10f / %.10f" % first_variation_ways(flat, off, h, hp))
