"""Ground state and companion 1D profiles.

Builds the sech-type ground state for a few exponents, checks the integral
identities that drive every later cancellation, and shows the linearized
eigenpair. Saves a plot when matplotlib is available.
"""

import os
import sys

import numpy as np

from curvelayers import profiles as pr

# the shooting oracle lives with the tests' other independent checks
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from oracles import ground_state_by_shooting  # noqa: E402

for p in (2.0, 3.0, 5.0):
    ps = pr.build_profiles(p)
    triple = (ps.int_w2, 2 * ps.sigma * ps.rho1, -2 * ps.integrate(ps.x * ps.w * ps.w_x))
    print(f"p = {p}:")
    print(f"  w(0) = {ps.w[ps.n // 2]:.12f}")
    print(f"  identity int w^2 = 2 sigma int w_x^2 = -2 int x w w_x:")
    print(f"    {triple[0]:.12f} = {triple[1]:.12f} = {triple[2]:.12f}")
    print(f"  lambda0 closed form {ps.lambda0:.6f} vs discretized {ps.lambda0_fd:.6f}")
    print(f"  rho1 = {ps.rho1:.9f}, rho2 = {ps.rho2:.9f}")

ps = pr.build_profiles(3.0)
w0_shoot = ground_state_by_shooting(3.0, x_max=18.0)
print(f"\nindependent shooting oracle at p=3: w(0) = {w0_shoot:.12f} (closed form {np.sqrt(2):.12f})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    core = np.abs(ps.x) <= 8
    for name in ("w", "w1", "w2", "Z"):
        ax.plot(ps.x[core], getattr(ps, name)[core], label=name)
    ax.legend()
    ax.set_xlabel("x")
    ax.set_title("layer profiles at p = 3")
    fig.tight_layout()
    fig.savefig("demos_profiles.png", dpi=120)
    print("wrote demos_profiles.png")
except ImportError:
    print("matplotlib not available; skipped the plot")
