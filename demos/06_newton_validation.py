"""Full 2D Newton validation of the concentration law.

Seeds the damped Newton iteration with the layered approximation on the
straight channel, confirms quadratic convergence, and measures the section
profile against V^(1/(p-1)) w(V^(1/2) t / eps): amplitude, maximum location,
and the fitted exponential decay rate.
"""

import numpy as np

from curvelayers import ansatz as az
from curvelayers import geodesic as gd
from curvelayers import geometry as ge
from curvelayers import pde

eps = 0.05
flat = ge.build_chart(ge.flat_channel_curve(), delta0=4.0)
field = gd.build_potential(3.0, lambda t, th: 1.0 + np.asarray(t, dtype=float) ** 2)
ctx = az.build_strip_context(3.0)

t_nodes = pde.graded_nodes(eps, 4.0)
th_nodes = np.linspace(0.0, 1.0, 49)
mesh = pde.rectangle_mesh(t_nodes, th_nodes, field)
print(f"mesh: {mesh.shape[0]} x {mesh.shape[1]} nodes, finest spacing {np.min(np.diff(t_nodes)):.4f}")

bundle = az.assemble_ansatz(2, az.zero_state(), eps, ctx, flat, field)
trace = pde.newton_solve(mesh, 3.0, eps, bundle.W_on_mesh(mesh))
print(f"newton: converged={trace.converged} in {trace.iterations} iterations")
print("residual history:", " -> ".join(f"{r:.1e}" for r in trace.residuals))

met = pde.concentration_metrics(trace, field, 3.0, eps)
print(f"amplitude ratio to sqrt(2): [{met.amplitude_ratio.min():.4f}, {met.amplitude_ratio.max():.4f}]")
print(f"section maxima within {np.max(np.abs(met.max_offsets)):.2e} of the curve (cell {met.grid_dt:.4f})")
print(f"fitted decay rate {met.decay_rate:.3f} (floor 0.8 sqrt(min V) = 0.8)")
print(f"profile sup deviation from the scaled ground state: {np.max(met.profile_sup_err):.3e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    U = mesh.as_grid(trace.u)
    fig, ax = plt.subplots(figsize=(7, 4))
    mid = U.shape[1] // 2
    sel = np.abs(t_nodes) < 1.0
    ax.semilogy(t_nodes[sel], U[sel, mid], label="computed section")
    from curvelayers.profiles import ground_state

    ax.semilogy(t_nodes[sel], ground_state(3.0, t_nodes[sel] / eps)[0], "--", label="scaled ground state")
    ax.set_xlabel("t")
    ax.legend()
    ax.set_title("mid-channel section of the converged solution")
    fig.tight_layout()
    fig.savefig("demos_newton.png", dpi=120)
    print("wrote demos_newton.png")
except ImportError:
    print("matplotlib not available; skipped the plot")
