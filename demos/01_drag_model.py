"""Drag model walk-through: Reynolds number, the Cd(Re) correlation, and
what drag does to a table-tennis ball.

Run:
    python demos/01_drag_model.py
"""

import numpy as np

from catchsim import Environment, ProjectileParams, drag_accel, drag_coefficient

env = Environment()
ball = ProjectileParams()
# velocity -> gravity + drag: the reference arithmetic the simulator's RK4 truth and predictor evaluate inline
accel = drag_accel(ball, env)


def drag_deceleration(v):
    """Drag deceleration at speed v, read off a horizontal flight (gravity acts only along z)."""
    return -accel(v, 0.0, 0.0)[0]


print("Ball: m = %.1f g, D = %.0f mm, A = %.3e m^2" % (ball.mass_m * 1e3, ball.diameter_D * 1e3, ball.reference_area_A))
print("Air:  rho = %.3f kg/m^3, nu = %.1e m^2/s\n" % (env.air_density_rho, env.kinematic_viscosity_nu))

# The correlation covers everything from creeping flow to supercritical.
print("Cd across the Reynolds range:")
for Re in (0.1, 1.0, 100.0, 2700.0, 1e5, 1e7):
    print(f"  Re = {Re:>10.1f}  ->  Cd = {drag_coefficient(Re):8.4f}")

# Reference point: the ball at ~1 m/s sits right around Re = V D / nu = 2700, Cd = 0.42.
speed = 1.0125
a = drag_deceleration(speed)
print(f"\nAt {speed} m/s: Re = 2700, Cd = {drag_coefficient(2700.0):.4f}, drag = {a * ball.mass_m:.3e} N")
print(f"Drag deceleration at that speed: {a:.3f} m/s^2")

# Drag grows with v^2, so it dominates quickly: compare against gravity.
print("\nDrag deceleration vs speed (gravity is 9.81 m/s^2):")
for v in (1.0, 2.0, 4.0, 6.0, 8.0):
    print(f"  v = {v:.0f} m/s  ->  {drag_deceleration(v):6.2f} m/s^2")

# Terminal velocity: where drag balances weight.
v_lo, v_hi = 0.1, 30.0
for _ in range(60):
    v = 0.5 * (v_lo + v_hi)
    if drag_deceleration(v) > env.gravity_g:
        v_hi = v
    else:
        v_lo = v
print(f"\nTerminal velocity of the ball: {v:.2f} m/s")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    Res = np.geomspace(1e-1, 1e7, 400)
    Cds = [drag_coefficient(float(r)) for r in Res]
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.loglog(Res, Cds)
    ax.axvline(2700, color="gray", ls="--", lw=1)
    ax.annotate("Re = 2700", (2700, 1.5), rotation=90, va="bottom", fontsize=9)
    ax.set_xlabel("Reynolds number")
    ax.set_ylabel("drag coefficient Cd")
    ax.set_title("Sphere drag correlation")
    ax.grid(alpha=0.3, which="both")
    fig.tight_layout()
    fig.savefig("demo_drag_model.png", dpi=120)
    print("\nSaved demo_drag_model.png")
except ImportError:
    print("\n(matplotlib not available; skipping the plot)")
