"""The three planning methods on one predicted throw: chase the detection
(cat & mouse), fly to the nearest reachable predicted point (shortest
path), or to the earliest reachable one (fastest path).

Run:
    python demos/04_planning_methods.py
"""

import numpy as np

from catchsim import (
    BallState,
    Environment,
    ProjectileParams,
    PropagationStop,
    UavLimits,
    hover_init,
    plan_cat_mouse,
    plan_fastest,
    plan_shortest,
    predict_path,
    reachable_region,
)
from catchsim.sensor import Observation

env = Environment()
params = ProjectileParams()
limits = UavLimits()
uav = hover_init(2.0)

# Predict a throw's future with perfect knowledge of its initial state.
seed = BallState(position=[2.9, 1.2, 1.5], velocity=[-2.7, -1.4, 5.3])
path = predict_path(seed, params, env, t_step=0.01, stop=PropagationStop(3.0, 0.0))
print(f"Predicted path: {len(path)} samples over {path.times[-1] - path.times[0]:.2f} s")

# A sample is reachable when the UAV, accelerating from rest and then cruising
# (a trapezoidal speed profile), gets there no later than the ball does.
region = reachable_region(path, 0.0, uav, limits)
print(f"Reachable ('green') region: samples {region.indices[0]}..{region.indices[-1]} "
      f"({len(region)} of {len(path)}), margins up to {region.margins.max():.2f} s")

# The predictive planners pick a path index; cat & mouse targets the detection.
i_short = plan_shortest(region)
i_fast = plan_fastest(region)
obs = Observation(seed.position.copy(), 0.0, bearing_azimuth=0.39, bearing_elevation=-0.16, edge_fraction=0.65)
sp_cat = plan_cat_mouse(obs, uav, yaw_enabled=True)

print("\nMethod choices:")
for name, idx in (("cat & mouse", None), ("shortest path", i_short), ("fastest path", i_fast)):
    tgt = sp_cat.target_position if idx is None else path.positions[idx]
    label = "-" if idx is None else str(idx)
    d = np.linalg.norm(tgt - uav.position)
    print(f"  {name:14s} -> target ({tgt[0]:+.2f},{tgt[1]:+.2f},{tgt[2]:+.2f}), "
          f"path index {label:>3s}, {d:.2f} m from the UAV")

print(f"\nfastest index {i_fast} <= shortest index {i_short}: "
      f"the fastest method always meets the ball no later along its path.")
print("Cat & mouse ignores prediction entirely and chases the detection itself.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 5))
    ax.plot(path.positions[:, 0], path.positions[:, 2], "-", color="tab:blue", label="predicted ball path")
    g = region.indices
    ax.plot(path.positions[g, 0], path.positions[g, 2], ".", color="tab:green", ms=4, label="reachable region")
    ax.plot(*uav.position[[0, 2]], "k^", ms=10, label="UAV")
    ax.plot(*path.positions[i_short, [0, 2]], "rs", label="shortest-path choice")
    ax.plot(*path.positions[i_fast, [0, 2]], "m*", ms=12, label="fastest-path choice")
    ax.set_xlabel("x [m]")
    ax.set_ylabel("z [m]")
    ax.set_title("Planning methods over one predicted throw (x-z view)")
    ax.legend(fontsize=8)
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("demo_planning_methods.png", dpi=120)
    print("\nSaved demo_planning_methods.png")
except ImportError:
    print("\n(matplotlib not available; skipping the plot)")
