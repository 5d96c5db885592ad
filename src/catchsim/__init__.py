"""catchsim: deterministic UAV ball-interception simulator.

A numpy library with four layers: projectile physics with
Reynolds-dependent drag (`physics`), a synthetic depth camera
(`sensor`), sliding-window trajectory prediction (`predictor`,
`planner`), and a fixed-timestep scenario engine (`harness`). The
`catchsim` CLI runs single scenarios, the bundled A-E suite, or the
acceptance battery.
"""

from .physics import (
    BallState,
    DragMode,
    Environment,
    ProjectileParams,
    drag_accel,
    drag_coefficient,
    ground_truth,
)
from .sensor import CameraModel, Observation, detect_centroid, frame_schedule, observe, sample_point_cloud, visible
from .predictor import (
    ObservationQueue,
    PredictedPath,
    PropagationStop,
    estimate_velocity,
    plane_crossing,
    predict_from_queue,
    predict_path,
    push_observation,
)
from .planner import (
    PlanMethod,
    ReachableRegion,
    Setpoint,
    UavLimits,
    plan_cat_mouse,
    plan_fastest,
    plan_shortest,
    reachable_region,
    yaw_command,
)
from .vehicle import UavState, hover_init
from .harness import (
    BallMotion,
    MetricsRecord,
    ScenarioConfig,
    ScenarioId,
    ScenarioResult,
    bundled_config,
    config_from_dict,
    final_prediction_error,
    load_config,
    prediction_error,
    run_scenario,
    write_outputs,
)

__version__ = "0.1.0"
