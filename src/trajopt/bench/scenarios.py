"""Scenario definitions, seeded generation, and the JSON wire format.

The JSON schema uses exactly these keys:

    {"kind", "dim", "horizon": {"t0", "tf", "n_p"},
     "robot": {"shape", "v_max", "a_max", "footprint_offsets"},
     "obstacles": [{"a", "b", "center": [..], "velocity": [..]}],
     "boundary": {"start": [..], "goal": [..]}, "seed"}

For the square-antipodal kind the obstacle list doubles as the roster of the
other agents: each entry's center is that agent's start and its goal is the
antipodal point through the layout center (the start/goal midpoint of the
boundary block).  agent_boundaries() reconstructs the full roster.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from ..basis import TimeGrid
from ..geometry import EllipsoidShape, Obstacles, check_count, check_real

KINDS = (
    "corridor",
    "random-static",
    "dynamic-flow",
    "square-antipodal",
    "barn-like",
    "all-infeasible-probe",
)


@dataclass
class Horizon:
    t0: float
    tf: float
    n_p: int


@dataclass
class RobotSpec:
    shape: list  # [a, b] spheroid/ellipse half-dims (agents); [0, 0] for point robots
    v_max: float
    a_max: float
    footprint_offsets: list = field(default_factory=list)


@dataclass
class ScenarioObstacle:
    a: float
    b: float
    center: list
    velocity: list


@dataclass
class Boundary:
    start: list
    goal: list


@dataclass
class Scenario:
    kind: str
    dim: int
    horizon: Horizon
    robot: RobotSpec
    obstacles: list
    boundary: Boundary
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not (isinstance(self.dim, numbers.Integral) and self.dim in (2, 3)):  # 2.0 passes the membership test alone
            raise ValueError(f"dim must be 2 or 3, got {self.dim!r}")
        TimeGrid(self.horizon.t0, self.horizon.tf, self.horizon.n_p)  # the horizon check of build_basis
        check_real(self.robot, "positive and finite", "v_max", "a_max")
        _check_vectors(self.robot, None, "shape", "footprint_offsets")
        for obs in self.obstacles:
            _check_vectors(obs, self.dim, "center", "velocity")
            EllipsoidShape(obs.a, obs.b)  # the semi-axes check of every obstacle
        _check_vectors(self.boundary, self.dim, "start", "goal")
        check_count(self, 0, "seed")

    @property
    def scenario_id(self) -> str:
        return f"{self.kind}-{self.seed}"


def _check_vectors(owner, size, *names):
    """Reject each named field of owner unless it is a list (or tuple) of finite real numbers, size of them unless size is None."""
    for name in names:
        values = getattr(owner, name)
        reals = isinstance(values, (list, tuple)) and all(isinstance(v, numbers.Real) for v in values)
        if not (reals and size in (None, len(values)) and np.isfinite(values).all()):
            raise ValueError(f"{name} must be a list of {size or 'any number of'} finite numbers, got {values!r}")


def to_json(scenario: Scenario) -> str:
    return json.dumps(asdict(scenario), indent=2)


def from_json(text: str) -> Scenario:
    """The scenario of a JSON document; a malformed one raises ValueError, naming the key at fault where there is one."""
    raw = _block(dict, "a scenario", json.loads(text))
    try:
        return Scenario(
            kind=raw["kind"],
            dim=raw["dim"],
            horizon=_block(Horizon, "horizon", raw["horizon"]),
            robot=_block(RobotSpec, "robot", raw["robot"]),
            obstacles=[_block(ScenarioObstacle, "obstacle", o) for o in _array("obstacles", raw["obstacles"])],
            boundary=_block(Boundary, "boundary", raw["boundary"]),
            seed=raw["seed"],
        )
    except KeyError as exc:
        raise ValueError(f"scenario has no key {exc}") from None
    except TypeError as exc:  # a missing or unknown key of a block, or a value of the wrong type
        raise ValueError(f"malformed scenario: {exc}") from None


def _block(cls, key, value):
    """cls of the JSON object value of key; any other value raises ValueError naming key."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object, got {type(value).__name__}")
    return cls(**value)


def _array(key, value):
    """The JSON array value of key; any other value raises ValueError naming key."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON array, got {type(value).__name__}")
    return value


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(scenario))
        fh.write("\n")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return from_json(fh.read())


@dataclass(frozen=True, eq=False)
class ObstacleMotion:
    """A scenario's obstacles as arrays, read from its list once.

    centres and velocities are the (dim, n_o) positions at time 0 and the
    constant velocities, a and b the (n_o,) semi-axes; all are read-only.
    The positions and semi-axes are checked here as Obstacles checks them,
    and the velocities for finite values; the semi-axes are Obstacles' own
    checked arrays, so every prediction shares them instead of checking
    them again.  The arrays are a snapshot: a later change to the
    scenario's obstacle list does not reach them.
    """

    centres: np.ndarray
    velocities: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @classmethod
    def of(cls, scenario: Scenario) -> ObstacleMotion:
        obstacles = scenario.obstacles
        centres = np.array([obs.center for obs in obstacles], dtype=float).reshape(-1, scenario.dim).T
        velocities = np.array([obs.velocity for obs in obstacles], dtype=float).reshape(-1, scenario.dim).T
        start = Obstacles(centres[:, :, None], [obs.a for obs in obstacles], [obs.b for obs in obstacles])
        if not np.isfinite(velocities).all():
            raise ValueError("obstacle velocities must be finite")
        for value in (centres, velocities):
            value.setflags(write=False)
        return cls(centres, velocities, start.a, start.b)

    def tracks(self, times: np.ndarray) -> np.ndarray:
        """The (dim, n_o, len(times)) centres at the given times of the motion, by constant-velocity extrapolation."""
        return self.centres[:, :, None] + self.velocities[:, :, None] * times


def predict_obstacles(scenario: Scenario | ObstacleMotion, timestamps: np.ndarray, t_now: float = 0.0) -> Obstacles:
    """Constant-velocity extrapolation of every obstacle onto the grid.

    The grid's first timestamp is time t_now of the obstacles' motion.  The
    (dim, n_o, n_p) centres are formed in one broadcast.  scenario may be
    the ObstacleMotion read from a scenario, which this reads as it is:
    only the tracks are checked, and the motion's semi-axes are shared.
    """
    motion = scenario if isinstance(scenario, ObstacleMotion) else ObstacleMotion.of(scenario)
    timestamps = np.asarray(timestamps, dtype=float)
    return Obstacles(motion.tracks(t_now + timestamps - timestamps[0]), motion.a, motion.b)


def agent_boundaries(scenario: Scenario) -> list[tuple[np.ndarray, np.ndarray]]:
    """(start, goal) per agent for multi-agent scenarios.

    Agent 0 lives in the boundary block; the rest are encoded as stationary
    pseudo-obstacles whose goals are antipodal through the layout center.
    """
    start0 = np.asarray(scenario.boundary.start, dtype=float)
    goal0 = np.asarray(scenario.boundary.goal, dtype=float)
    center = 0.5 * (start0 + goal0)
    roster = [(start0, goal0)]
    for obs in scenario.obstacles:
        s = np.asarray(obs.center, dtype=float)
        roster.append((s, 2.0 * center - s))
    return roster


def _default_horizon(params) -> Horizon:
    return Horizon(
        t0=float(params.get("t0", 0.0)),
        tf=float(params.get("tf", 10.0)),
        n_p=int(params.get("n_p", 100)),
    )


def _point_scenario(kind, params, seed, obstacles, length, limit=3.0, horizon=None, dim=2) -> Scenario:
    """A point robot going from the origin to length along x; params may set v_max and a_max (default limit)."""
    v_max, a_max = (float(params.get(name, limit)) for name in ("v_max", "a_max"))
    return Scenario(kind=kind, dim=dim, horizon=horizon or _default_horizon(params),
                    robot=RobotSpec(shape=[0.0, 0.0], v_max=v_max, a_max=a_max), obstacles=obstacles,
                    boundary=Boundary(start=[0.0] * dim, goal=[length] + [0.0] * (dim - 1)), seed=seed)


def _gen_corridor(params, seed) -> Scenario:
    rng = np.random.default_rng(seed)
    length = float(params.get("length", 12.0))
    n_o = int(params.get("n_o", 10))
    half_width = float(params.get("half_width", 1.6))
    r_obs = float(params.get("obstacle_radius", 0.45))

    obstacles = []
    n_block = min(n_o, (n_o + 1) // 2)
    xs = np.linspace(0.18 * length, 0.82 * length, n_block)
    for k, x in enumerate(xs):
        # staggered blockers near the centerline force weaving
        y = (0.55 * r_obs) * (1 if k % 2 == 0 else -1) + rng.uniform(-0.08, 0.08)
        obstacles.append(ScenarioObstacle(a=r_obs, b=r_obs, center=[float(x + rng.uniform(-0.2, 0.2)), float(y)], velocity=[0.0, 0.0]))
    n_wall = n_o - n_block
    for k in range(n_wall):
        x = (0.25 + 0.5 * (k / max(n_wall - 1, 1))) * length + rng.uniform(-0.3, 0.3)
        side = 1 if k % 2 == 0 else -1
        obstacles.append(
            ScenarioObstacle(a=r_obs, b=r_obs, center=[float(x), float(side * half_width)], velocity=[0.0, 0.0])
        )
    return _point_scenario("corridor", params, seed, obstacles, length)


def _gen_random_static(params, seed) -> Scenario:
    rng = np.random.default_rng(seed)
    dim = int(params.get("dim", 2))
    n_o = int(params.get("n_o", 10))
    length = float(params.get("length", 12.0))
    r_obs = float(params.get("obstacle_radius", 0.5))
    clear = float(params.get("clearance", 1.5))
    start = np.zeros(dim)
    goal = np.zeros(dim)
    goal[0] = length
    lo = np.full(dim, -3.0)
    hi = np.full(dim, 3.0)
    lo[0], hi[0] = 0.1 * length, 0.9 * length
    if dim == 3:
        lo[2], hi[2] = -1.5, 1.5

    obstacles = []
    while len(obstacles) < n_o:
        c = rng.uniform(lo, hi)
        if np.linalg.norm(c - start) < clear or np.linalg.norm(c - goal) < clear:
            continue  # rejection keeps start/goal discs free
        obstacles.append(ScenarioObstacle(a=r_obs, b=r_obs, center=[float(v) for v in c], velocity=[0.0] * dim))
    return _point_scenario("random-static", params, seed, obstacles, length, dim=dim)


def _gen_dynamic_flow(params, seed) -> Scenario:
    rng = np.random.default_rng(seed)
    n_o = int(params.get("n_o", 10))
    length = float(params.get("length", 12.0))
    speed = float(params.get("obstacle_speed", 0.4))
    r_obs = float(params.get("obstacle_radius", 0.4))
    obstacles = []
    for _ in range(n_o):
        x = rng.uniform(0.3 * length, 1.1 * length)
        y = rng.uniform(-2.0, 2.0)
        obstacles.append(
            ScenarioObstacle(
                a=r_obs,
                b=r_obs,
                center=[float(x), float(y)],
                velocity=[float(-speed * rng.uniform(0.5, 1.0)), float(rng.uniform(-0.05, 0.05))],
            )
        )
    return _point_scenario("dynamic-flow", params, seed, obstacles, length)


def _square_perimeter(n_agents: int, side: float) -> list[tuple[float, float]]:
    """n_agents points evenly spaced around the square perimeter, centered at the origin."""
    perim = 4.0 * side
    points = []
    for k in range(n_agents):
        s = (k / n_agents) * perim
        edge, off = int(s // side), s % side
        if edge == 0:
            points.append((-side / 2 + off, -side / 2))
        elif edge == 1:
            points.append((side / 2, -side / 2 + off))
        elif edge == 2:
            points.append((side / 2 - off, side / 2))
        else:
            points.append((-side / 2, side / 2 - off))
    return points


def _min_gap(points) -> float:
    """Smallest distance between two of the points (inf for fewer than two)."""
    xy = np.asarray(points, dtype=float)
    gaps = np.linalg.norm(xy[:, None] - xy[None], axis=-1)[np.triu_indices(len(xy), 1)]
    return float(gaps.min()) if gaps.size else np.inf


def _gen_square_antipodal(params, seed) -> Scenario:
    rng = np.random.default_rng(seed)
    n_agents = int(params.get("n_agents", 8))
    side = float(params.get("side", 6.0))
    radius = float(params.get("agent_radius", 0.4))
    z_level = float(params.get("z", 1.0))
    jitter = float(params.get("jitter", 0.05))

    starts = [
        np.array([x, y, z_level]) + np.array([rng.uniform(-jitter, jitter), rng.uniform(-jitter, jitter), 0.0])
        for x, y in _square_perimeter(n_agents, side)
    ]
    gap = _min_gap([start[:2] for start in starts])
    if gap < 2.0 * radius:
        # the layout scales with the side; each start's jitter can close a
        # gap by up to sqrt(2) * jitter
        fits = (2.0 * radius + 2.0 * np.sqrt(2.0) * jitter) / _min_gap(_square_perimeter(n_agents, 1.0))
        fits = np.ceil(fits * 100.0) / 100.0
        raise ValueError(
            f"square-antipodal: {n_agents} agents on a {side} m square start {gap:.3f} m apart, inside two agent "
            f"radii ({2.0 * radius} m); the smallest side that fits at every seed is {fits:.2f} m"
        )

    goals = [np.array([-s[0], -s[1], z_level]) for s in starts]  # antipodal through the center
    center = np.array([0.0, 0.0, z_level])
    # the boundary block must place the layout center at the start/goal midpoint
    goals[0] = 2.0 * center - starts[0]
    obstacles = [
        ScenarioObstacle(a=radius, b=radius, center=[float(v) for v in starts[k]], velocity=[0.0, 0.0, 0.0])
        for k in range(1, n_agents)
    ]
    return Scenario(
        kind="square-antipodal",
        dim=3,
        horizon=_default_horizon(params),
        robot=RobotSpec(shape=[radius, radius], v_max=float(params.get("v_max", 4.0)), a_max=float(params.get("a_max", 4.0))),
        obstacles=obstacles,
        boundary=Boundary(start=[float(v) for v in starts[0]], goal=[float(v) for v in goals[0]]),
        seed=seed,
    )


def _gen_barn_like(params, seed) -> Scenario:
    rng = np.random.default_rng(seed)
    n_o = int(params.get("n_o", 16))
    length = float(params.get("length", 10.0))
    r_obs = float(params.get("obstacle_radius", 0.3))
    spacing = float(params.get("min_spacing", 1.0))
    clear = float(params.get("clearance", 1.2))
    start = np.array([0.0, 0.0])
    goal = np.array([length, 0.0])
    centers: list[np.ndarray] = []
    tries = 0
    while len(centers) < n_o and tries < 2000:
        tries += 1
        c = np.array([rng.uniform(0.15 * length, 0.85 * length), rng.uniform(-2.5, 2.5)])
        if np.linalg.norm(c - start) < clear or np.linalg.norm(c - goal) < clear:
            continue
        if any(np.linalg.norm(c - o) < spacing for o in centers):
            continue
        centers.append(c)
    obstacles = [
        ScenarioObstacle(a=r_obs, b=r_obs, center=[float(v) for v in c], velocity=[0.0, 0.0]) for c in centers
    ]
    return _point_scenario("barn-like", params, seed, obstacles, length, limit=2.0)


def _gen_all_infeasible_probe(params, seed) -> Scenario:
    rng = np.random.default_rng(seed)
    length = float(params.get("length", 10.0))
    blocker = float(params.get("blocker_radius", 1.6))
    # the big obstacle sits on the straight start-goal line, so the default
    # sampling mean (the straight-line trajectory) is inside it by construction
    mid_x = 0.5 * length + rng.uniform(-0.5, 0.5)
    obstacles = [ScenarioObstacle(a=blocker, b=blocker, center=[float(mid_x), 0.0], velocity=[0.0, 0.0])]
    for side in (1.0, -1.0):
        obstacles.append(
            ScenarioObstacle(
                a=0.6,
                b=0.6,
                center=[float(mid_x + rng.uniform(-1.5, 1.5)), float(side * (blocker + 1.4))],
                velocity=[0.0, 0.0],
            )
        )
    horizon = Horizon(t0=0.0, tf=float(params.get("tf", 10.0)), n_p=int(params.get("n_p", 50)))
    return _point_scenario("all-infeasible-probe", params, seed, obstacles, length, horizon=horizon)


_GENERATORS = {
    "corridor": _gen_corridor,
    "random-static": _gen_random_static,
    "dynamic-flow": _gen_dynamic_flow,
    "square-antipodal": _gen_square_antipodal,
    "barn-like": _gen_barn_like,
    "all-infeasible-probe": _gen_all_infeasible_probe,
}


def gen_scenario(kind: str, params: dict | None = None, seed: int = 0) -> Scenario:
    """Deterministically generate a scenario of the given kind."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown scenario kind {kind!r}; choose from {KINDS}")
    return _GENERATORS[kind](params or {}, int(seed))
