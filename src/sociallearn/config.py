"""Experiment configuration: YAML schema, validation, and scenario assembly.

One canonical schema (all keys optional unless noted):

.. code-block:: yaml

    topology:
      kind: erdos_renyi          # erdos_renyi | star | complete | ring |
                                 # edge_list | trust_weighted_complete
      n_agents: 15               # required
      edge_prob: 0.25            # erdos_renyi
      seed: 28                   # erdos_renyi rejection sampling
      hub: 0                     # star
      edges: [[0, 1], [1, 2]]    # edge_list
      trust_weight: 0.05         # trust_weighted_complete
      self_loops: true           # default true (all agents)
    agents:
      n_malicious: 4             # adversaries are agents 0 .. n_malicious-1
      model: {kind: bsc, p: 0.8} # shared model, or
      models:                    # one per agent
        - {kind: rows, theta1: [0.8, 0.2], theta2: [0.55, 0.45]}
    attack:
      strategy: unknown_divergences   # known_divergences | random | none
      epsilon: 5.0e-3
      s1: null                   # known_divergences: externally supplied
      s2: null                   #   (default: computed from the scenario)
      aggregate_centrality: false
      seed: 0                    # random strategy
    experiment:
      theta_true: theta1
      horizon: 2000
      seeds: [0]                 # distinct, each >= 0
      stride: 1
      initial_belief_theta1: 0.5 # scalar or per-agent list, strictly in (0,1)
    sweep:
      parameter: bsc_p           # bsc_p | epsilon | adversary_centrality
                                 # (trust_weight; only it moves the network)
      grid: {start: 0.55, stop: 0.95, step: 0.01}   # or  values: [...]
    output:
      directory: out
      format: structured         # structured | tabular

The section dataclasses below are the only place a key's name, type and
default are written; parsing and the echo both walk them. An int field
needs an integer (``10.7`` is refused, not truncated); a bool field needs
``true`` or ``false``; a float field also takes an integer, or a number
written as text (YAML 1.1 reads ``1e-3`` as a string); a list field needs a
list, and an edge exactly two agents; null selects the default; an unknown
key is refused, and a model takes only the keys of its ``kind``. Loading
collects *every* violation, each naming its path, before failing, and the
echo materializes all defaults, so a result file records the exact knobs
that produced it.

A scenario is assembled in two parts. The topology part
(``build_topology``: the network, its validation, the Perron vector and the
adversary centrality) reads only ``topology`` and ``agents.n_malicious``; the
model part (``assemble_scenario``: agents, attack plan, report) is built on
it. ``build_scenario`` is the two in turn. A sweep's value -> scenario builder
(``sweep_scenarios``) therefore builds the topology once for a ``bsc_p`` or
``epsilon`` sweep, grid and theory root alike, and once per value only for
``adversary_centrality``. The attack plan forges once per distinct input
(``attacks.forge_once``): per distinct model under ``unknown_divergences``,
and per distinct (model, effective centrality) under ``known_divergences``,
where the effective centrality is the summed adversary centrality with
``aggregate_centrality`` and the adversary's own otherwise. ``random``
draws one stream in adversary order.

Configs are parsed and echoed by libyaml when the installed PyYAML has it,
and by PyYAML's pure-Python classes otherwise. Both share one constructor,
resolver and representer, so they give the same data and the same bytes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from types import UnionType
from typing import Any, Callable, Sequence, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .analysis import DeceptionReport, deception_verdict, normal_divergence
from .attacks import (
    AttackPlan,
    AttackPlanEntry,
    forge_once,
    multi_adversary_known,
    random_attack,
    unknown_divergence_attack,
)
from .errors import ConfigParseError, ConfigValidationError, SocialLearnError
from .learning import AgentConfig
from .network import (
    Network,
    adversary_centrality,
    complete_adjacency,
    edge_list_adjacency,
    erdos_renyi_adjacency,
    make_network,
    perron_vector,
    ring_adjacency,
    star_adjacency,
    trust_weighted_complete,
    uniform_combination,
    validate_network,
)
from .probability import Hypothesis, LikelihoodModel, bsc_model, make_model

#: libyaml when PyYAML was built with it; the pure classes are the fallback
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_TOPOLOGY_KINDS = (
    "erdos_renyi",
    "star",
    "complete",
    "ring",
    "edge_list",
    "trust_weighted_complete",
)
_STRATEGIES = ("none", "unknown_divergences", "known_divergences", "random")
_SWEEP_PARAMETERS = ("bsc_p", "epsilon", "adversary_centrality")
_FORMATS = ("structured", "tabular")
#: the keys each model kind reads, and the only ones it echoes
_MODEL_KEYS = {"bsc": ("kind", "p"), "rows": ("kind", "theta1", "theta2")}
#: most points a ``sweep.grid`` expands to; each point runs every seed
_GRID_POINTS = 10_000


@dataclass(frozen=True)
class TopologySpec:
    kind: str = "complete"
    n_agents: int = 2
    edge_prob: float = 0.3
    seed: int = 0
    hub: int = 0
    edges: tuple[tuple[int, int], ...] = ()
    trust_weight: float = 0.05
    self_loops: bool = True


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "bsc"  # bsc | rows
    p: float = 0.8
    theta1: tuple[float, ...] = ()
    theta2: tuple[float, ...] = ()

    def build(self) -> LikelihoodModel:
        if self.kind == "bsc":
            return bsc_model(self.p)
        return make_model(self.theta1, self.theta2)


@dataclass(frozen=True)
class AgentsSpec:
    n_malicious: int = 0
    model: ModelSpec | None = None
    models: tuple[ModelSpec, ...] = ()


@dataclass(frozen=True)
class AttackSpec:
    strategy: str = "none"
    epsilon: float = 1e-3
    s1: float | None = None
    s2: float | None = None
    aggregate_centrality: bool = False
    seed: int = 0


@dataclass(frozen=True)
class ExperimentSpec:
    theta_true: str = "theta1"
    horizon: int = 2000
    seeds: tuple[int, ...] = (0,)
    stride: int = 1
    initial_belief_theta1: float | tuple[float, ...] = 0.5


@dataclass(frozen=True)
class SweepSpec:
    parameter: str = "bsc_p"
    values: tuple[float, ...] = ()


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    format: str = "structured"


@dataclass(frozen=True)
class ExperimentConfig:
    topology: TopologySpec = field(default_factory=TopologySpec)
    agents: AgentsSpec = field(default_factory=AgentsSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    experiment: ExperimentSpec = field(default_factory=ExperimentSpec)
    sweep: SweepSpec | None = None
    output: OutputSpec = field(default_factory=OutputSpec)

    def to_dict(self) -> dict[str, Any]:
        """Complete echo of every knob, defaults materialized."""
        d = _echo(self)
        d["agents"]["models"] = d["agents"]["models"] or None  # no per-agent list echoes null
        return d

    def echo(self) -> str:
        return yaml.dump(self.to_dict(), Dumper=_DUMPER, sort_keys=True)


#: field name -> type per section, resolved once rather than on every load
_HINTS = {
    cls: get_type_hints(cls)
    for cls in (TopologySpec, ModelSpec, AgentsSpec, AttackSpec, ExperimentSpec,
                SweepSpec, OutputSpec, ExperimentConfig)
}


def _keys(section: Any) -> Sequence[str]:
    """The keys a section reads and echoes; a model has only those of its kind."""
    if isinstance(section, ModelSpec):
        return _MODEL_KEYS.get(section.kind, tuple(_HINTS[ModelSpec]))
    return tuple(_HINTS[type(section)])


def _echo(value: Any) -> Any:
    """Plain YAML/JSON data for a section, a tuple or a scalar."""
    if type(value) in _HINTS:
        return {key: _echo(getattr(value, key)) for key in _keys(value)}
    if isinstance(value, tuple):
        return [_echo(x) for x in value]
    return value


# --- parsing ---------------------------------------------------------------------

def load_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text; all violations reported at once."""
    try:
        raw = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigParseError(f"top level must be a mapping, got {type(raw).__name__}")
    violations: list[str] = []
    sweep = raw.get("sweep")
    if isinstance(sweep, dict) and "grid" in sweep:
        raw = {**raw, "sweep": _expand_grid(sweep, violations)}
    cfg = _coerce(ExperimentConfig, raw, "", violations)
    if not violations:
        violations.extend(validate_config(cfg))
    if violations:
        raise ConfigValidationError(violations)
    return cfg


def _coerce(tp: Any, value: Any, path: str, violations: list[str]) -> Any:
    """``value`` as type ``tp`` when that loses nothing, else None and a violation."""
    if tp in (bool, int, float, str):
        if isinstance(value, bool) != (tp is bool):
            return _refuse(path, tp.__name__, value, violations)
        if tp is float and isinstance(value, (int, str)):
            try:
                value = float(value)
            except (ValueError, OverflowError):
                pass
        if not isinstance(value, tp):
            return _refuse(path, tp.__name__, value, violations)
        return value
    if tp in _HINTS:
        if not isinstance(value, dict):
            return _refuse(path, "a mapping", value, violations)
        hints, given = _HINTS[tp], {}
        for key, item in value.items():
            if key in hints and item is not None:  # null selects the default
                given[key] = _coerce(hints[key], item, f"{path}.{key}".lstrip("."), violations)
        section = tp(**given)
        known = _keys(section)
        for key in value:
            if key not in known:
                where = f"{path}.{key}".lstrip(".")
                violations.append(f"{where} is not a known key; known: {', '.join(known)}")
        return section
    args = get_args(tp)
    if get_origin(tp) is UnionType:
        # X | None, or scalar | tuple: a list takes the tuple member
        members = [a for a in args if a is not type(None)]
        listy = [a for a in members if (get_origin(a) is tuple) == isinstance(value, list)]
        return _coerce((listy or members)[0], value, path, violations)
    if not isinstance(value, list):
        return _refuse(path, "a list", value, violations)
    if args[-1] is Ellipsis:
        args = (args[0],) * len(value)
    elif len(value) != len(args):
        return _refuse(path, f"a list of {len(args)}", value, violations)
    return tuple(
        _coerce(t, x, f"{path}[{i}]", violations) for i, (t, x) in enumerate(zip(args, value))
    )


def _refuse(path: str, wanted: str, value: Any, violations: list[str]) -> None:
    violations.append(f"{path} must be {wanted}, got {value!r}")
    return None


def _expand_grid(sweep: dict, violations: list[str]) -> dict:
    """``sweep`` with its ``grid: {start, stop, step}`` shorthand turned into ``values``.

    The point count is worked out before any value is built, and a grid of
    more than ``_GRID_POINTS`` points is refused.
    """
    grid = sweep["grid"]
    sweep = {key: item for key, item in sweep.items() if key != "grid"}
    if "values" in sweep:
        violations.append("sweep takes either 'values' or 'grid', not both")
    try:
        start, stop, step = (float(grid[key]) for key in ("start", "stop", "step"))
    except (KeyError, TypeError, ValueError):
        start = stop = step = math.nan
    if not all(map(math.isfinite, (start, stop, step))) or step == 0.0:
        violations.append("sweep.grid needs finite start, stop and a non-zero step")
        return sweep
    span = (stop - start) / step  # inf when it overflows
    if span + 1.0 > _GRID_POINTS:
        violations.append(
            f"sweep.grid gives {span + 1.0:.6g} points, more than the {_GRID_POINTS} allowed"
        )
        return sweep
    sweep["values"] = [round(start + i * step, 12) for i in range(round(max(span, -1.0)) + 1)]
    return sweep


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Range and cross-field checks on a typed config; returns every violation."""
    v: list[str] = []
    t, a = cfg.topology, cfg.agents
    if t.kind not in _TOPOLOGY_KINDS:
        v.append(f"topology.kind must be one of {_TOPOLOGY_KINDS}, got {t.kind!r}")
    if t.n_agents < 2:
        v.append(f"topology.n_agents must be >= 2, got {t.n_agents!r}")
    if t.kind == "erdos_renyi" and not 0.0 < t.edge_prob <= 1.0:
        v.append(f"topology.edge_prob must lie in (0, 1], got {t.edge_prob!r}")
    if t.kind == "trust_weighted_complete" and not 0.0 < t.trust_weight * a.n_malicious < 1.0:
        v.append(
            "topology.trust_weight must lie in (0, 1/n_malicious), with n_malicious >= 1, "
            f"got {t.trust_weight!r} with n_malicious {a.n_malicious}"
        )
    if t.kind == "star" and not 0 <= t.hub < t.n_agents:
        v.append(f"topology.hub must index one of the {t.n_agents} agents, got {t.hub!r}")
    if t.kind == "edge_list":
        for e, (i, j) in enumerate(t.edges):
            if not (0 <= i < t.n_agents and 0 <= j < t.n_agents):
                v.append(f"topology.edges[{e}] must join two of the {t.n_agents} agents, "
                         f"got [{i}, {j}]")
    if not 0 <= a.n_malicious < t.n_agents:
        v.append(
            f"agents.n_malicious must satisfy 0 <= n_malicious < n_agents ({t.n_agents}), "
            f"got {a.n_malicious!r}"
        )
    if a.models and len(a.models) != t.n_agents:
        v.append(
            f"agents.models must list one model per agent ({t.n_agents}), got {len(a.models)}"
        )
    if not a.models and a.model is None:
        v.append("agents needs a shared 'model' or a per-agent 'models' list")
    if a.models and a.model is not None:  # the agents would read only 'models'
        v.append("agents takes either a shared 'model' or a per-agent 'models' list, not both")
    per_agent = [(f"agents.models[{k}]", m) for k, m in enumerate(a.models)]
    shared = [("agents.model", a.model)] if a.model is not None else []
    for where, m in per_agent + shared:
        if m.kind not in _MODEL_KEYS:
            v.append(f"{where}.kind must be one of {tuple(_MODEL_KEYS)}, got {m.kind!r}")
    models: list[LikelihoodModel] = []
    if not v:
        for where, m in per_agent or shared:  # the specs the agents' models come from
            try:
                models.append(m.build())
            except SocialLearnError as exc:  # a bsc p outside (0, 1), rows that are no PMF
                v.append(f"{where}: {exc}")
        if v:
            models = []
    at = cfg.attack
    if at.strategy not in _STRATEGIES:
        v.append(f"attack.strategy must be one of {_STRATEGIES}, got {at.strategy!r}")
    min_alphabet = min((m.alphabet_size for m in models), default=0)
    if min_alphabet and at.strategy != "none" and not 0.0 < at.epsilon < 1.0 / min_alphabet:
        v.append(
            f"attack.epsilon must lie in (0, 1/{min_alphabet}) "
            f"for the smallest alphabet, got {at.epsilon!r}"
        )
    for name, s in (("s1", at.s1), ("s2", at.s2)):
        if s is not None and (not math.isfinite(s) or s < 0.0):
            v.append(f"attack.{name} must be finite and >= 0, got {s!r}")
    e = cfg.experiment
    for name, seed in (("topology.seed", t.seed), ("attack.seed", at.seed)):
        if seed < 0:
            v.append(f"{name} must be >= 0, got {seed!r}")
    negative = [s for s in e.seeds if s < 0]
    if negative:
        v.append(f"experiment.seeds must be >= 0, got {negative}")
    try:
        Hypothesis.from_name(e.theta_true)
    except Exception:
        v.append(f"experiment.theta_true must be theta1 or theta2, got {e.theta_true!r}")
    if e.horizon < 1:
        v.append(f"experiment.horizon must be >= 1, got {e.horizon!r}")
    if e.stride < 0:
        v.append(
            f"experiment.stride must be >= 0 (0 disables trajectory records), got {e.stride!r}"
        )
    if not e.seeds:
        v.append("experiment.seeds must be non-empty")
    repeated = [s for s, count in Counter(e.seeds).items() if count > 1]
    if repeated:
        v.append(f"experiment.seeds must be distinct, got {repeated} more than once")
    init, path = e.initial_belief_theta1, "experiment.initial_belief_theta1"
    beliefs = {path: init}
    if isinstance(init, tuple):
        if len(init) != t.n_agents:
            v.append(f"{path} list must have one entry per agent ({t.n_agents}), got {len(init)}")
        beliefs = {f"{path}[{i}]": b for i, b in enumerate(init)}
    for where, b in beliefs.items():
        if not 0.0 < b < 1.0:
            v.append(f"{where} must lie strictly inside (0, 1), got {b!r}")
    sw = cfg.sweep
    if sw is not None:
        if sw.parameter not in _SWEEP_PARAMETERS:
            v.append(f"sweep.parameter must be one of {_SWEEP_PARAMETERS}, got {sw.parameter!r}")
        if not sw.values:
            v.append("sweep.values must be non-empty")
        if sw.parameter == "bsc_p":
            if a.model is None or a.model.kind != "bsc":
                v.append("agents.model must be a shared bsc model for a bsc_p sweep")
            v.extend(
                f"sweep.values[{k}] must lie in (0.5, 1) for bsc_p, got {x!r}"
                for k, x in enumerate(sw.values) if not 0.5 < x < 1.0
            )
        if sw.parameter == "epsilon" and min_alphabet and at.strategy != "none":
            v.extend(
                f"sweep.values[{k}] must lie in (0, 1/{min_alphabet}) for epsilon, got {x!r}"
                for k, x in enumerate(sw.values) if not 0.0 < x < 1.0 / min_alphabet
            )
        if sw.parameter == "adversary_centrality":
            if t.kind != "trust_weighted_complete":
                v.append(
                    "topology.kind must be trust_weighted_complete for an "
                    f"adversary_centrality sweep, got {t.kind!r}"
                )
            else:
                v.extend(
                    f"sweep.values[{k}] must lie in (0, 1/n_malicious) as a trust weight, "
                    f"got {x!r} with n_malicious {a.n_malicious}"
                    for k, x in enumerate(sw.values) if not 0.0 < x * a.n_malicious < 1.0
                )
    if cfg.output.format not in _FORMATS:
        v.append(f"output.format must be one of {_FORMATS}, got {cfg.output.format!r}")
    return v


def _model_list(cfg: ExperimentConfig) -> list[LikelihoodModel]:
    if cfg.agents.models:
        return [m.build() for m in cfg.agents.models]
    return [cfg.agents.model.build()] * cfg.topology.n_agents


# --- scenario assembly -------------------------------------------------------------

@dataclass(frozen=True)
class Topology:
    """The network part of a scenario: network, Perron vector, adversary centrality."""

    net: Network
    perron: np.ndarray
    adversary_centrality: float


@dataclass(frozen=True)
class Scenario:
    """Runnable assembly: network, Perron vector, agents (forged models bound), plan."""

    net: Network
    perron: np.ndarray
    agents: tuple[AgentConfig, ...]
    plan: AttackPlan | None
    theta_true: Hypothesis
    adversary_centrality: float

    def report(self) -> DeceptionReport:
        """The closed-form deception report of this scenario."""
        return deception_verdict(self.net, self.agents, self.perron)


def build_network(cfg: ExperimentConfig) -> Network:
    """The configured network; one outside the theory (say, not strongly
    connected) raises a ``ConfigValidationError`` listing every violation."""
    t = cfg.topology
    if t.kind == "trust_weighted_complete":
        comb = trust_weighted_complete(t.n_agents, cfg.agents.n_malicious, t.trust_weight)
    else:
        comb = uniform_combination(_adjacency(t), t.self_loops)
    net = make_network(comb, cfg.agents.n_malicious)
    violations = validate_network(net)
    if violations:
        raise ConfigValidationError([f"network {x}" for x in violations])
    return net


def _adjacency(t: TopologySpec) -> np.ndarray:
    if t.kind == "erdos_renyi":
        return erdos_renyi_adjacency(t.n_agents, t.edge_prob, t.seed)
    if t.kind == "star":
        return star_adjacency(t.n_agents, t.hub)
    if t.kind == "complete":
        return complete_adjacency(t.n_agents)
    if t.kind == "ring":
        return ring_adjacency(t.n_agents)
    if t.kind == "edge_list":
        return edge_list_adjacency(t.n_agents, t.edges)
    raise ConfigValidationError([f"unknown topology kind {t.kind!r}"])  # pragma: no cover


def build_plan(
    cfg: ExperimentConfig, net: Network, agents: Sequence[AgentConfig], u: np.ndarray
) -> AttackPlan | None:
    """Assemble the forged models the configured strategy prescribes for the
    honest ``agents``; both constructive strategies forge once per distinct
    input (``forge_once``), as the module docstring sets out."""
    at = cfg.attack
    models = [a.true_model for a in agents]
    malicious = net.malicious_indices
    if at.strategy == "none" or not malicious:
        return None
    eps = at.epsilon
    if at.strategy == "known_divergences":
        # the minimal network knowledge is (s1, s2) plus the adversary's own
        # centrality; defaults are computed from the scenario, but both
        # divergences can be supplied externally in the config.
        s1 = at.s1 if at.s1 is not None else normal_divergence(net, agents, 1, u)
        s2 = at.s2 if at.s2 is not None else normal_divergence(net, agents, 2, u)
        return multi_adversary_known(
            [models[k] for k in malicious],
            [u[k] for k in malicious],
            s1,
            s2,
            eps,
            aggregate_centrality=at.aggregate_centrality,
        )
    if at.strategy == "random":
        rng = np.random.default_rng(at.seed)  # one stream, drawn in adversary order
        forged = [random_attack(models[k], eps, rng) for k in malicious]
        params = {"seed": at.seed}
    else:
        forged = forge_once([(models[k], eps) for k in malicious], unknown_divergence_attack)
        params = {}
    entries = tuple(
        AttackPlanEntry(forged=f, strategy=at.strategy, eps=eps, params=dict(params))
        for f in forged
    )
    return AttackPlan(entries=entries)


def build_topology(cfg: ExperimentConfig) -> Topology:
    """The network part of a scenario, its Perron vector solved once (see
    ``build_network`` for the networks refused)."""
    net = build_network(cfg)
    u = perron_vector(net)
    return Topology(net=net, perron=u, adversary_centrality=adversary_centrality(u, net.roles))


def assemble_scenario(cfg: ExperimentConfig, topology: Topology) -> Scenario:
    """The model part of a scenario on a built ``topology``: agents, and the
    attack plan with its forged models bound to the adversaries."""
    net, u = topology.net, topology.perron
    agents = tuple(
        AgentConfig(role=role, true_model=model)
        for role, model in zip(net.roles, _model_list(cfg))
    )
    plan = build_plan(cfg, net, agents, u)
    if plan is not None:
        forged = dict(zip(net.malicious_indices, (e.forged for e in plan.entries)))
        agents = tuple(
            replace(a, forged_model=forged[k]) if k in forged else a
            for k, a in enumerate(agents)
        )
    return Scenario(
        net=net,
        perron=u,
        agents=agents,
        plan=plan,
        theta_true=Hypothesis.from_name(cfg.experiment.theta_true),
        adversary_centrality=topology.adversary_centrality,
    )


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    """Network, centrality and attack, built once each: the model part
    assembled on the topology part."""
    return assemble_scenario(cfg, build_topology(cfg))


def apply_sweep_value(cfg: ExperimentConfig, value: float) -> ExperimentConfig:
    """New config with the sweep parameter set to ``value``."""
    assert cfg.sweep is not None
    p = cfg.sweep.parameter
    if p == "bsc_p":
        return replace(
            cfg, agents=replace(cfg.agents, model=replace(cfg.agents.model, p=value))
        )
    if p == "epsilon":
        return replace(cfg, attack=replace(cfg.attack, epsilon=value))
    if p == "adversary_centrality":
        return replace(cfg, topology=replace(cfg.topology, trust_weight=value))
    raise ConfigValidationError([f"unknown sweep parameter {p!r}"])


def sweep_scenarios(cfg: ExperimentConfig) -> Callable[[float], Scenario]:
    """Sweep value -> scenario at that value.

    Only an ``adversary_centrality`` sweep moves the network, so only it
    builds a topology per value; ``bsc_p`` and ``epsilon`` sweeps build theirs
    once, here, and assemble each value's models on it.
    """
    if cfg.sweep.parameter == "adversary_centrality":
        return lambda value: build_scenario(apply_sweep_value(cfg, value))
    topology = build_topology(cfg)
    return lambda value: assemble_scenario(apply_sweep_value(cfg, value), topology)
