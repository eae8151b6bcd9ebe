"""Experiment configuration: YAML schema, validation, and scenario assembly.

One canonical schema (all keys optional unless noted):

.. code-block:: yaml

    topology:                    # each kind takes kind, n_agents and the keys marked
      kind: erdos_renyi          # erdos_renyi | star | complete | ring |
                                 # edge_list | trust_weighted_complete
      n_agents: 15               # required; each agent has a self-loop
      edge_prob: 0.25            # erdos_renyi
      seed: 28                   # erdos_renyi rejection sampling
      hub: 0                     # star
      edges: [[0, 1], [1, 2]]    # edge_list
      trust_weight: 0.05         # trust_weighted_complete
    agents:
      n_malicious: 4             # adversaries are agents 0 .. n_malicious-1
      model: {kind: bsc, p: 0.8} # shared model, or
      models:                    # one per agent
        - {kind: rows, theta1: [0.8, 0.2], theta2: [0.55, 0.45]}
    attack:                      # each strategy takes strategy and the keys marked
      strategy: unknown_divergences   # known_divergences | random | none
      epsilon: 5.0e-3            # every strategy but none
      s1: null                   # known_divergences: externally supplied
      s2: null                   #   (default: computed from the scenario)
      aggregate_centrality: false  # known_divergences
      seed: 0                    # random
    experiment:
      theta_true: theta1         # theta1 | theta2, spelled exactly so
      horizon: 2000
      seeds: [0]                 # distinct, each >= 0
      stride: 1
      initial_belief_theta1: 0.5 # scalar or per-agent list, strictly in (0,1)
    sweep:
      parameter: bsc_p           # bsc_p | epsilon | adversary_centrality, each
                                 # setting one field (``_SWEEP_FIELDS``) that
                                 # its section's kind reads
      grid: {start: 0.55, stop: 0.95, step: 0.01}   # never past stop; or
                                 # values: [...], strictly monotone
    output:
      directory: out
      format: structured         # structured | tabular

The section dataclasses below are the only place a key's name, type and
default are written; parsing and the echo both walk them. An int field
needs an integer (``10.7`` is refused, not truncated); a bool field needs
``true`` or ``false``; a float field also takes an integer, or a number
written as text (YAML 1.1 reads ``1e-3`` as a string); a list field needs a
list, and an edge exactly two agents; null selects the default; an unknown
key is refused, as is a key of a topology, a model or an attack that its kind
does not read (``_KINDS``), and so a sweep of a field that moves nothing. Loading
collects *every* violation, each naming its path, before failing; the entries
of one list field (``sweep.values``, ``topology.edges``, a per-agent belief
list, any list refused entry by entry for its type) list at most
``_VIOLATIONS_PER_FIELD`` violations and then ``<field>: ... and K more``. The
echo materializes all defaults, so a result file records the exact knobs
that produced it.

A scenario is assembled in two parts. The topology part (``build_topology``:
the network, validated, and its Perron vector) reads only ``topology`` and
``agents.n_malicious``, and its roles are the one record of the adversaries.
The model part (``assemble_scenario``) forges the attack plan from the true
models, then builds each agent once, an adversary with its forged model. The
scenario sums the adversary centrality from the Perron vector when asked.
``build_scenario`` is the two in turn.
``_SWEEP_FIELDS`` maps each sweep parameter to the one field it sets, and a
sweep's value -> scenario builder (``sweep_scenarios``) builds the topology
per value only when that field lies under ``topology``
(``adversary_centrality``), and once otherwise, grid and theory root alike.
A topology sweep assembles the model part once as well, unless its plan reads
the Perron vector (``known_divergences``), and sets each value's network and
Perron vector in it.
The attack plan forges once per distinct input
(``attacks.forge_once``): per distinct model under ``unknown_divergences``,
and per distinct (model, effective centrality) under ``known_divergences``,
where the effective centrality is the summed adversary centrality with
``aggregate_centrality`` and the adversary's own otherwise. ``random``
draws one stream in adversary order.

Configs are parsed and echoed by libyaml when the installed PyYAML has it,
and by PyYAML's pure-Python classes otherwise. Both share one constructor,
resolver and representer, so they give the same data and the same bytes.

Parsing, validation and the echo need only this module, ``probability``,
``errors`` and PyYAML. The scenario builders (``build_network``,
``build_plan``, ``build_topology``, ``assemble_scenario`` and the
``Scenario`` methods) import numpy and the network, learning, attack and
analysis modules when they are called, so a config tool or a refused config
never loads them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import reduce
from types import UnionType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Sequence,
    get_args,
    get_origin,
    get_type_hints,
)

import yaml

from .errors import ConfigParseError, ConfigValidationError, SocialLearnError
from .probability import Hypothesis, LikelihoodModel, bsc_model, make_model

if TYPE_CHECKING:
    import numpy as np

    from .analysis import DeceptionReport
    from .attacks import AttackPlan
    from .learning import AgentConfig
    from .network import Network

#: libyaml when PyYAML was built with it; the pure classes are the fallback
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

#: the field each sweep parameter sets, as a path of attribute names
_SWEEP_FIELDS = {
    "bsc_p": ("agents", "model", "p"),
    "epsilon": ("attack", "epsilon"),
    "adversary_centrality": ("topology", "trust_weight"),
}
_FORMATS = ("structured", "tabular")
#: most points a ``sweep.grid`` expands to; each point runs every seed
_GRID_POINTS = 10_000
#: most violations listed for the entries of one list field; a count stands for the rest
_VIOLATIONS_PER_FIELD = 10


@dataclass(frozen=True)
class TopologySpec:
    kind: str = "complete"
    n_agents: int = 2
    edge_prob: float = 0.3
    seed: int = 0
    hub: int = 0
    edges: tuple[tuple[int, int], ...] = ()
    trust_weight: float = 0.05


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
        """Echo of every knob that the sections' kinds read, defaults materialized."""
        d = _echo(self)
        d["agents"]["models"] = d["agents"]["models"] or None  # no per-agent list echoes null
        return d

    def echo(self) -> str:
        return yaml.dump(self.to_dict(), Dumper=_DUMPER, sort_keys=True)


#: per section with a kind: the field naming it, and the keys each kind reads,
#: the only ones the section takes and echoes (all of them for an unknown kind)
_KINDS = {
    TopologySpec: ("kind", {
        "erdos_renyi": ("kind", "n_agents", "edge_prob", "seed"),
        "star": ("kind", "n_agents", "hub"),
        "complete": ("kind", "n_agents"),
        "ring": ("kind", "n_agents"),
        "edge_list": ("kind", "n_agents", "edges"),
        "trust_weighted_complete": ("kind", "n_agents", "trust_weight"),
    }),
    ModelSpec: ("kind", {"bsc": ("kind", "p"), "rows": ("kind", "theta1", "theta2")}),
    AttackSpec: ("strategy", {
        "none": ("strategy",),
        "unknown_divergences": ("strategy", "epsilon"),
        "known_divergences": ("strategy", "epsilon", "s1", "s2", "aggregate_centrality"),
        "random": ("strategy", "epsilon", "seed"),
    }),
}

#: field name -> type per section, resolved once rather than on every load
_HINTS = {
    cls: get_type_hints(cls)
    for cls in (TopologySpec, ModelSpec, AgentsSpec, AttackSpec, ExperimentSpec,
                SweepSpec, OutputSpec, ExperimentConfig)
}


def _keys(section: Any) -> Sequence[str]:
    """The keys a section reads and echoes: those of its kind (``_KINDS``)."""
    everything = tuple(_HINTS[type(section)])
    if type(section) not in _KINDS:
        return everything
    name, kinds = _KINDS[type(section)]
    return kinds.get(getattr(section, name), everything)


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
    entries: list[str] = []
    items = tuple(
        _coerce(t, x, f"{path}[{i}]", entries) for i, (t, x) in enumerate(zip(args, value))
    )
    violations.extend(_capped(path, entries))
    return items


def _refuse(path: str, wanted: str, value: Any, violations: list[str]) -> None:
    violations.append(f"{path} must be {wanted}, got {value!r}")
    return None


def _capped(path: str, violations: Iterable[str]) -> list[str]:
    """The first ``_VIOLATIONS_PER_FIELD`` of the list field ``path``'s
    violations, then one line counting the rest."""
    violations = list(violations)
    more = len(violations) - _VIOLATIONS_PER_FIELD
    if more <= 0:
        return violations
    return violations[:_VIOLATIONS_PER_FIELD] + [f"{path}: ... and {more} more"]


def _listed(values: list) -> str:
    """``values`` as a list, its first ``_VIOLATIONS_PER_FIELD`` then a count of the rest."""
    more = len(values) - _VIOLATIONS_PER_FIELD
    return f"{values}" if more <= 0 else f"{values[:_VIOLATIONS_PER_FIELD]} (and {more} more)"


def _expand_grid(sweep: dict, violations: list[str]) -> dict:
    """``sweep`` with its ``grid: {start, stop, step}`` shorthand turned into ``values``.

    The point count is worked out before any value is built, and a grid of
    more than ``_GRID_POINTS`` points is refused. No point lies past ``stop``.
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
    # the tolerance keeps a point that rounding puts a hair short of stop
    count = math.floor(max(span, -1.0) + 1e-9) + 1
    sweep["values"] = [round(start + i * step, 12) for i in range(count)]
    return sweep


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Range and cross-field checks on a typed config; returns every violation."""
    v: list[str] = []
    t, a = cfg.topology, cfg.agents
    if t.n_agents < 2:
        v.append(f"topology.n_agents must be >= 2, got {t.n_agents!r}")
    if t.kind == "erdos_renyi" and not 0.0 < t.edge_prob <= 1.0:
        v.append(f"topology.edge_prob must lie in (0, 1], got {t.edge_prob!r}")
    if t.kind == "trust_weighted_complete":
        v.extend(_out_of_range(
            cfg, _SWEEP_FIELDS["adversary_centrality"], lambda x: 0.0 < x * a.n_malicious < 1.0,
            f"must lie in (0, 1/n_malicious), with n_malicious >= 1 (here {a.n_malicious})",
        ))
    if t.kind == "star" and not 0 <= t.hub < t.n_agents:
        v.append(f"topology.hub must index one of the {t.n_agents} agents, got {t.hub!r}")
    if t.kind == "edge_list":
        v.extend(_capped("topology.edges", (
            f"topology.edges[{e}] must join two of the {t.n_agents} agents, got [{i}, {j}]"
            for e, (i, j) in enumerate(t.edges)
            if not (0 <= i < t.n_agents and 0 <= j < t.n_agents)
        )))
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
    at = cfg.attack
    for where, section in [("topology", t), *per_agent, *shared, ("attack", at)]:
        name, kinds = _KINDS[type(section)]
        kind = getattr(section, name)
        if kind not in kinds:
            v.append(f"{where}.{name} must be one of {tuple(kinds)}, got {kind!r}")
    models: list[LikelihoodModel] = []
    if not v:
        for where, m in per_agent or shared:  # the specs the agents' models come from
            try:
                models.append(m.build())
            except SocialLearnError as exc:  # a bsc p outside (0, 1), rows that are no PMF
                v.append(f"{where}: {exc}")
        if v:
            models = []
    min_alphabet = min((m.alphabet_size for m in models), default=0)
    if min_alphabet and at.strategy != "none":
        v.extend(_out_of_range(
            cfg, _SWEEP_FIELDS["epsilon"], lambda x: 0.0 < x < 1.0 / min_alphabet,
            f"must lie in (0, 1/{min_alphabet}) for the smallest alphabet",
        ))
    for name, s in (("s1", at.s1), ("s2", at.s2)):
        if s is not None and (not math.isfinite(s) or s < 0.0):
            v.append(f"attack.{name} must be finite and >= 0, got {s!r}")
    e = cfg.experiment
    for name, seed in (("topology.seed", t.seed), ("attack.seed", at.seed)):
        if seed < 0:
            v.append(f"{name} must be >= 0, got {seed!r}")
    negative = [s for s in e.seeds if s < 0]
    if negative:
        v.append(f"experiment.seeds must be >= 0, got {_listed(negative)}")
    if e.theta_true not in ("theta1", "theta2"):  # the names ``Hypothesis.from_name`` maps
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
        v.append(f"experiment.seeds must be distinct, got {_listed(repeated)} more than once")
    init, path = e.initial_belief_theta1, "experiment.initial_belief_theta1"
    beliefs = {path: init}
    if isinstance(init, tuple):
        if len(init) != t.n_agents:
            v.append(f"{path} list must have one entry per agent ({t.n_agents}), got {len(init)}")
        beliefs = {f"{path}[{i}]": b for i, b in enumerate(init)}
    v.extend(_capped(path, (
        f"{where} must lie strictly inside (0, 1), got {b!r}"
        for where, b in beliefs.items() if not 0.0 < b < 1.0
    )))
    sw = cfg.sweep
    if sw is not None:
        v.extend(_sweep_parameter_violations(cfg))
        if not sw.values:
            v.append("sweep.values must be non-empty")
        if sw.parameter == "bsc_p":  # stricter than bsc_model's (0, 1): p = 0.5 is uninformative
            v.extend(_capped("sweep.values", (
                f"sweep.values[{k}] must lie in (0.5, 1) for bsc_p, got {x!r}"
                for k, x in enumerate(sw.values) if not 0.5 < x < 1.0
            )))
        # the crossing interpolates between adjacent listed values, once all are in range
        if not any(x.startswith("sweep.values[") for x in v):
            v.extend(_monotone_break(sw.values))
    if cfg.output.format not in _FORMATS:
        v.append(f"output.format must be one of {_FORMATS}, got {cfg.output.format!r}")
    return v


def _out_of_range(
    cfg: ExperimentConfig, path: Sequence[str], ok: Callable[[float], bool], rule: str
) -> list[str]:
    """``<where> <rule>, got <value>`` for each value the field at ``path`` takes
    that is not ``ok``: its own, then each sweep value when the sweep sets it."""
    taken = [(".".join(path), reduce(getattr, path, cfg))]
    if cfg.sweep is not None and _SWEEP_FIELDS.get(cfg.sweep.parameter) == path:
        taken += [(f"sweep.values[{k}]", x) for k, x in enumerate(cfg.sweep.values)]
    return _capped("sweep.values", (f"{w} {rule}, got {x!r}" for w, x in taken if not ok(x)))


def _sweep_parameter_violations(cfg: ExperimentConfig) -> list[str]:
    """A violation when the sweep parameter is unknown, or when the field it sets
    moves nothing: its section is missing or of a kind that does not read it, or
    no adversary reads it."""
    parameter = cfg.sweep.parameter
    if parameter not in _SWEEP_FIELDS:
        return [f"sweep.parameter must be one of {tuple(_SWEEP_FIELDS)}, got {parameter!r}"]
    *head, last = path = _SWEEP_FIELDS[parameter]
    where, section = ".".join(head), reduce(getattr, head, cfg)
    sets = f"sweep.parameter {parameter} sets {'.'.join(path)}"
    if section is None:
        return [f"{sets}, but {where} is not given"]
    if last not in _keys(section):
        name = _KINDS[type(section)][0]
        return [f"{sets}, which {where}.{name} {getattr(section, name)!r} does not read"]
    if path[0] == "attack" and cfg.agents.n_malicious == 0:
        return [f"{sets}, which no adversary reads: agents.n_malicious is 0"]
    return []


def _monotone_break(values: Sequence[float]) -> list[str]:
    """A violation at the first value that breaks the strict order the first
    two set; none for a strictly increasing or strictly decreasing list."""
    up = len(values) > 1 and values[1] > values[0]
    for k in range(1, len(values)):
        if not (values[k] > values[k - 1] if up else values[k] < values[k - 1]):
            return [
                f"sweep.values[{k}] must keep the list strictly increasing or strictly "
                f"decreasing, got {values[k]!r} after {values[k - 1]!r}"
            ]
    return []


def _model_list(cfg: ExperimentConfig) -> list[LikelihoodModel]:
    if cfg.agents.models:
        return [m.build() for m in cfg.agents.models]
    return [cfg.agents.model.build()] * cfg.topology.n_agents


# --- scenario assembly -------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """Runnable assembly: network, Perron vector, agents (forged models bound), plan."""

    net: Network
    perron: np.ndarray
    agents: tuple[AgentConfig, ...]
    plan: AttackPlan | None
    theta_true: Hypothesis

    @property
    def adversary_centrality(self) -> float:
        """The summed Perron centrality of the adversaries."""
        from .network import adversary_centrality

        return adversary_centrality(self.perron, self.net.roles)

    def report(self) -> DeceptionReport:
        """The closed-form deception report of this scenario."""
        from .analysis import deception_verdict

        return deception_verdict(self.net, self.agents, self.perron)


def build_network(cfg: ExperimentConfig) -> Network:
    """The configured network; one outside the theory (say, not strongly
    connected) raises a ``ConfigValidationError`` listing every violation.

    An adjacency builder is given ``n_agents`` and then the other keys its
    kind reads (``_KINDS``), each by its name.
    """
    from . import network

    t = cfg.topology
    if t.kind == "trust_weighted_complete":
        comb = network.trust_weighted_complete(t.n_agents, cfg.agents.n_malicious, t.trust_weight)
    else:
        adjacency = {
            "erdos_renyi": network.erdos_renyi_adjacency,
            "star": network.star_adjacency,
            "complete": network.complete_adjacency,
            "ring": network.ring_adjacency,
            "edge_list": network.edge_list_adjacency,
        }[t.kind]
        read = {key: getattr(t, key) for key in _keys(t)[2:]}  # after kind and n_agents
        comb = network.uniform_combination(adjacency(t.n_agents, **read))
    net = network.make_network(comb, cfg.agents.n_malicious)
    violations = network.validate_network(net)
    if violations:
        raise ConfigValidationError([f"network {x}" for x in violations])
    return net


def build_plan(
    cfg: ExperimentConfig, net: Network, models: Sequence[LikelihoodModel], u: np.ndarray
) -> AttackPlan | None:
    """The forged models the configured strategy prescribes for the adversaries
    of ``net``, agent ``k``'s true model being ``models[k]``; both constructive
    strategies forge once per distinct input (``forge_once``)."""
    import numpy as np

    from .analysis import normal_divergence
    from .attacks import (
        AttackPlan,
        AttackPlanEntry,
        forge_once,
        multi_adversary_known,
        random_attack,
        unknown_divergence_attack,
    )

    at = cfg.attack
    malicious = net.malicious_indices
    if at.strategy == "none" or not malicious:
        return None
    eps = at.epsilon
    if at.strategy == "known_divergences":
        # the minimal network knowledge is (s1, s2) plus the adversary's own
        # centrality; defaults are computed from the scenario, but both
        # divergences can be supplied externally in the config.
        s1 = at.s1 if at.s1 is not None else normal_divergence(net, models, 1, u)
        s2 = at.s2 if at.s2 is not None else normal_divergence(net, models, 2, u)
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


def build_topology(cfg: ExperimentConfig) -> tuple[Network, np.ndarray]:
    """The network part of a scenario: the network and its Perron vector,
    solved once (see ``build_network`` for the networks refused)."""
    from .network import perron_vector

    net = build_network(cfg)
    return net, perron_vector(net)


def assemble_scenario(cfg: ExperimentConfig, net: Network, u: np.ndarray) -> Scenario:
    """The model part of a scenario on a built network ``net`` with Perron
    vector ``u``: the attack plan, and each agent built once, its forged
    model (an adversary's, under a plan) bound."""
    from .learning import AgentConfig

    models = _model_list(cfg)
    plan = build_plan(cfg, net, models, u)
    entries = () if plan is None else plan.entries
    forged = dict(zip(net.malicious_indices, (e.forged for e in entries)))
    agents = tuple(AgentConfig(m, forged.get(k)) for k, m in enumerate(models))
    return Scenario(
        net=net,
        perron=u,
        agents=agents,
        plan=plan,
        theta_true=Hypothesis.from_name(cfg.experiment.theta_true),
    )


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    """Network, centrality and attack, built once each: the model part
    assembled on the topology part."""
    return assemble_scenario(cfg, *build_topology(cfg))


def apply_sweep_value(cfg: ExperimentConfig, value: float) -> ExperimentConfig:
    """New config with the field the sweep parameter sets (``_SWEEP_FIELDS``)
    at ``value``."""
    return _replaced(cfg, _SWEEP_FIELDS[cfg.sweep.parameter], value)


def _replaced(section: Any, path: Sequence[str], value: Any) -> Any:
    """``section`` with the field at the attribute ``path`` set to ``value``."""
    head, *rest = path
    inner = _replaced(getattr(section, head), rest, value) if rest else value
    return replace(section, **{head: inner})


def sweep_scenarios(cfg: ExperimentConfig) -> Callable[[float], Scenario]:
    """Sweep value -> scenario at that value.

    Only a field under ``topology`` moves the network, so only a sweep of
    one builds the network per value; any other sweep builds it once, here,
    and assembles each value's models on it. A topology sweep leaves the
    models and the adversaries as they are, so its model part changes with
    the value only when the plan reads the Perron vector
    (``known_divergences``); under any other strategy it is assembled once,
    on the first value's topology, and each value sets its own network and
    Perron vector in it.
    """
    if _SWEEP_FIELDS[cfg.sweep.parameter][0] != "topology":
        topology = build_topology(cfg)
        return lambda value: assemble_scenario(apply_sweep_value(cfg, value), *topology)
    if cfg.attack.strategy == "known_divergences":
        return lambda value: build_scenario(apply_sweep_value(cfg, value))
    assembled: list[Scenario] = []

    def scenario_at(value: float) -> Scenario:
        net, u = build_topology(apply_sweep_value(cfg, value))
        if not assembled:
            assembled.append(assemble_scenario(cfg, net, u))
        return replace(assembled[0], net=net, perron=u)

    return scenario_at
