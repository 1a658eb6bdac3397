"""Scenario configuration.

A :class:`ScenarioConfig` fully determines a synthetic Internet: the
topology (how many ASes per region and role, how they interconnect),
the measurement layer (route collectors and their vantage points), and
the validation layer (who documents their BGP community encodings, how
dirty the scraped databases are).  Build one with
:func:`ScenarioConfig.default` for the paper-scale scenario or
:func:`ScenarioConfig.small` for fast unit tests, then hand it to
:func:`repro.scenario.build_scenario`.

Everything is an explicit field so that the ablation benchmarks
(DESIGN.md §5) can vary one mechanism at a time.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.topology.regions import Region


class ConfigError(ValueError):
    """A config dict failed schema validation.

    Raised with a precise message — the offending key, the expected
    type/range, and the accepted alternatives — so a bad scenario or
    attack spec fails at load time instead of deep inside a generator.
    """


def _canonical(value: Any) -> Any:
    """Recursively convert a config value into plain JSON-able data.

    Enum keys/values become their names, dataclasses become field
    dicts, tuples become lists.  Dict keys are stringified and sorted
    so the resulting JSON is independent of insertion order — the
    property the artifact cache's content addressing rests on.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        converted = {str(_canonical(k)): _canonical(v) for k, v in value.items()}
        return dict(sorted(converted.items()))
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _region_dict(af: float, ap: float, ar: float, l: float, r: float) -> Dict[Region, float]:
    """Shorthand for building per-region value tables."""
    return {
        Region.AFRINIC: af,
        Region.APNIC: ap,
        Region.ARIN: ar,
        Region.LACNIC: l,
        Region.RIPE: r,
    }


@dataclass
class TopologyConfig:
    """Knobs of the synthetic AS-level topology generator."""

    #: Total number of ASes (all regions, all roles).
    n_ases: int = 2500

    #: Fraction of ASes registered in each region.  Calibrated so the
    #: link-class shares come out close to Figure 1 of the paper
    #: (region-internal links dominate, RIPE largest).
    region_shares: Dict[Region, float] = field(
        default_factory=lambda: _region_dict(af=0.045, ap=0.125, ar=0.175, l=0.17, r=0.485)
    )

    #: Number of provider-free Tier-1 (clique) ASes per region.  Real
    #: Tier-1s cluster in the ARIN and RIPE regions.
    clique_per_region: Dict[Region, int] = field(
        default_factory=lambda: {
            Region.ARIN: 8,
            Region.RIPE: 6,
            Region.APNIC: 2,
        }
    )

    #: Number of hypergiants (large content providers) per region.
    hypergiants_per_region: Dict[Region, int] = field(
        default_factory=lambda: {
            Region.ARIN: 9,
            Region.RIPE: 4,
            Region.APNIC: 2,
        }
    )

    #: Fraction of (non-clique, non-hypergiant) ASes per transit tier;
    #: the remainder become stubs.
    large_transit_share: float = 0.02
    mid_transit_share: float = 0.07
    small_transit_share: float = 0.13

    #: Provider-count distribution: probability of an AS having 1, 2, or
    #: 3 providers (multi-homing).
    provider_count_probs: Tuple[float, float, float] = (0.45, 0.4, 0.15)

    #: Probability that a provider is chosen from region Y given the
    #: customer sits in region X.  Rows must sum to 1.
    provider_region_matrix: Dict[Region, Dict[Region, float]] = field(
        default_factory=lambda: {
            Region.AFRINIC: _region_dict(af=0.52, ap=0.03, ar=0.08, l=0.0, r=0.37),
            Region.APNIC: _region_dict(af=0.0, ap=0.62, ar=0.16, l=0.0, r=0.22),
            Region.ARIN: _region_dict(af=0.0, ap=0.03, ar=0.80, l=0.01, r=0.16),
            Region.LACNIC: _region_dict(af=0.0, ap=0.01, ar=0.18, l=0.74, r=0.07),
            Region.RIPE: _region_dict(af=0.01, ap=0.03, ar=0.07, l=0.005, r=0.885),
        }
    )

    #: Probability that a bilateral/IXP peering partner is chosen within
    #: the AS's own region ("keep local traffic local").
    peer_same_region_prob: float = 0.82

    #: Mean number of peers established per transit tier (Poisson).
    peers_mean_small: float = 5.0
    peers_mean_mid: float = 10.0
    peers_mean_large: float = 16.0
    peers_mean_hypergiant: float = 45.0
    peers_mean_stub: float = 0.45

    #: Fraction of large-transit ASes that obtain settlement-free
    #: peering with individual clique members (T1-TR peering links).
    t1_peering_prob_large: float = 0.22
    t1_peering_prob_mid: float = 0.04

    #: Number of special-business stubs (research networks, anycast DNS,
    #: CDNs, cloud on-ramps) that peer directly with clique members —
    #: the ground truth behind the paper's S-T1 discussion.
    special_stub_count: int = 24
    special_stub_t1_peers: Tuple[int, int] = (2, 5)

    #: Number of IXPs per region (scaled by region share).
    ixps_per_1000_ases: float = 4.0

    #: Fraction of multi-AS organisations; extra sibling ASes per org.
    multi_as_org_share: float = 0.045
    max_siblings_per_org: int = 4

    #: Probability that a sibling pair is directly interconnected (S2S
    #: link); such links contaminate inference and validation data.
    sibling_link_prob: float = 0.75

    #: One clique member is designated the "Cogent-like" AS: a large
    #: share of its transit-AS customers buy *partial transit* (routes
    #: exported only to customers, never to peers — community 174:990
    #: in the real world).  Other clique members show the behaviour too,
    #: but rarely.
    cogent_partial_transit_prob: float = 0.45
    clique_partial_transit_prob: float = 0.04

    #: Probability that a transit-to-transit peering link is "hybrid"
    #: (different relationship at different PoPs — Giotsas et al. 2014).
    hybrid_link_prob: float = 0.012

    #: Fraction of ASes whose ASN is 32-bit only (affects AS_TRANS
    #: plumbing realism and the delegation files).
    asn_32bit_share: float = 0.35

    #: Fraction of ASNs transferred between regions after the initial
    #: IANA block assignment (exercises the delegation refinement).
    inter_rir_transfer_share: float = 0.015


@dataclass
class MeasurementConfig:
    """Route collectors and vantage-point placement."""

    #: Number of ASes peering with the route collectors.
    n_vantage_points: int = 160

    #: Relative weight of picking a VP from each region; real collector
    #: ecosystems (RouteViews, RIPE RIS) are RIPE/ARIN-heavy.
    vp_region_weights: Dict[Region, float] = field(
        default_factory=lambda: _region_dict(af=0.02, ap=0.10, ar=0.30, l=0.03, r=0.55)
    )

    #: Relative weight of picking a VP from each role class.  Collector
    #: feeds come overwhelmingly from transit networks.
    vp_role_weights: Dict[str, float] = field(
        default_factory=lambda: {
            # Essentially every Tier-1 feeds RouteViews/RIS, hence the
            # overwhelming clique weight.
            "clique": 200.0,
            "large_transit": 8.0,
            "mid_transit": 4.0,
            "small_transit": 1.5,
            "stub": 0.15,
            "hypergiant": 0.5,
        }
    )

    #: Probability that a VP is a full feeder (exports its whole best
    #: path table); otherwise it exports customer routes only.
    full_feed_prob: float = 0.72

    #: Probability that an AS strips (does not propagate) informational
    #: communities it receives before re-exporting a route.
    community_strip_prob: float = 0.3

    #: Number of additional collection rounds with simulated routing
    #: churn (random link failures) merged into the corpus.  A real
    #: monthly corpus contains paths from many routing states, which is
    #: what gives backup transit links their triplet evidence; a single
    #: converged snapshot systematically lacks it.
    n_churn_rounds: int = 6

    #: Per-link failure probability in each churn round.
    churn_link_failure_prob: float = 0.05


@dataclass
class ValidationConfig:
    """The community-documentation publication model and database dirt."""

    #: Probability that an AS of a given role publicly documents its BGP
    #: community encodings (in IRR remarks / on its website).
    doc_prob_by_role: Dict[str, float] = field(
        default_factory=lambda: {
            "clique": 0.92,
            "large_transit": 0.20,
            "mid_transit": 0.055,
            "small_transit": 0.022,
            "stub": 0.0035,
            "hypergiant": 0.08,
        }
    )

    #: Regional multiplier on the documentation probability.  This is
    #: the mechanism behind Figure 1's coverage row: community
    #: documentation culture is strong around ARIN/RIPE operator
    #: communities and essentially absent in the LACNIC region's data.
    doc_region_multiplier: Dict[Region, float] = field(
        default_factory=lambda: _region_dict(af=0.15, ap=0.35, ar=1.3, l=0.008, r=0.7)
    )

    #: Probability that a documented encoding is stale/wrong, yielding
    #: an incorrect validation label (§6.1 found one such case).
    stale_encoding_prob: float = 0.004

    #: Raw-database dirt injected before cleaning (§4.2 counts these):
    #: relationships claimed with AS_TRANS and with reserved ASNs.
    n_as_trans_entries: int = 15
    n_reserved_asn_entries: int = 112

    #: Extra stale RPSL/WHOIS-derived labels (import/export lines that
    #: no longer match reality).
    rpsl_record_prob: float = 0.06
    rpsl_stale_prob: float = 0.08

    #: Number of relationships reported directly by operators (the
    #: paper's source (i)); sampled uniformly from true links.
    n_direct_reports: int = 60


# ---------------------------------------------------------------------------
# adversarial layer (policy deployments + attack events)
# ---------------------------------------------------------------------------

#: Security policies the registry in :mod:`repro.adversarial.policies`
#: implements.  Kept here (not imported from the registry) so config
#: validation has no dependency on the adversarial package.
SECURITY_POLICY_NAMES: Tuple[str, ...] = (
    "gao_rexford", "rpki", "aspa", "leak_prone",
)

#: How a policy's partial-deployment mask is drawn.
DEPLOYMENT_STRATEGIES: Tuple[str, ...] = ("top_cone", "random", "explicit")


def _check_keys(
    data: Dict[str, Any], allowed: Tuple[str, ...], context: str
) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{context}: unknown key(s) {', '.join(repr(k) for k in unknown)}"
            f" (accepted: {', '.join(allowed)})"
        )


def _check_int(data: Dict[str, Any], key: str, context: str,
               default: int = 0, minimum: int = 0) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"{context}: {key!r} must be an integer, "
            f"got {type(value).__name__} ({value!r})"
        )
    if value < minimum:
        raise ConfigError(
            f"{context}: {key!r} must be >= {minimum}, got {value}"
        )
    return value


def _check_fraction(data: Dict[str, Any], key: str, context: str,
                    default: float = 0.0) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"{context}: {key!r} must be a number in [0, 1], "
            f"got {type(value).__name__} ({value!r})"
        )
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(
            f"{context}: {key!r} must be within [0, 1], got {value}"
        )
    return value


@dataclass
class PolicyDeployment:
    """One security policy and the ASes that deploy it.

    ``strategy`` picks the deployment mask: ``top_cone`` deploys at the
    ``top_n`` ASes by customer-cone size (the "big networks adopt
    first" model), ``random`` at a seeded ``fraction`` of all ASes, and
    ``explicit`` at exactly ``ases``.  Masks are drawn from labelled
    child RNG streams of the scenario seed, so a deployment is as
    reproducible and cache-keyed as everything else in a config.
    """

    policy: str = "rpki"
    strategy: str = "random"
    top_n: int = 0
    fraction: float = 0.0
    ases: Tuple[int, ...] = ()

    @classmethod
    def from_dict(cls, data: Any, context: str = "deployment") -> "PolicyDeployment":
        if not isinstance(data, dict):
            raise ConfigError(
                f"{context}: expected an object, got {type(data).__name__}"
            )
        _check_keys(
            data, ("policy", "strategy", "top_n", "fraction", "ases"), context
        )
        if "policy" not in data:
            raise ConfigError(f"{context}: missing required key 'policy'")
        policy = data["policy"]
        if not isinstance(policy, str):
            raise ConfigError(
                f"{context}: 'policy' must be a string, "
                f"got {type(policy).__name__}"
            )
        strategy = data.get("strategy", "random")
        if not isinstance(strategy, str):
            raise ConfigError(
                f"{context}: 'strategy' must be a string, "
                f"got {type(strategy).__name__}"
            )
        raw_ases = data.get("ases", [])
        if not isinstance(raw_ases, (list, tuple)) or any(
            isinstance(a, bool) or not isinstance(a, int) for a in raw_ases
        ):
            raise ConfigError(
                f"{context}: 'ases' must be a list of integer ASNs"
            )
        deployment = cls(
            policy=policy,
            strategy=strategy,
            top_n=_check_int(data, "top_n", context),
            fraction=_check_fraction(data, "fraction", context),
            ases=tuple(raw_ases),
        )
        deployment.validate(context)
        return deployment

    def validate(self, context: str = "deployment") -> None:
        if self.policy not in SECURITY_POLICY_NAMES:
            raise ConfigError(
                f"{context}: unknown policy {self.policy!r} "
                f"(accepted: {', '.join(SECURITY_POLICY_NAMES)})"
            )
        if self.strategy not in DEPLOYMENT_STRATEGIES:
            raise ConfigError(
                f"{context}: unknown strategy {self.strategy!r} "
                f"(accepted: {', '.join(DEPLOYMENT_STRATEGIES)})"
            )
        if self.strategy == "top_cone" and self.top_n < 1:
            raise ConfigError(
                f"{context}: strategy 'top_cone' needs top_n >= 1, "
                f"got {self.top_n}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError(
                f"{context}: 'fraction' must be within [0, 1], "
                f"got {self.fraction}"
            )
        if self.strategy == "explicit" and not self.ases:
            raise ConfigError(
                f"{context}: strategy 'explicit' needs a non-empty 'ases' list"
            )


@dataclass
class AttackConfig:
    """How many adversarial events pollute the collected corpus.

    * **origin hijacks** — the attacker announces the victim's prefix
      as its own (forged path of length 1);
    * **forged-origin hijacks** — the attacker prepends the victim's
      ASN, evading RPKI origin validation (path ``attacker, victim``);
    * **route leaks** — a leak-prone AS re-exports a peer/provider
      route to all neighbours as if customer-learned (RFC 7908 type 1).
    """

    n_origin_hijacks: int = 0
    n_forged_origin_hijacks: int = 0
    n_route_leaks: int = 0

    @classmethod
    def from_dict(cls, data: Any, context: str = "attack") -> "AttackConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                f"{context}: expected an object, got {type(data).__name__}"
            )
        _check_keys(
            data,
            ("n_origin_hijacks", "n_forged_origin_hijacks", "n_route_leaks"),
            context,
        )
        return cls(
            n_origin_hijacks=_check_int(data, "n_origin_hijacks", context),
            n_forged_origin_hijacks=_check_int(
                data, "n_forged_origin_hijacks", context
            ),
            n_route_leaks=_check_int(data, "n_route_leaks", context),
        )

    def total_events(self) -> int:
        return (
            self.n_origin_hijacks
            + self.n_forged_origin_hijacks
            + self.n_route_leaks
        )

    def validate(self, context: str = "attack") -> None:
        for name in (
            "n_origin_hijacks", "n_forged_origin_hijacks", "n_route_leaks"
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{context}: {name!r} must be an integer")
            if value < 0:
                raise ConfigError(
                    f"{context}: {name!r} must be >= 0, got {value}"
                )


@dataclass
class AdversarialConfig:
    """The adversarial scenario layer: policy deployments + attacks.

    Attached to :class:`ScenarioConfig` as the optional ``adversarial``
    field.  ``None`` (the default) means the honest baseline — and is
    canonicalised *away*, so every pre-existing scenario fingerprint,
    cache key, and golden snapshot is untouched by this layer existing.
    """

    deployments: Tuple[PolicyDeployment, ...] = ()
    attack: AttackConfig = field(default_factory=AttackConfig)

    @classmethod
    def from_dict(cls, data: Any, context: str = "adversarial") -> "AdversarialConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                f"{context}: expected an object, got {type(data).__name__}"
            )
        _check_keys(data, ("deployments", "attack"), context)
        raw_deployments = data.get("deployments", [])
        if not isinstance(raw_deployments, (list, tuple)):
            raise ConfigError(
                f"{context}: 'deployments' must be a list of objects"
            )
        deployments = tuple(
            PolicyDeployment.from_dict(d, f"{context}.deployments[{i}]")
            for i, d in enumerate(raw_deployments)
        )
        attack = AttackConfig.from_dict(
            data.get("attack", {}), f"{context}.attack"
        )
        config = cls(deployments=deployments, attack=attack)
        config.validate(context)
        return config

    def validate(self, context: str = "adversarial") -> None:
        seen = set()
        for i, deployment in enumerate(self.deployments):
            deployment.validate(f"{context}.deployments[{i}]")
            if deployment.policy in seen:
                raise ConfigError(
                    f"{context}: duplicate deployment for policy "
                    f"{deployment.policy!r}"
                )
            seen.add(deployment.policy)
        self.attack.validate(f"{context}.attack")


@dataclass
class ScenarioConfig:
    """Top-level configuration: one object describes one experiment."""

    seed: int = 2018
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    validation: ValidationConfig = field(default_factory=ValidationConfig)

    #: Optional adversarial layer (security-policy deployments and
    #: hijack/leak events polluting the corpus).  ``None`` = honest
    #: baseline; see :meth:`canonical_dict` for the fingerprint rule.
    adversarial: Optional[AdversarialConfig] = None

    #: Snapshot date stamped into generated dataset files; the paper
    #: works on the April 2018 snapshot throughout.
    snapshot: str = "20180401"

    @classmethod
    def default(cls) -> "ScenarioConfig":
        """The paper-scale scenario (April 2018, seed 2018)."""
        return cls()

    @classmethod
    def small(cls, seed: int = 7) -> "ScenarioConfig":
        """A fast, few-hundred-AS scenario for unit tests."""
        topology = TopologyConfig(
            n_ases=320,
            clique_per_region={Region.ARIN: 3, Region.RIPE: 3, Region.APNIC: 1},
            hypergiants_per_region={Region.ARIN: 2, Region.RIPE: 1},
            special_stub_count=6,
            ixps_per_1000_ases=6.0,
        )
        measurement = MeasurementConfig(n_vantage_points=40)
        validation = ValidationConfig(
            n_as_trans_entries=3,
            n_reserved_asn_entries=8,
            n_direct_reports=10,
        )
        return cls(
            seed=seed,
            topology=topology,
            measurement=measurement,
            validation=validation,
        )

    def replace(self, **kwargs) -> "ScenarioConfig":
        """Functional update (e.g. ``cfg.replace(seed=1)``)."""
        return dataclasses.replace(self, **kwargs)

    def canonical_dict(self) -> Dict[str, Any]:
        """A nested plain-data view with deterministic ordering.

        Two configs with equal fields produce byte-identical canonical
        JSON regardless of how their dicts were built; :meth:`fingerprint`
        hashes it into the address scenario ids and cache entries share.

        The optional ``adversarial`` layer is omitted entirely when it
        is ``None``: an honest scenario canonicalises exactly as it did
        before the layer existed, so fingerprints, cache keys, and the
        golden snapshots are all unchanged.  A present adversarial
        layer *is* canonicalised, which gives every distinct policy
        deployment and attack mix its own content address.
        """
        data = _canonical(self)
        if self.adversarial is None:
            data.pop("adversarial", None)
        return data

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON of this config."""
        blob = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        topo = self.topology
        if topo.n_ases < 50:
            raise ValueError("scenario needs at least 50 ASes")
        share_sum = sum(topo.region_shares.values())
        if abs(share_sum - 1.0) > 1e-6:
            raise ValueError(f"region shares sum to {share_sum}, expected 1.0")
        for region, row in topo.provider_region_matrix.items():
            row_sum = sum(row.values())
            if abs(row_sum - 1.0) > 1e-6:
                raise ValueError(
                    f"provider region row for {region} sums to {row_sum}"
                )
        tier_sum = (
            topo.large_transit_share
            + topo.mid_transit_share
            + topo.small_transit_share
        )
        if tier_sum >= 1.0:
            raise ValueError("transit tier shares must leave room for stubs")
        if not 0 <= self.measurement.full_feed_prob <= 1:
            raise ValueError("full_feed_prob must be a probability")
        if self.measurement.n_vantage_points < 1:
            raise ValueError("need at least one vantage point")
        if self.adversarial is not None:
            self.adversarial.validate()


# ---------------------------------------------------------------------------
# canonical-dict reconstruction (the inverse of _canonical)
# ---------------------------------------------------------------------------

def _rebuild_value(tp: Any, value: Any) -> Any:
    """Reverse :func:`_canonical` for one typed value.

    Driven by the dataclass field annotations, so every value shape the
    canonical form emits — enum names, stringified enum dict keys,
    tuples-as-lists, nested dataclasses — maps back to the constructor
    type without per-field special cases.
    """
    origin = typing.get_origin(tp)
    if origin is None:
        if dataclasses.is_dataclass(tp) and isinstance(tp, type):
            return _rebuild_dataclass(tp, value)
        if isinstance(tp, type) and issubclass(tp, enum.Enum):
            return tp[value]
        return value
    args = typing.get_args(tp)
    if origin is typing.Union:
        if value is None:
            return None
        inner = [arg for arg in args if arg is not type(None)]
        return _rebuild_value(inner[0], value)
    if origin is dict:
        key_tp, value_tp = args
        return {
            _rebuild_value(key_tp, key): _rebuild_value(value_tp, item)
            for key, item in value.items()
        }
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_rebuild_value(args[0], item) for item in value)
        return tuple(
            _rebuild_value(arg, item) for arg, item in zip(args, value)
        )
    if origin is list:
        return [_rebuild_value(args[0], item) for item in value]
    return value


def _rebuild_dataclass(cls: type, data: Any) -> Any:
    if not isinstance(data, dict):
        raise ConfigError(
            f"canonical {cls.__name__}: expected an object, "
            f"got {type(data).__name__}"
        )
    hints = typing.get_type_hints(cls)
    kwargs = {
        f.name: _rebuild_value(hints[f.name], data[f.name])
        for f in dataclasses.fields(cls)
        if f.name in data
    }
    return cls(**kwargs)


def config_from_canonical(data: Dict[str, Any]) -> "ScenarioConfig":
    """Rebuild a :class:`ScenarioConfig` from its :meth:`canonical_dict`.

    The exact inverse of canonicalisation: for any valid config,
    ``config_from_canonical(c.canonical_dict()).fingerprint()`` equals
    ``c.fingerprint()``.  The artifact cache uses this to resolve a
    scenario fingerprint recorded in ``meta.json`` back into a buildable
    config — the mechanism by which a multi-worker service process
    warm-admits scenarios that a sibling process built.

    Raises :class:`ConfigError` on malformed data and runs the full
    :meth:`ScenarioConfig.validate` on the result.
    """
    try:
        config = _rebuild_dataclass(ScenarioConfig, data)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"canonical config: {exc!r}") from exc
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"canonical config: {exc}") from exc
    return config
