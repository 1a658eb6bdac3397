"""Security-policy registry and seeded partial-deployment masks.

A **security policy** names a route-filtering behaviour an AS may run
on top of baseline Gao-Rexford export rules.  Policies are registered
in a module-level registry so new ones plug in without touching the
propagation engine; each declares the set of attack kinds it blocks at
*import* — a deploying AS silently drops any attack-sourced offer of a
blocked kind, exactly like an RPKI-invalid announcement being rejected
at the edge.

Built-in policies:

``gao_rexford``
    The baseline.  Blocks nothing; exists so explicit "no extra
    filtering" deployments can be expressed and so registry lookups
    are total.
``rpki``
    Route-origin validation.  An RPKI deployer can check the origin AS
    of an announcement against published ROAs, so it rejects
    forged-*prefix* origin hijacks (``hijack_origin``) where the
    attacker claims to originate the victim's prefix itself.  It
    cannot see anything wrong with a forged-origin hijack (the path
    still ends at the legitimate origin) or a route leak.
``aspa``
    Path validation against provider authorisations.  An ASPA deployer
    detects hops that violate the authorised provider sets: the fake
    attacker–victim edge of a forged-origin hijack
    (``hijack_forged``) and the valley created by a route leak
    (``leak``).
``leak_prone``
    Not a filter: marks ASes with sloppy export configs.  Its
    deployment mask seeds *leaker selection* — when present, route
    leaks originate only from ASes in the mask.

Deployment is partial and seeded.  A
:class:`repro.config.PolicyDeployment` names a strategy:

* ``top_cone`` — the ``top_n`` ASes by customer cone size (ties by
  lower ASN), modelling "the big transit providers deploy first";
* ``random`` — each AS deploys independently with probability
  ``fraction``, drawn from the labelled stream
  ``adversarial.deploy.<policy>`` of the scenario seed;
* ``explicit`` — exactly the listed ASes.

Masks resolve to sorted ASN tuples, so deployment state is
deterministic and cache-keyable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Set, Tuple

from repro.config import PolicyDeployment, SECURITY_POLICY_NAMES
from repro.utils.rng import child_rng

if TYPE_CHECKING:
    from repro.config import AdversarialConfig
    from repro.topology.generator import Topology

#: The attack kinds understood by policy ``blocks`` declarations.
ATTACK_KINDS = ("hijack_origin", "hijack_forged", "leak")


@dataclass(frozen=True)
class SecurityPolicy:
    """One pluggable per-AS security policy.

    ``blocks`` is the set of attack kinds a deploying AS filters at
    import; an empty set means the policy never drops routes (it may
    still carry behavioural meaning, like ``leak_prone``).
    """

    name: str
    blocks: FrozenSet[str]
    description: str

    def __post_init__(self) -> None:
        unknown = sorted(set(self.blocks) - set(ATTACK_KINDS))
        if unknown:
            raise ValueError(
                f"policy {self.name!r} blocks unknown attack kinds: "
                f"{unknown}"
            )


_REGISTRY: Dict[str, SecurityPolicy] = {}


def register_policy(policy: SecurityPolicy) -> SecurityPolicy:
    """Add a policy to the registry (idempotent for identical entries).

    Config validation accepts exactly the names in
    :data:`repro.config.SECURITY_POLICY_NAMES`; registering a policy
    under a new name also requires adding the name there, which keeps
    the schema errors precise.
    """
    existing = _REGISTRY.get(policy.name)
    if existing is not None and existing != policy:
        raise ValueError(
            f"policy {policy.name!r} already registered with different "
            "semantics"
        )
    _REGISTRY[policy.name] = policy
    return policy


def get_policy(name: str) -> SecurityPolicy:
    """Look up a registered policy by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown security policy {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None


def registered_policies() -> List[SecurityPolicy]:
    """All registered policies in name order."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


register_policy(SecurityPolicy(
    name="gao_rexford",
    blocks=frozenset(),
    description=(
        "Baseline Gao-Rexford export rules with no additional route "
        "filtering."
    ),
))
register_policy(SecurityPolicy(
    name="rpki",
    blocks=frozenset({"hijack_origin"}),
    description=(
        "Route-origin validation: rejects announcements whose origin "
        "AS contradicts the prefix's ROA (forged-prefix origin "
        "hijacks)."
    ),
))
register_policy(SecurityPolicy(
    name="aspa",
    blocks=frozenset({"hijack_forged", "leak"}),
    description=(
        "Provider-authorisation path validation: rejects paths with "
        "unauthorised hops — forged-origin hijack edges and route-leak "
        "valleys."
    ),
))
register_policy(SecurityPolicy(
    name="leak_prone",
    blocks=frozenset(),
    description=(
        "Marks ASes with sloppy export filters; route leaks originate "
        "from this deployment mask when it is present."
    ),
))

# Every name the config schema admits must resolve in the registry.
assert all(name in _REGISTRY for name in SECURITY_POLICY_NAMES)


def resolve_deployment(
    deployment: PolicyDeployment, topology: "Topology", seed: int
) -> Tuple[int, ...]:
    """The sorted ASN tuple a single deployment resolves to.

    ``random`` masks draw from the labelled child stream
    ``adversarial.deploy.<policy>`` so each policy's mask is
    independent of the others and of the attack-event stream.
    """
    asns = topology.graph.asns()
    if deployment.strategy == "top_cone":
        cones = topology.graph.customer_cone_sizes()
        ranked = sorted(asns, key=lambda a: (-cones.get(a, 0), a))
        chosen = ranked[: deployment.top_n]
    elif deployment.strategy == "random":
        rng = child_rng(seed, f"adversarial.deploy.{deployment.policy}")
        mask = rng.random(len(asns)) < deployment.fraction
        chosen = [asn for asn, hit in zip(asns, mask) if hit]
    else:  # "explicit" — validated by PolicyDeployment.validate
        known = set(asns)
        unknown = sorted(set(deployment.ases) - known)
        if unknown:
            raise ValueError(
                f"explicit deployment of {deployment.policy!r} names "
                f"ASes not in the topology: {unknown[:5]}"
            )
        chosen = sorted(set(deployment.ases))
    return tuple(sorted(chosen))


def resolve_deployments(
    adversarial: "AdversarialConfig", topology: "Topology", seed: int
) -> Dict[str, Tuple[int, ...]]:
    """Resolve every deployment of a scenario to its ASN mask.

    Returns ``{policy name: sorted ASN tuple}``.  Duplicate policies
    are rejected upstream by ``AdversarialConfig.validate``.
    """
    return {
        deployment.policy: resolve_deployment(deployment, topology, seed)
        for deployment in adversarial.deployments
    }


def blocked_ases(
    deployments: Dict[str, Tuple[int, ...]], kind: str
) -> Set[int]:
    """The ASes that filter attack-sourced routes of ``kind``.

    The union of every resolved deployment mask whose policy blocks
    that attack kind.
    """
    blocked: Set[int] = set()
    for name in sorted(deployments):
        if kind in get_policy(name).blocks:
            blocked.update(deployments[name])
    return blocked
