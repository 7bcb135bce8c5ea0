//! Seeded populations for the workloads. The program under test receives
//! only what these builders generate; every random choice is drawn from
//! a SplitMix64 stream keyed by the run seed and the round number.

use std::collections::BTreeMap;

use trust_vo_credential::{Attribute, CredentialAuthority, TimeRange, Timestamp};
use trust_vo_negotiation::Party;
use trust_vo_ontology::{Concept, Ontology};
use trust_vo_policy::{DisclosurePolicy, PolicySet, Resource, Term};
use trust_vo_vo::{Contract, ResourceDescription, Role, ServiceProvider, ServiceRegistry};

/// SplitMix64: a small, well-mixed deterministic stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams never share state.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The instant every world's credentials are valid from.
pub fn epoch() -> Timestamp {
    Timestamp::from_ymd_hms(2009, 6, 1, 0, 0, 0)
}

/// A short tag that makes every name, key and credential of one round's
/// world distinct from those of every other round and seed, so no round
/// starts with another round's signatures already in the verified cache.
fn tag(seed: u64, round: u64) -> String {
    format!("{:08x}", Rng::new(seed, round).next() as u32)
}

/// The formation workloads' population: one contract role per applicant,
/// each guarded by an interlocking disclosure chain of `depth` credentials
/// alternating between applicant and initiator, with failing alternatives
/// before the real policy at every level (the E10 shape).
pub struct JoinWorld {
    /// Contract with every role; a formation takes a window of it.
    pub contract: Contract,
    /// The VO initiator, holding the odd levels of every chain.
    pub initiator: ServiceProvider,
    /// The applicants by name.
    pub providers: BTreeMap<String, ServiceProvider>,
    /// One published capability per applicant.
    pub registry: ServiceRegistry,
    /// `(role, applicant built to satisfy it)`, in contract order.
    pub roles: Vec<(String, String)>,
}

impl JoinWorld {
    /// The contract of formation `k`: `roles_per_vo` consecutive roles of
    /// the population (wrapping), under a VO name of its own.
    pub fn formation_contract(&self, k: usize, roles_per_vo: usize) -> Contract {
        let n = self.roles.len();
        let first = (k * roles_per_vo) % n;
        let mut contract = Contract::new(format!("{}-vo{k}", self.contract.vo_name), "benchmark");
        for j in 0..roles_per_vo {
            let (role, _) = &self.roles[(first + j) % n];
            contract = contract.with_role(self.contract.role(role).expect("role").clone());
            let policies = self.contract.policies_for(role).expect("role policies");
            contract.set_role_policies(role, policies.clone());
        }
        contract
    }

    /// The applicant built for `role`.
    pub fn applicant_for(&self, role: &str) -> &str {
        &self.roles.iter().find(|(r, _)| r == role).expect("role").1
    }

    /// Parties registered with the TN service: one controller identity
    /// per role plus every applicant.
    pub fn registered_parties(&self) -> usize {
        self.roles.len() + self.providers.len()
    }
}

/// Build the chain population for `(seed, round)`: `applicants` roles,
/// chains of `depth` levels, 2 alternatives per initiator level and 2 or
/// 3 (seeded) per applicant level.
pub fn join_world(seed: u64, round: u64, applicants: usize, depth: usize) -> JoinWorld {
    let tag = tag(seed, round);
    let mut rng = Rng::new(seed, round.wrapping_add(0x4A01));
    let mut ca = CredentialAuthority::new(format!("VoCA-{tag}"));
    let window = TimeRange::one_year_from(epoch());
    let initiator_name = format!("Initiator-{tag}");
    let mut initiator = Party::new(&initiator_name);
    initiator.trust_root(ca.public_key());
    let app_type = |level: usize| format!("AppL{level}");
    let init_type = |level: usize| format!("InitL{level}");
    let type_name = |level: usize| {
        if level.is_multiple_of(2) {
            app_type(level)
        } else {
            init_type(level)
        }
    };
    // Level `level` of `owner`'s half: protected by the next level (held
    // by the other side) behind `alternatives - 1` failing rules, or
    // freely deliverable at the bottom of the chain.
    let protect =
        |owner: &mut Party, prefix: &str, level: usize, alternatives: usize, cred: &str| {
            let resource = Resource::credential(cred);
            if level + 1 < depth {
                for alt in 0..alternatives - 1 {
                    owner.policies.add(DisclosurePolicy::rule(
                        format!("{prefix}{level}-fail{alt}"),
                        resource.clone(),
                        vec![Term::of_type(format!("Missing{prefix}{level}x{alt}"))],
                    ));
                }
                owner.policies.add(DisclosurePolicy::rule(
                    format!("{prefix}{level}-real"),
                    resource,
                    vec![Term::of_type(type_name(level + 1))],
                ));
            } else {
                owner.policies.add(DisclosurePolicy::deliv(
                    format!("{prefix}{level}-deliv"),
                    resource,
                ));
            }
        };
    for level in (1..depth).step_by(2) {
        let cred = ca
            .issue(
                &init_type(level),
                &initiator_name,
                initiator.keys.public,
                vec![Attribute::new("Level", level as i64)],
                window,
            )
            .expect("open schema");
        initiator.profile.add(cred);
        protect(&mut initiator, "ip", level, 2, &init_type(level));
    }

    let mut contract = Contract::new(format!("Vo-{tag}"), "benchmark population");
    let mut providers = BTreeMap::new();
    let mut registry = ServiceRegistry::new();
    let mut roles = Vec::with_capacity(applicants);
    for i in 0..applicants {
        let name = format!("Applicant{i:03}-{tag}");
        let mut applicant = Party::new(&name);
        applicant.trust_root(ca.public_key());
        for level in (0..depth).step_by(2) {
            let cred = ca
                .issue(
                    &app_type(level),
                    &name,
                    applicant.keys.public,
                    vec![
                        Attribute::new("Level", level as i64),
                        Attribute::new("Serial", rng.next() as i64 & 0xFFFF_FFFF),
                    ],
                    window,
                )
                .expect("open schema");
            applicant.profile.add(cred);
            let alternatives = 2 + rng.below(2);
            protect(&mut applicant, "ap", level, alternatives, &app_type(level));
        }
        let role = format!("Role{i:03}");
        let capability = format!("cap{i:03}-{tag}");
        contract = contract.with_role(Role::new(&role, &capability, "chain admission"));
        let mut policies = PolicySet::new();
        policies.add(DisclosurePolicy::rule(
            format!("vo-{i}"),
            Resource::service("VoMembership"),
            vec![Term::of_type(app_type(0))],
        ));
        contract.set_role_policies(&role, policies);
        registry.publish(ResourceDescription::new(&name, &capability, "soap", 0.9));
        providers.insert(name.clone(), ServiceProvider::new(applicant));
        roles.push((role, name));
    }
    JoinWorld {
        contract,
        initiator: ServiceProvider::new(initiator),
        providers,
        registry,
        roles,
    }
}

/// Words concept names are made of (CamelCase), and a disjoint keyword
/// vocabulary, so every concept has exactly six feature tokens.
const WORDS: [&str; 40] = [
    "Thermal",
    "Stress",
    "Wing",
    "Fuel",
    "Avionics",
    "Composite",
    "Fatigue",
    "Load",
    "Flutter",
    "Engine",
    "Turbine",
    "Blade",
    "Cabin",
    "Pressure",
    "Hydraulic",
    "Landing",
    "Gear",
    "Rotor",
    "Sensor",
    "Control",
    "Safety",
    "Quality",
    "Audit",
    "Design",
    "Grid",
    "Compute",
    "Storage",
    "Network",
    "Mesh",
    "Solver",
    "Airflow",
    "Noise",
    "Vibration",
    "Coating",
    "Alloy",
    "Weld",
    "Inspection",
    "Maintenance",
    "Testing",
    "Simulation",
];
const KEYWORDS: [&str; 12] = [
    "aero",
    "certified",
    "iso",
    "military",
    "civil",
    "export",
    "lab",
    "regulated",
    "research",
    "industrial",
    "partner",
    "accredited",
];

/// One ontology concept as generated: its name words, serial and the
/// credential type bound to it.
#[derive(Debug, Clone)]
pub struct GenConcept {
    /// The canonical concept name.
    pub name: String,
    words: [usize; 3],
    serial: usize,
    /// The credential type implementing the concept.
    pub cred_type: String,
}

impl GenConcept {
    /// A drifted name for this concept, as a counterpart's ontology would
    /// spell it: one name word dropped, the rest with the serial
    /// reordered, lower-cased and joined by underscores. It is never an
    /// exact concept name, so resolving it takes Algorithm 1's similarity
    /// fallback; its three tokens all belong to this concept and at most
    /// two to any other, so the match is unique.
    pub fn paraphrase(&self, rng: &mut Rng) -> String {
        let drop = rng.below(3);
        let mut parts: Vec<String> = (0..3)
            .filter(|&i| i != drop)
            .map(|i| WORDS[self.words[i]].to_ascii_lowercase())
            .collect();
        parts.push(format!("{:04}", self.serial));
        rng.shuffle(&mut parts);
        parts.join("_")
    }
}

/// One protected service of a `concept_drift` member.
#[derive(Debug, Clone)]
pub struct DriftService {
    /// Owning member (the controller of the authorization).
    pub owner: String,
    /// Resource name.
    pub resource: String,
    /// Credential types the requester must disclose, in policy order
    /// (bound to the concepts the policy's drifted terms paraphrase).
    pub requires: Vec<String>,
}

/// One operation-phase negotiation of the `concept_drift` workload.
#[derive(Debug, Clone)]
pub enum DriftOp {
    /// `authorize_operation(requester → service)`.
    Authorize {
        /// The requesting member.
        requester: String,
        /// Index into [`DriftWorld::services`].
        service: usize,
    },
    /// `renew_membership(member)`.
    Renew {
        /// The renewing member.
        member: String,
    },
}

/// The `concept_drift` population: members of one VO, all sharing a
/// large ontology, whose policies name concepts only by drifted names.
pub struct DriftWorld {
    /// The ontology every party holds.
    pub ontology: Ontology,
    /// The VO initiator.
    pub initiator: ServiceProvider,
    /// The members by name.
    pub providers: BTreeMap<String, ServiceProvider>,
    /// One capability per member.
    pub registry: ServiceRegistry,
    /// One role per member.
    pub contract: Contract,
    /// Member names, in role order.
    pub members: Vec<String>,
    /// Every protected service.
    pub services: Vec<DriftService>,
    /// For each requester-held credential type, the type the controller
    /// must disclose first (the drifted concept protecting it).
    pub release: BTreeMap<String, String>,
    /// Every drifted name written into a policy, with the canonical
    /// concept it paraphrases.
    pub drifted: Vec<(String, String)>,
}

/// Shape of the `concept_drift` population.
#[derive(Debug, Clone, Copy)]
pub struct DriftShape {
    /// Concepts in the shared ontology.
    pub concepts: usize,
    /// VO members.
    pub members: usize,
    /// Protected services per member.
    pub services_per_member: usize,
}

/// Build the `concept_drift` population for `(seed, round)`.
pub fn drift_world(seed: u64, round: u64, shape: DriftShape) -> DriftWorld {
    const REQUESTED: usize = 12; // credential types services ask for
    const RELEASING: usize = 6; // types that protect those credentials
    const TERMS: usize = 2; // drifted terms per service policy
    let tag = tag(seed, round);
    let mut rng = Rng::new(seed, round.wrapping_add(0xD21F));
    let mut ontology = Ontology::new();
    let mut concepts = BTreeMap::new();
    let mut order = Vec::with_capacity(shape.concepts);
    for serial in 0..shape.concepts {
        let mut picks: Vec<usize> = (0..WORDS.len()).collect();
        rng.shuffle(&mut picks);
        let words = [picks[0], picks[1], picks[2]];
        let name = format!(
            "{}{}{}{serial:04}",
            WORDS[words[0]], WORDS[words[1]], WORDS[words[2]]
        );
        let cred_type = format!("Cred{serial:04}");
        ontology.add(
            Concept::new(&name)
                .keyword(KEYWORDS[rng.below(KEYWORDS.len())])
                .implemented_by(&cred_type),
        );
        order.push(name.clone());
        concepts.insert(
            name.clone(),
            GenConcept {
                name,
                words,
                serial,
                cred_type,
            },
        );
    }
    // Pick the requested, releasing and never-held concepts.
    rng.shuffle(&mut order);
    let requested: Vec<GenConcept> = order[..REQUESTED]
        .iter()
        .map(|n| concepts[n].clone())
        .collect();
    let releasing: Vec<GenConcept> = order[REQUESTED..REQUESTED + RELEASING]
        .iter()
        .map(|n| concepts[n].clone())
        .collect();
    let unheld: Vec<GenConcept> = order[REQUESTED + RELEASING..REQUESTED + RELEASING + 8]
        .iter()
        .map(|n| concepts[n].clone())
        .collect();
    let release_of: BTreeMap<String, &GenConcept> = requested
        .iter()
        .map(|c| (c.cred_type.clone(), &releasing[rng.below(RELEASING)]))
        .collect();

    let mut ca = CredentialAuthority::new(format!("DriftCA-{tag}"));
    let window = TimeRange::one_year_from(epoch());
    let mut drifted = Vec::new();
    let mut drift = |c: &GenConcept, rng: &mut Rng| {
        let p = c.paraphrase(rng);
        drifted.push((p.clone(), c.name.clone()));
        p
    };
    let initiator_name = format!("DriftInitiator-{tag}");
    let mut initiator = Party::new(&initiator_name).with_ontology(ontology.clone());
    initiator.trust_root(ca.public_key());
    // Renewals negotiate against the initiator, which must answer the
    // releasing concepts that protect a member's requested credentials.
    for c in &releasing {
        let cred = ca
            .issue(
                &c.cred_type,
                &initiator_name,
                initiator.keys.public,
                vec![Attribute::new("Grade", 5i64)],
                window,
            )
            .expect("open schema");
        initiator.profile.add(cred);
    }
    let mut contract = Contract::new(format!("DriftVo-{tag}"), "operation phase");
    let mut registry = ServiceRegistry::new();
    let mut providers = BTreeMap::new();
    let mut members = Vec::new();
    let mut services = Vec::new();
    for m in 0..shape.members {
        let name = format!("Member{m:02}-{tag}");
        let mut party = Party::new(&name).with_ontology(ontology.clone());
        party.trust_root(ca.public_key());
        for c in requested.iter().chain(&releasing) {
            let cred = ca
                .issue(
                    &c.cred_type,
                    &name,
                    party.keys.public,
                    vec![Attribute::new("Grade", (rng.below(5) + 1) as i64)],
                    window,
                )
                .expect("open schema");
            party.profile.add(cred);
        }
        // Requested credentials are released only against a drifted
        // releasing concept; releasing credentials flow freely.
        for c in &requested {
            let guard = release_of[&c.cred_type];
            party.policies.add(DisclosurePolicy::rule(
                format!("rel-{}", c.cred_type),
                Resource::credential(&c.cred_type),
                vec![Term::of_concept(drift(guard, &mut rng))],
            ));
        }
        for s in 0..shape.services_per_member {
            let resource = format!("Svc{m:02}x{s}");
            // Half the services first try an alternative that names a
            // concept nobody holds: one more scan, then a failed branch.
            if rng.below(2) == 0 {
                let c = &unheld[rng.below(unheld.len())];
                party.policies.add(DisclosurePolicy::rule(
                    format!("{resource}-unheld"),
                    Resource::service(&resource),
                    vec![Term::of_concept(drift(c, &mut rng))],
                ));
            }
            let mut picks: Vec<usize> = (0..REQUESTED).collect();
            rng.shuffle(&mut picks);
            let chosen: Vec<&GenConcept> = picks[..TERMS].iter().map(|&i| &requested[i]).collect();
            party.policies.add(DisclosurePolicy::rule(
                format!("{resource}-real"),
                Resource::service(&resource),
                chosen
                    .iter()
                    .map(|c| Term::of_concept(drift(c, &mut rng)))
                    .collect(),
            ));
            services.push(DriftService {
                owner: name.clone(),
                resource,
                requires: chosen.iter().map(|c| c.cred_type.clone()).collect(),
            });
        }
        let role = format!("Role{m:02}");
        let capability = format!("op{m:02}-{tag}");
        contract = contract.with_role(Role::new(&role, &capability, "member"));
        let mut policies = PolicySet::new();
        let c = &requested[rng.below(REQUESTED)];
        policies.add(DisclosurePolicy::rule(
            format!("vo-{m}"),
            Resource::service("VoMembership"),
            vec![Term::of_concept(drift(c, &mut rng))],
        ));
        contract.set_role_policies(&role, policies);
        registry.publish(ResourceDescription::new(&name, &capability, "soap", 0.9));
        providers.insert(name.clone(), ServiceProvider::new(party));
        members.push(name);
    }
    let release = release_of
        .into_iter()
        .map(|(t, g)| (t, g.cred_type.clone()))
        .collect();
    DriftWorld {
        ontology,
        initiator: ServiceProvider::new(initiator),
        providers,
        registry,
        contract,
        members,
        services,
        release,
        drifted,
    }
}

impl DriftWorld {
    /// `n` operations: authorizations between distinct members, with one
    /// membership renewal half-way through. A member renews once per
    /// membership validity period and requests operations throughout it,
    /// so renewals are rare against authorizations; one per round keeps
    /// the renewal path exercised and checked without letting its cost
    /// stand in for the authorizations' (README: *Workloads*).
    pub fn ops(&self, seed: u64, round: u64, n: usize) -> Vec<DriftOp> {
        let mut rng = Rng::new(seed, round.wrapping_add(0x0B5E));
        (0..n)
            .map(|i| {
                if i == n / 2 {
                    DriftOp::Renew {
                        member: self.members[rng.below(self.members.len())].clone(),
                    }
                } else {
                    let service = rng.below(self.services.len());
                    let owner = &self.services[service].owner;
                    let others: Vec<&String> =
                        self.members.iter().filter(|m| *m != owner).collect();
                    DriftOp::Authorize {
                        requester: others[rng.below(others.len())].clone(),
                        service,
                    }
                }
            })
            .collect()
    }
}
