//! The workloads, one round at a time. A round is a fixed amount
//! of work on a freshly built world: set-up (build the population, build
//! the stack, register every party), the timed region (formations or
//! operation-phase negotiations), then checks and, on traced rounds,
//! layer replays. Rounds are fixed work rather than fixed time because
//! the TN service retains every finished session and checkpoint
//! revision, so a longer run of the same stack would read slower per
//! negotiation.

use std::sync::Arc;
use std::time::Instant;

use trust_vo_admission::{AdmissionGate, ManaConfig, ManaLedger};
use trust_vo_credential::VerifiedCache;
use trust_vo_journal::{Fact, Journal};
use trust_vo_negotiation::{
    engine::{session_nonce, verify_disclosure},
    evaluate_policies,
    message::Side,
    negotiate, NegotiationConfig, Party, Strategy,
};
use trust_vo_netsim::{FaultPlan, NetSim};
use trust_vo_obs::Collector;
use trust_vo_soa::simclock::CostModel;
use trust_vo_soa::{
    wire, CallGate, ResumePolicy, RetryPolicy, ServiceBus, SimClock, TnService, Transport,
};
use trust_vo_store::{Database, DocId};
use trust_vo_vo::mailbox::MailboxSystem;
use trust_vo_vo::operation::{authorize_operation, renew_membership};
use trust_vo_vo::{
    controller_name, form_vo, form_vo_resilient_admitted, form_vo_resilient_parallel_admitted,
    register_formation_parties, AdmissionControl, FormationResilience, FormedVo, ReputationLedger,
};
use trust_vo_xmldoc::{parse, to_string, Element, Node};

use crate::probe::{NegRecord, Probe, Recorder, Span, TimedEndpoint, TimedGate};
use crate::world::{self, DriftOp, DriftShape, DriftWorld, JoinWorld};
use crate::{alloc, sys};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial formation through the full stack, strangers every time.
    JoinStrangers,
    /// Operation-phase re-negotiations over drifted ontology concepts.
    ConceptDrift,
    /// `JoinStrangers` over a lossy network.
    LossyFormation,
    /// Two-worker formation through the full stack over a lossy network.
    LossyParallelFormation,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "join_strangers" => Some(Workload::JoinStrangers),
            "concept_drift" => Some(Workload::ConceptDrift),
            "lossy_formation" => Some(Workload::LossyFormation),
            "lossy_parallel_formation" => Some(Workload::LossyParallelFormation),
            _ => None,
        }
    }
}

/// How a round is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Two timestamps per negotiation, nothing else.
    Plain,
    /// Spans at every boundary, allocation counting, replays.
    Traced,
    /// Plain, with an obs `Collector` attached to the clock.
    Collector,
}

/// The size of every workload's round.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Chain population of the serial formation workloads.
    pub applicants: usize,
    /// Chain population of `lossy_parallel_formation`.
    pub parallel_applicants: usize,
    /// Chain depth: credentials disclosed per formation negotiation.
    pub depth: usize,
    /// Roles per formed VO.
    pub roles_per_vo: usize,
    /// How many times a round negotiates every applicant.
    pub passes: usize,
    /// `concept_drift` population.
    pub drift: DriftShape,
    /// `concept_drift` negotiations per round.
    pub drift_ops: usize,
    /// Message-loss probability (each direction) of the lossy network.
    /// Kept low because of a fault in the client's resume path: when the
    /// last `CredentialExchange` completes at the service but its reply
    /// is lost on every retry, the resume that follows finds the
    /// checkpoint already retired and the negotiation fails. That takes
    /// about 8p^4 of negotiations (1 in 20,000 at p = 0.05), on some
    /// seeds only; at 0.004 it is about 1 in 500 million.
    pub loss: f64,
    /// Shard workers of `lossy_parallel_formation`.
    pub workers: usize,
}

impl Sizes {
    /// The measured size.
    pub const FULL: Sizes = Sizes {
        applicants: 128,
        parallel_applicants: 64,
        depth: 8,
        roles_per_vo: 16,
        passes: 8,
        drift: DriftShape {
            concepts: 4096,
            members: 12,
            services_per_member: 4,
        },
        drift_ops: 2048,
        loss: 0.004,
        workers: 2,
    };

    /// A size every workload runs in well under a second per round.
    pub const SMOKE: Sizes = Sizes {
        applicants: 16,
        parallel_applicants: 16,
        depth: 8,
        roles_per_vo: 8,
        passes: 2,
        drift: DriftShape {
            concepts: 256,
            members: 4,
            services_per_member: 2,
        },
        drift_ops: 32,
        loss: 0.02,
        workers: 2,
    };
}

/// Global work counters read from the program's public stats APIs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Signatures made.
    pub signs: u64,
    /// Signatures verified (singly or in batches).
    pub verifies: u64,
    /// Verified-credential cache hits.
    pub cache_hits: u64,
    /// Verified-credential cache misses.
    pub cache_misses: u64,
    /// Ontology similarity scans.
    pub scans: u64,
    /// Allocations (counted only while counting is on).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Bytes freed while counting was on.
    pub freed_bytes: u64,
}

impl Counters {
    fn now() -> Self {
        let crypto = trust_vo_crypto::stats::snapshot();
        let cache = VerifiedCache::global().stats();
        let (allocs, alloc_bytes) = alloc::totals();
        Counters {
            signs: crypto.sign,
            verifies: crypto.verify + crypto.verify_batch_sigs,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            scans: trust_vo_ontology::stats::snapshot().similarity_scans,
            allocs,
            alloc_bytes,
            freed_bytes: alloc::freed(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            signs: self.signs - before.signs,
            verifies: self.verifies - before.verifies,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            scans: self.scans - before.scans,
            allocs: self.allocs - before.allocs,
            alloc_bytes: self.alloc_bytes - before.alloc_bytes,
            freed_bytes: self.freed_bytes - before.freed_bytes,
        }
    }
}

/// Layer replays of one traced round, per negotiation unless named
/// otherwise, in µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    /// `evaluate_policies` on the same party pairs.
    pub evaluate_us: f64,
    /// `negotiate` on the same party pairs.
    pub negotiate_us: f64,
    /// `verify_disclosure` per negotiation.
    pub verify_us: f64,
    /// `verify_disclosure` per disclosure.
    pub verify_us_per_disclosure: f64,
    /// `to_string` of what a negotiation stores and sends.
    pub xml_us: f64,
    /// Framing + codec of a negotiation's requests and replies.
    pub wire_us: f64,
    /// Framed request + reply bytes per negotiation, KiB.
    pub wire_kib: f64,
    /// Journal appends + store puts and deletes of a negotiation's facts.
    pub store_journal_us: f64,
    /// `match_concept` per drifted name.
    pub match_us_per_scan: f64,
    /// Policies disclosed per replayed negotiation.
    pub policies_disclosed: f64,
    /// Signing each stored checkpoint, as the resume token issued with
    /// it is signed.
    pub sign_us: f64,
}

/// Everything one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Set-up wall time, s.
    pub setup_s: f64,
    /// Registration wall time per registered party, µs.
    pub register_us_per_party: f64,
    /// Timed-region wall time, s.
    pub timed_s: f64,
    /// Process CPU in the timed region, s.
    pub cpu_s: f64,
    /// Simulated (cost-model) time charged in the timed region, s.
    pub sim_s: f64,
    /// Finished negotiations.
    pub negs: Vec<NegRecord>,
    /// Negotiations the round set out to make.
    pub attempted: u64,
    /// Work counters over the timed region.
    pub work: Counters,
    /// TN-store operations in the timed region.
    pub store_ops: u64,
    /// Journal appends / bytes in the timed region.
    pub journal: (u64, u64),
    /// Messages the lossy network dropped.
    pub drops: u64,
    /// Formation-level recovery work.
    pub resilience: FormationResilience,
    /// Policies disclosed in PolicyExchange replies (traced only).
    pub policies_disclosed: u64,
    /// Spans (traced only).
    pub spans: Vec<Span>,
    /// Replays (traced only).
    pub replays: Replays,
    /// `concept_drift`: mean wall time of an authorization and of a
    /// renewal, µs.
    pub op_us: (f64, f64),
    /// `concept_drift`: the renewals' share of the timed region.
    pub renew_share: f64,
    /// Sorted `(member, role)` pairs of every formed VO.
    pub rosters: Vec<Vec<(String, String)>>,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl Round {
    /// Finished negotiations.
    pub fn completed(&self) -> u64 {
        self.negs.iter().filter(|n| !n.failed).count() as u64
    }
}

fn clock(mode: Mode) -> SimClock {
    let clock = SimClock::new(CostModel::paper_testbed(), world::epoch());
    if mode == Mode::Collector {
        clock.attach_obs(&Collector::new());
    }
    clock
}

fn us(ns: u128, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / 1e3 / n as f64
    }
}

/// The production stack: wire codec on, admission gate with the standard
/// mana budget, a TN service over a journaled store. Traced, the gate
/// and the endpoint are registered behind their timing wrappers.
struct Stack {
    clock: SimClock,
    bus: ServiceBus,
    svc: Arc<TnService>,
    journal: Arc<Journal>,
}

impl Stack {
    fn new(clock: SimClock, rec: &Arc<Recorder>) -> Self {
        let bus = ServiceBus::new(clock.clone());
        bus.set_wire(true);
        let db = Database::new();
        let journal = Arc::new(Journal::in_memory());
        db.attach_journal(journal.clone());
        let svc = Arc::new(TnService::new(clock.clone(), db));
        let mana = Arc::new(ManaLedger::new(ManaConfig::standard()));
        let gate: Arc<dyn CallGate> = Arc::new(AdmissionGate::new(mana, clock.clone()));
        if rec.traced() {
            bus.set_gate(Arc::new(TimedGate {
                inner: gate,
                rec: rec.clone(),
            }));
            bus.register(
                "tn",
                Arc::new(TimedEndpoint {
                    inner: svc.clone(),
                    rec: rec.clone(),
                }),
            );
        } else {
            bus.set_gate(gate);
            bus.register("tn", svc.clone());
        }
        Stack {
            clock,
            bus,
            svc,
            journal,
        }
    }

    fn journal_digest_matches(&self) -> bool {
        let fresh = Database::new();
        fresh.restore_from_journal(&self.journal);
        fresh.state_digest() == self.svc.database().state_digest()
    }
}

/// Per-formation idempotency-key seed.
fn formation_seed(seed: u64, round: u64, k: usize) -> u64 {
    world::Rng::new(seed ^ 0xF0F0, (round << 20) | k as u64).next()
}

/// One round of `join_strangers` (serial, loss-free), `lossy_formation`
/// (serial, lossy) or `lossy_parallel_formation` (sharded, lossy).
pub fn formation_round(w: Workload, sizes: &Sizes, seed: u64, round: u64, mode: Mode) -> Round {
    let traced = mode == Mode::Traced;
    let lossy = w != Workload::JoinStrangers;
    let parallel = w == Workload::LossyParallelFormation;
    let applicants = formation_applicants(w, sizes);
    let formations = sizes.passes * applicants / sizes.roles_per_vo;
    let setup = Instant::now();
    let world = world::join_world(seed, round, applicants, sizes.depth);
    let contracts: Vec<_> = (0..formations)
        .map(|k| world.formation_contract(k, sizes.roles_per_vo))
        .collect();
    let rec = Recorder::new(traced, (sizes.roles_per_vo * (2 + sizes.depth)) as u32);
    let stack = Stack::new(clock(mode), &rec);
    let registering = Instant::now();
    register_formation_parties(
        &stack.svc,
        &world.contract,
        &world.initiator,
        &world.providers,
    );
    let register_s = registering.elapsed().as_secs_f64();
    let net = NetSim::new(
        stack.bus.clone(),
        FaultPlan::lossy(seed ^ round.rotate_left(32), sizes.loss),
    );
    let transport: &dyn Transport = if lossy { &net } else { &stack.bus };
    let mut r = Round {
        setup_s: setup.elapsed().as_secs_f64(),
        register_us_per_party: register_s * 1e6 / world.registered_parties() as f64,
        attempted: (formations * sizes.roles_per_vo) as u64,
        ..Round::default()
    };

    let retry = RetryPolicy::standard();
    let resume = ResumePolicy::standard();
    let mut mailboxes = MailboxSystem::new();
    let mut reputation = ReputationLedger::new();
    let mut formed: Vec<Result<FormedVo, String>> = Vec::with_capacity(formations);
    let store_before = stack.svc.database().stats().operations;
    let journal_before = stack.journal.stats();
    alloc::set_counting(traced);
    let before = Counters::now();
    let cpu0 = sys::process_cpu_ns();
    let sim0 = stack.clock.elapsed();
    let t0 = Instant::now();
    for (k, contract) in contracts.into_iter().enumerate() {
        let probe = Probe::new(transport, &rec);
        // A fresh admission view per formation: every candidate is
        // scored at the prior, so every join is between strangers.
        let admission = AdmissionControl::default();
        let key_seed = formation_seed(seed, round, k);
        let out = rec.vo_call(|| {
            if parallel {
                form_vo_resilient_parallel_admitted(
                    contract,
                    &world.initiator,
                    &world.providers,
                    &world.registry,
                    &mut mailboxes,
                    &mut reputation,
                    &probe,
                    "tn",
                    Strategy::Standard,
                    &retry,
                    &resume,
                    key_seed,
                    sizes.workers,
                    &admission,
                )
            } else {
                form_vo_resilient_admitted(
                    contract,
                    &world.initiator,
                    &world.providers,
                    &world.registry,
                    &mut mailboxes,
                    &mut reputation,
                    &probe,
                    "tn",
                    Strategy::Standard,
                    &retry,
                    &resume,
                    key_seed,
                    &admission,
                )
            }
        });
        formed.push(match out {
            Ok((vo, res)) => {
                r.resilience.negotiations += res.negotiations;
                r.resilience.retries += res.retries;
                r.resilience.resumes += res.resumes;
                r.resilience.restarts += res.restarts;
                Ok(vo)
            }
            Err(e) => Err(e.to_string()),
        });
    }
    r.timed_s = t0.elapsed().as_secs_f64();
    r.cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    r.sim_s = (stack.clock.elapsed().0 - sim0.0) as f64 / 1e6;
    r.work = Counters::now().since(before);
    alloc::set_counting(false);
    r.store_ops = stack.svc.database().stats().operations - store_before;
    let journal_after = stack.journal.stats();
    r.journal = (
        journal_after.appends - journal_before.appends,
        journal_after.bytes_written - journal_before.bytes_written,
    );
    r.drops = net.metrics().drops.get();
    r.negs = std::mem::take(&mut *rec.negs.lock().expect("recorder"));
    r.policies_disclosed = rec.policies_disclosed();

    // Checks against the generator, and against properties the method
    // must have.
    let initiator_key = world.initiator.party.keys.public;
    for (k, vo) in formed.iter().enumerate() {
        let vo = match vo {
            Ok(vo) => {
                r.rosters.push(roster(vo));
                vo
            }
            Err(e) => {
                r.errors.push(format!("formation {k} failed: {e}"));
                continue;
            }
        };
        let contract = world.formation_contract(k, sizes.roles_per_vo);
        for role in &contract.roles {
            let want = world.applicant_for(&role.name);
            match vo.member_for_role(&role.name) {
                Some(m) if m.provider == want => {
                    let cert = &m.certificate;
                    if cert.issuer_key != initiator_key
                        || !initiator_key.verify_reference(&cert.tbs(), &cert.signature)
                    {
                        r.errors.push(format!(
                            "formation {k}: certificate of {want} does not verify under the initiator key"
                        ));
                    }
                }
                other => r.errors.push(format!(
                    "formation {k}: role {} went to {:?}, built for {want}",
                    role.name,
                    other.map(|m| &m.provider)
                )),
            }
        }
    }
    if r.negs.len() as u64 != r.attempted || r.resilience.negotiations != r.attempted {
        r.errors.push(format!(
            "{} negotiations seen at the transport, {} reported by formation, {} expected",
            r.negs.len(),
            r.resilience.negotiations,
            r.attempted
        ));
    }
    if !lossy {
        let calls = 2 + sizes.depth as u32;
        if let Some(n) = r
            .negs
            .iter()
            .find(|n| n.calls != calls || n.disclosed != sizes.depth as u32)
        {
            r.errors.push(format!(
                "a negotiation made {} calls and {} disclosures, expected {calls} and {}",
                n.calls, n.disclosed, sizes.depth
            ));
        }
    } else if r.drops == 0 {
        r.errors.push("the lossy network dropped no message".into());
    }
    if !stack.journal_digest_matches() {
        r.errors
            .push("journal replay does not reproduce the live store digest".into());
    }
    if traced {
        r.spans = std::mem::take(&mut *rec.spans.lock().expect("recorder"));
        let captured = std::mem::take(&mut *rec.captured.lock().expect("recorder"));
        r.replays = formation_replays(
            &world,
            &stack,
            &captured,
            sizes,
            journal_before.appends as usize,
            r.completed(),
        );
    }
    r
}

/// Applicants in a round of formation workload `w`.
fn formation_applicants(w: Workload, sizes: &Sizes) -> usize {
    if w == Workload::LossyParallelFormation {
        sizes.parallel_applicants
    } else {
        sizes.applicants
    }
}

/// The `(member, role)` roster of every formation of round `round` of
/// workload `w`, formed serially over a loss-free bus: the reference the
/// lossy rounds are checked against.
pub fn reference_roster(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    round: u64,
) -> Vec<Vec<(String, String)>> {
    let applicants = formation_applicants(w, sizes);
    let world = world::join_world(seed, round, applicants, sizes.depth);
    let rec = Recorder::new(false, 0);
    let stack = Stack::new(clock(Mode::Plain), &rec);
    register_formation_parties(
        &stack.svc,
        &world.contract,
        &world.initiator,
        &world.providers,
    );
    let mut mailboxes = MailboxSystem::new();
    let mut reputation = ReputationLedger::new();
    (0..sizes.passes * applicants / sizes.roles_per_vo)
        .map(|k| {
            let (vo, _) = form_vo_resilient_admitted(
                world.formation_contract(k, sizes.roles_per_vo),
                &world.initiator,
                &world.providers,
                &world.registry,
                &mut mailboxes,
                &mut reputation,
                &stack.bus,
                "tn",
                Strategy::Standard,
                &RetryPolicy::standard(),
                &ResumePolicy::standard(),
                formation_seed(seed, round, k),
                &AdmissionControl::default(),
            )
            .expect("loss-free reference formation");
            roster(&vo)
        })
        .collect()
}

/// A formed VO's sorted `(member, role)` pairs.
pub fn roster(vo: &FormedVo) -> Vec<(String, String)> {
    let mut pairs: Vec<_> = vo
        .members()
        .iter()
        .map(|m| (m.provider.clone(), m.role.clone()))
        .collect();
    pairs.sort();
    pairs
}

/// Time `f` over `items`, returning total ns.
fn timed<T>(items: &[T], mut f: impl FnMut(&T)) -> u128 {
    let t = Instant::now();
    for item in items {
        f(item);
    }
    t.elapsed().as_nanos()
}

/// Replays for a formation round: the first formation's party pairs go
/// back through the negotiation engine, their disclosures through
/// `verify_disclosure`; the captured calls through the wire codec and
/// the XML writer/parser; the journal's facts through a fresh journal
/// and store.
fn formation_replays(
    world: &JoinWorld,
    stack: &Stack,
    captured: &[(
        trust_vo_soa::Envelope,
        Result<trust_vo_soa::Envelope, trust_vo_soa::Fault>,
    )],
    sizes: &Sizes,
    first_fact: usize,
    negotiations: u64,
) -> Replays {
    let contract = world.formation_contract(0, sizes.roles_per_vo);
    let pairs: Vec<(Party, Party)> = contract
        .roles
        .iter()
        .map(|role| {
            let applicant = world.applicant_for(&role.name);
            let controller = controller_name(world.initiator.name(), &role.name);
            (
                stack.svc.party(applicant).expect("registered applicant"),
                stack.svc.party(&controller).expect("registered controller"),
            )
        })
        .collect();
    let cfg = NegotiationConfig::new(Strategy::Standard, stack.clock.timestamp());
    let mut rp = Replays {
        evaluate_us: us(
            timed(&pairs, |(req, ctl)| {
                std::hint::black_box(
                    evaluate_policies(req, ctl, "VoMembership", &cfg).expect("replayed phase 1"),
                );
            }),
            pairs.len(),
        ),
        negotiate_us: us(
            timed(&pairs, |(req, ctl)| {
                std::hint::black_box(
                    negotiate(req, ctl, "VoMembership", &cfg).expect("replayed negotiation"),
                );
            }),
            pairs.len(),
        ),
        ..Replays::default()
    };
    let replayed: Vec<(&Party, &Party, &str)> = pairs
        .iter()
        .map(|(req, ctl)| (req, ctl, "VoMembership"))
        .collect();
    let (verify_ns, disclosures) = verify_replay(&replayed, &cfg);
    rp.verify_us = us(verify_ns, pairs.len());
    rp.verify_us_per_disclosure = us(verify_ns, disclosures);

    // Captured calls: the first formation's negotiations.
    let captured_negs = captured
        .iter()
        .filter(|(_, reply)| {
            matches!(reply, Ok(env) if env.body.get_attr("status") == Some("completed"))
        })
        .count()
        .max(1);
    let mut wire_bytes = 0usize;
    let wire_ns = timed(captured, |(req, reply)| {
        let a = wire::frame_envelope(req);
        let b = wire::frame_reply(reply);
        wire_bytes += a.len() + b.len();
        std::hint::black_box(wire::unframe_envelope(&a).expect("request frame"));
        let _ = std::hint::black_box(wire::unframe_reply(&b).expect("reply frame"));
    });
    rp.wire_us = us(wire_ns, captured_negs);
    rp.wire_kib = wire_bytes as f64 / 1024.0 / captured_negs as f64;
    let sent: Vec<Element> = captured
        .iter()
        .filter_map(|(_, reply)| reply.as_ref().ok())
        .flat_map(|env| {
            env.body.children.iter().filter_map(|n| match n {
                Node::Element(e) => Some(e.clone()),
                _ => None,
            })
        })
        .collect();
    let sent_ns = timed(&sent, |e| {
        std::hint::black_box(to_string(e));
    });

    // The timed region's facts (set-up registration excluded): stored
    // checkpoints go through the XML writer, as journaling them does (the
    // hot path parses nothing: the wire codec is binary); every
    // fact is appended to a fresh journal and applied to a fresh,
    // unjournaled store with its document already parsed.
    let facts: Vec<Fact> = stack.journal.replay().facts.split_off(first_fact);
    let docs: Vec<(&str, &str, Option<Element>)> = facts
        .iter()
        .filter_map(|f| match f {
            Fact::Put {
                collection,
                id,
                xml,
            } => Some((
                collection.as_str(),
                id.as_str(),
                Some(parse(xml).expect("stored XML")),
            )),
            Fact::Delete { collection, id } => Some((collection.as_str(), id.as_str(), None)),
            _ => None,
        })
        .collect();
    let checkpoint_ns = timed(&docs, |(collection, _, doc)| {
        if let (&"checkpoints", Some(doc)) = (collection, doc) {
            std::hint::black_box(to_string(doc));
        }
    });
    rp.xml_us = us(sent_ns, captured_negs) + us(checkpoint_ns, negotiations as usize);
    let journal = Journal::in_memory();
    let db = Database::new();
    let store_ns = timed(&docs, |(collection, id, doc)| {
        db.with_collection(collection, |c| match doc {
            Some(doc) => {
                c.put(*id, doc.clone());
            }
            None => {
                c.delete(&DocId((*id).to_owned()));
            }
        });
    });
    let journal_ns = timed(&facts, |f| {
        journal.append(f);
    });
    rp.store_journal_us = us(store_ns + journal_ns, negotiations as usize);
    let keys = &world.initiator.party.keys;
    let sign_ns = timed(&facts, |f| {
        if let Fact::Put {
            collection, xml, ..
        } = f
        {
            if collection == "checkpoints" {
                std::hint::black_box(keys.sign(xml.as_bytes()));
            }
        }
    });
    rp.sign_us = us(sign_ns, negotiations as usize);
    rp
}

/// `verify_disclosure` on every disclosure of a fresh phase 1 for each
/// pair; returns (ns, disclosures).
fn verify_replay(
    negotiations: &[(&Party, &Party, &str)],
    cfg: &NegotiationConfig,
) -> (u128, usize) {
    let mut work = Vec::new();
    for &(req, ctl, resource) in negotiations {
        let phase = evaluate_policies(req, ctl, resource, cfg).expect("replayed phase 1");
        let nonce = session_nonce(req, ctl, resource);
        for d in phase.sequence.disclosures() {
            let (sender, receiver) = match d.by {
                Side::Requester => (req, ctl),
                Side::Controller => (ctl, req),
            };
            let cred = sender
                .profile
                .get(&d.cred_id)
                .expect("sequence credential")
                .clone();
            work.push((cred, receiver, nonce.clone()));
        }
    }
    let ns = timed(&work, |(cred, receiver, nonce)| {
        verify_disclosure(cred, receiver, cfg, nonce, None).expect("replayed verification");
    });
    (ns, work.len())
}

/// One round of `concept_drift`.
pub fn drift_round(sizes: &Sizes, seed: u64, round: u64, mode: Mode) -> Round {
    let traced = mode == Mode::Traced;
    let setup = Instant::now();
    let world = world::drift_world(seed, round, sizes.drift);
    let clock = clock(mode);
    let mut mailboxes = MailboxSystem::new();
    let mut reputation = ReputationLedger::new();
    let vo = form_vo(
        world.contract.clone(),
        &world.initiator,
        &world.providers,
        &world.registry,
        &mut mailboxes,
        &mut reputation,
        &clock,
        Strategy::Standard,
    );
    let ops = world.ops(seed, round, sizes.drift_ops);
    let rec = Recorder::new(traced, 0);
    let mut r = Round {
        setup_s: setup.elapsed().as_secs_f64(),
        attempted: ops.len() as u64,
        ..Round::default()
    };
    let mut vo = match vo {
        Ok(vo) => vo,
        Err(e) => {
            r.errors.push(format!("forming the drift VO failed: {e}"));
            return r;
        }
    };
    alloc::set_counting(traced);
    let before = Counters::now();
    let cpu0 = sys::process_cpu_ns();
    let sim0 = clock.elapsed();
    let t0 = Instant::now();
    let mut denied = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let start = Instant::now();
        let ok = rec.vo_call(|| match op {
            DriftOp::Authorize { requester, service } => {
                let s = &world.services[*service];
                authorize_operation(
                    &vo,
                    &world.providers,
                    requester,
                    &s.owner,
                    &s.resource,
                    &mut reputation,
                    &clock,
                    Strategy::Standard,
                )
                .map(|_| ())
            }
            DriftOp::Renew { member } => renew_membership(
                &mut vo,
                &world.initiator,
                &world.providers,
                member,
                &mut mailboxes,
                &mut reputation,
                &clock,
                Strategy::Standard,
            )
            .map(|_| ()),
        });
        rec.record_negotiation(start.elapsed().as_nanos() as u64, ok.is_err());
        if let Err(e) = ok {
            denied.push(format!("op {i}: {e}"));
        }
    }
    r.timed_s = t0.elapsed().as_secs_f64();
    r.cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    r.sim_s = (clock.elapsed().0 - sim0.0) as f64 / 1e6;
    r.work = Counters::now().since(before);
    alloc::set_counting(false);
    r.negs = std::mem::take(&mut *rec.negs.lock().expect("recorder"));
    let total_ns = |renew: bool| {
        let ns: Vec<u64> = ops
            .iter()
            .zip(&r.negs)
            .filter(|(op, _)| matches!(op, DriftOp::Renew { .. }) == renew)
            .map(|(_, n)| n.latency_ns)
            .collect();
        (ns.iter().map(|&v| u128::from(v)).sum::<u128>(), ns.len())
    };
    let (auth_ns, auths) = total_ns(false);
    let (renew_ns, renewals) = total_ns(true);
    r.op_us = (us(auth_ns, auths), us(renew_ns, renewals));
    r.renew_share = renew_ns as f64 / 1e9 / r.timed_s;
    r.errors.extend(denied);
    if vo.members().len() != world.members.len() {
        r.errors.push("a renewal lost a member".into());
    }
    let (replays, errors) = drift_checks(&world, &ops, &clock, traced);
    r.errors.extend(errors);
    if traced {
        r.spans = std::mem::take(&mut *rec.spans.lock().expect("recorder"));
        r.replays = replays;
    }
    r
}

/// Disclosures expected for an authorization: the requester's bound
/// credential type per drifted term, and for each the controller's type
/// bound to the drifted concept protecting it.
fn expected_disclosures(world: &DriftWorld, service: usize) -> Vec<(Side, String)> {
    let mut want: Vec<(Side, String)> = Vec::new();
    for t in &world.services[service].requires {
        want.push((Side::Requester, t.clone()));
        want.push((Side::Controller, world.release[t].clone()));
    }
    want.sort_by(|a, b| (a.0 as u8, &a.1).cmp(&(b.0 as u8, &b.1)));
    want
}

/// The concept-drift checks, which double as replays: `negotiate` on the
/// first authorizations (disclosed types against the generator's
/// bindings) and `match_concept` on a sample of drifted names (against
/// the naive oracle and the generator).
fn drift_checks(
    world: &DriftWorld,
    ops: &[DriftOp],
    clock: &SimClock,
    traced: bool,
) -> (Replays, Vec<String>) {
    const SAMPLE: usize = 64;
    let mut errors = Vec::new();
    let cfg = NegotiationConfig::new(Strategy::Standard, clock.timestamp());
    let party = |name: &str| &world.providers[name].party;
    let auths: Vec<(&Party, &Party, usize)> = ops
        .iter()
        .filter_map(|op| match op {
            DriftOp::Authorize { requester, service } => Some((
                party(requester),
                party(&world.services[*service].owner),
                *service,
            )),
            DriftOp::Renew { .. } => None,
        })
        .take(SAMPLE)
        .collect();
    let mut negotiate_ns = 0u128;
    let mut policies = 0usize;
    let mut disclosed: Vec<trust_vo_credential::Credential> = Vec::new();
    for &(req, ctl, service) in &auths {
        let resource = &world.services[service].resource;
        let t = Instant::now();
        let outcome = negotiate(req, ctl, resource, &cfg);
        negotiate_ns += t.elapsed().as_nanos();
        match outcome {
            Ok(outcome) => {
                policies += outcome.transcript.policies_disclosed;
                let mut got: Vec<(Side, String)> = outcome
                    .sequence
                    .disclosures()
                    .iter()
                    .map(|d| (d.by, d.cred_type.clone()))
                    .collect();
                got.sort_by(|a, b| (a.0 as u8, &a.1).cmp(&(b.0 as u8, &b.1)));
                if got != expected_disclosures(world, service) {
                    errors.push(format!(
                        "{resource}: disclosed {got:?}, generator bound {:?}",
                        expected_disclosures(world, service)
                    ));
                }
                if traced {
                    for d in outcome.sequence.disclosures() {
                        let sender = if d.by == Side::Requester { req } else { ctl };
                        disclosed.push(sender.profile.get(&d.cred_id).expect("held").clone());
                    }
                }
            }
            Err(e) => errors.push(format!("{resource}: replayed negotiation failed: {e}")),
        }
    }
    let threshold = trust_vo_policy::compliance::DEFAULT_SIMILARITY_THRESHOLD;
    let sample: Vec<&(String, String)> = world.drifted.iter().take(SAMPLE).collect();
    for (name, canonical) in &sample {
        let fast = trust_vo_ontology::match_concept(name, &world.ontology, threshold);
        let naive = trust_vo_ontology::match_concept_reference(name, &world.ontology, threshold);
        if fast != naive || naive.as_ref().map(|m| &m.target) != Some(canonical) {
            errors.push(format!(
                "{name}: indexed {fast:?}, naive {naive:?}, generated for {canonical}"
            ));
        }
    }
    if !traced {
        return (Replays::default(), errors);
    }
    let names: Vec<&String> = world.drifted.iter().map(|(n, _)| n).collect();
    let match_ns = timed(&names, |n| {
        std::hint::black_box(trust_vo_ontology::match_concept(
            n,
            &world.ontology,
            threshold,
        ));
    });
    let eval_ns: u128 = auths
        .iter()
        .map(|&(req, ctl, s)| {
            let t = Instant::now();
            std::hint::black_box(
                evaluate_policies(req, ctl, &world.services[s].resource, &cfg).expect("phase 1"),
            );
            t.elapsed().as_nanos()
        })
        .sum();
    let negotiations: Vec<(&Party, &Party, &str)> = auths
        .iter()
        .map(|&(req, ctl, s)| (req, ctl, world.services[s].resource.as_str()))
        .collect();
    let (verify_ns, disclosures) = verify_replay(&negotiations, &cfg);
    // The engine writes each disclosed credential's XML into the
    // transcript.
    let xml_ns = timed(&disclosed, |c| {
        std::hint::black_box(to_string(&c.to_xml()));
    });
    let n = auths.len().max(1);
    let replays = Replays {
        evaluate_us: us(eval_ns, n),
        negotiate_us: us(negotiate_ns, n),
        verify_us: us(verify_ns, n),
        verify_us_per_disclosure: us(verify_ns, disclosures),
        xml_us: us(xml_ns, n),
        match_us_per_scan: us(match_ns, names.len()),
        policies_disclosed: policies as f64 / n as f64,
        ..Replays::default()
    };
    (replays, errors)
}
