//! Interposition at the public layer boundaries, from outside the
//! program: a [`Transport`] wrapper (every client call), a [`CallGate`]
//! wrapper (the admission gate) and a [`ServiceEndpoint`] wrapper (the TN
//! service), plus the formation / operation call the workload makes.
//!
//! Untraced, the only work added is two timestamps per negotiation: one
//! at its first call and one at its final reply. Traced, every boundary
//! records a span (layer, operation, thread, start, end, thread CPU,
//! allocations, parent, negotiation) into memory.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use trust_vo_soa::{CallGate, Envelope, Fault, ServiceEndpoint, SimClock, TnService, Transport};

use crate::{alloc, sys};

/// The boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The formation / operation call (`vo`).
    Vo = 0,
    /// `Transport::call` (`soa.bus`, with `netsim` in front when lossy).
    Bus = 1,
    /// `CallGate::admit` (`admission`).
    Gate = 2,
    /// `ServiceEndpoint::handle` (`soa.tn_service`).
    Endpoint = 3,
}

/// Layer names as the ledger prints them.
pub const LAYER_NAMES: [&str; 4] = ["vo", "soa.bus", "admission.gate", "soa.tn_service"];

/// The TN-service operation a call carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `StartNegotiation`.
    Start = 0,
    /// `PolicyExchange`.
    Policy = 1,
    /// `CredentialExchange`.
    Credential = 2,
    /// `ResumeNegotiation` or anything else.
    Other = 3,
}

impl Op {
    fn of(request: &Envelope) -> Op {
        match request.operation.as_str() {
            "StartNegotiation" => Op::Start,
            "PolicyExchange" => Op::Policy,
            "CredentialExchange" => Op::Credential,
            _ => Op::Other,
        }
    }
}

/// One recorded boundary crossing. Times are ns since the recorder's base.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id.
    pub id: u32,
    /// The enclosing span's id, or `NONE`.
    pub parent: u32,
    /// Boundary.
    pub layer: Layer,
    /// Operation (calls only).
    pub op: Op,
    /// Recording thread.
    pub thread: u32,
    /// Negotiation the call belongs to (calls only).
    pub neg: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// CPU time of the recording thread inside the span, ns.
    pub cpu: u64,
    /// Allocations inside the span: on the recording thread for calls,
    /// process-wide for `Vo` spans.
    pub allocs: u64,
}

/// Parent id of a root span.
pub const NONE: u32 = u32::MAX;

/// One finished negotiation as seen at the transport boundary.
#[derive(Debug, Clone, Copy)]
pub struct NegRecord {
    /// First call to final reply, ns.
    pub latency_ns: u64,
    /// Transport calls it made, retries included.
    pub calls: u32,
    /// `CredentialExchange` replies that carried a disclosure.
    pub disclosed: u32,
    /// Ended by an application fault instead of completion.
    pub failed: bool,
}

/// Per-round recording state shared by every wrapper.
pub struct Recorder {
    base: Instant,
    traced: bool,
    capture_budget: AtomicU32,
    next_span: AtomicU32,
    next_neg: AtomicU32,
    formation: AtomicU32,
    policies_disclosed: AtomicU64,
    /// Finished negotiations.
    pub negs: Mutex<Vec<NegRecord>>,
    /// Recorded spans (traced only).
    pub spans: Mutex<Vec<Span>>,
    /// Request/reply pairs kept for the layer replays (traced only).
    pub captured: Mutex<Vec<(Envelope, Result<Envelope, Fault>)>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ID: Cell<u32> = const { Cell::new(u32::MAX) };
    static NEG_START: Cell<Option<Instant>> = const { Cell::new(None) };
    static NEG_ID: Cell<u32> = const { Cell::new(0) };
    static NEG_CALLS: Cell<u32> = const { Cell::new(0) };
    static NEG_DISCLOSED: Cell<u32> = const { Cell::new(0) };
    static CUR_CALL: Cell<u32> = const { Cell::new(NONE) };
}

fn thread_id() -> u32 {
    THREAD_ID.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// An open span: what was read at entry.
struct Open {
    id: u32,
    start: Instant,
    cpu: u64,
    allocs: u64,
}

impl Recorder {
    /// A recorder; `capture` request/reply pairs are kept for replays.
    pub fn new(traced: bool, capture: u32) -> Arc<Self> {
        Arc::new(Recorder {
            base: Instant::now(),
            traced,
            capture_budget: AtomicU32::new(capture),
            next_span: AtomicU32::new(0),
            next_neg: AtomicU32::new(0),
            formation: AtomicU32::new(NONE),
            policies_disclosed: AtomicU64::new(0),
            negs: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
            captured: Mutex::new(Vec::new()),
        })
    }

    /// Whether spans are recorded.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// `policiesDisclosed` summed over every PolicyExchange reply seen
    /// (traced only).
    pub fn policies_disclosed(&self) -> u64 {
        self.policies_disclosed.load(Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.base).as_nanos() as u64
    }

    fn open(&self, global_allocs: bool) -> Open {
        Open {
            id: self.next_span.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            cpu: sys::thread_cpu_ns(),
            allocs: if global_allocs {
                alloc::totals().0
            } else {
                alloc::thread_count()
            },
        }
    }

    fn close(&self, o: Open, layer: Layer, op: Op, parent: u32, neg: u32, global_allocs: bool) {
        let end = Instant::now();
        let cpu = sys::thread_cpu_ns() - o.cpu;
        let allocs = if global_allocs {
            alloc::totals().0
        } else {
            alloc::thread_count()
        } - o.allocs;
        let span = Span {
            id: o.id,
            parent,
            layer,
            op,
            thread: thread_id(),
            neg,
            start: self.ns(o.start),
            end: self.ns(end),
            cpu,
            allocs,
        };
        self.spans.lock().expect("recorder").push(span);
    }

    /// Run one formation / operation call (`vo` boundary). Untraced this
    /// is a plain call.
    pub fn vo_call<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let o = self.open(true);
        self.formation.store(o.id, Ordering::Relaxed);
        let out = f();
        self.formation.store(NONE, Ordering::Relaxed);
        self.close(o, Layer::Vo, Op::Other, NONE, 0, true);
        out
    }

    /// Record a negotiation finished outside any transport (in-process
    /// operation-phase negotiations) with its measured wall time.
    pub fn record_negotiation(&self, latency_ns: u64, failed: bool) {
        self.negs.lock().expect("recorder").push(NegRecord {
            latency_ns,
            calls: 0,
            disclosed: 0,
            failed,
        });
    }

    fn begin_call(&self) -> u32 {
        if NEG_START.with(|s| s.get()).is_none() {
            NEG_START.with(|s| s.set(Some(Instant::now())));
            NEG_CALLS.with(|c| c.set(0));
            NEG_DISCLOSED.with(|c| c.set(0));
            if self.traced {
                NEG_ID.with(|n| n.set(self.next_neg.fetch_add(1, Ordering::Relaxed)));
            }
        }
        NEG_ID.with(Cell::get)
    }

    fn end_call(&self, request: &Envelope, reply: &Result<Envelope, Fault>) {
        NEG_CALLS.with(|c| c.set(c.get() + 1));
        let finished = match reply {
            Ok(env) if request.operation == "CredentialExchange" => {
                let status = env.body.get_attr("status");
                if status.is_some() {
                    NEG_DISCLOSED.with(|c| c.set(c.get() + 1));
                }
                (status == Some("completed")).then_some(false)
            }
            Ok(env) if self.traced && request.operation == "PolicyExchange" => {
                let n = env
                    .body
                    .get_attr("policiesDisclosed")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
                self.policies_disclosed.fetch_add(n, Ordering::Relaxed);
                None
            }
            Ok(_) => None,
            Err(fault) => (!fault.is_transport()).then_some(true),
        };
        if let Some(failed) = finished {
            let start = NEG_START.with(|s| s.take()).expect("negotiation started");
            let latency_ns = start.elapsed().as_nanos() as u64;
            self.negs.lock().expect("recorder").push(NegRecord {
                latency_ns,
                calls: NEG_CALLS.with(Cell::get),
                disclosed: NEG_DISCLOSED.with(Cell::get),
                failed,
            });
        }
    }

    fn capture(&self, request: &Envelope, reply: &Result<Envelope, Fault>) {
        let left = self.capture_budget.load(Ordering::Relaxed);
        if left > 0 {
            self.capture_budget.store(left - 1, Ordering::Relaxed);
            self.captured
                .lock()
                .expect("recorder")
                .push((request.clone(), reply.clone()));
        }
    }
}

/// The client-side transport boundary.
pub struct Probe<'a, T: ?Sized> {
    inner: &'a T,
    rec: &'a Recorder,
}

impl<'a, T: Transport + ?Sized> Probe<'a, T> {
    /// Wrap `inner`.
    pub fn new(inner: &'a T, rec: &'a Recorder) -> Self {
        Probe { inner, rec }
    }
}

impl<T: Transport + ?Sized> Transport for Probe<'_, T> {
    fn call(&self, service: &str, request: &Envelope) -> Result<Envelope, Fault> {
        let rec = self.rec;
        let neg = rec.begin_call();
        if !rec.traced {
            let reply = self.inner.call(service, request);
            rec.end_call(request, &reply);
            return reply;
        }
        let o = rec.open(false);
        let outer = CUR_CALL.with(|c| c.replace(o.id));
        let reply = self.inner.call(service, request);
        CUR_CALL.with(|c| c.set(outer));
        let parent = rec.formation.load(Ordering::Relaxed);
        rec.close(o, Layer::Bus, Op::of(request), parent, neg, false);
        rec.end_call(request, &reply);
        rec.capture(request, &reply);
        reply
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }
}

fn nested<R>(rec: &Recorder, layer: Layer, request: &Envelope, f: impl FnOnce() -> R) -> R {
    let o = rec.open(false);
    let out = f();
    let parent = CUR_CALL.with(Cell::get);
    let neg = NEG_ID.with(Cell::get);
    rec.close(o, layer, Op::of(request), parent, neg, false);
    out
}

/// The admission-gate boundary (installed only when traced).
pub struct TimedGate {
    /// The gate under test.
    pub inner: Arc<dyn CallGate>,
    /// Where spans go.
    pub rec: Arc<Recorder>,
}

impl CallGate for TimedGate {
    fn admit(&self, service: &str, request: &Envelope) -> Result<(), Fault> {
        nested(&self.rec, Layer::Gate, request, || {
            self.inner.admit(service, request)
        })
    }
}

/// The TN-service endpoint boundary (installed only when traced).
pub struct TimedEndpoint {
    /// The service under test.
    pub inner: Arc<TnService>,
    /// Where spans go.
    pub rec: Arc<Recorder>,
}

impl ServiceEndpoint for TimedEndpoint {
    fn handle(&self, request: &Envelope) -> Result<Envelope, Fault> {
        nested(&self.rec, Layer::Endpoint, request, || {
            self.inner.handle(request)
        })
    }

    fn operations(&self) -> Vec<String> {
        self.inner.operations()
    }

    fn on_crash(&self) {
        self.inner.on_crash()
    }
}
