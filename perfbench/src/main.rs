//! End-to-end negotiation benchmark through the full TN-service stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload join_strangers --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs whole rounds of one workload until `--seconds` have passed,
//! checks every round's outputs, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics and the layer ledger
//! (`--trace 1`). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod alloc;
mod bench;
mod ledger;
mod probe;
mod stats;
mod sys;
mod world;

use std::fmt::Write as _;
use std::time::Instant;

use bench::{Mode, Round, Sizes, Workload};
use ledger::Analysis;
use probe::{Layer, Op, LAYER_NAMES};
use stats::{median, quantile};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Round index of the untimed warm-up round.
const WARM_UP: u64 = 1 << 40;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut sizes = Sizes::FULL;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => sizes = Sizes::SMOKE,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        sizes,
    })
}

/// One run's result: what the last line reports, plus the report lines.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    report: String,
}

fn round_of(w: Workload, sizes: &Sizes, seed: u64, round: u64, mode: Mode) -> Round {
    match w {
        Workload::ConceptDrift => bench::drift_round(sizes, seed, round, mode),
        _ => bench::formation_round(w, sizes, seed, round, mode),
    }
}

/// Run whole rounds of `w` for at least `seconds` (and, traced, at least
/// one round of each mode), then summarise.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> Outcome {
    let warm = round_of(w, sizes, seed, WARM_UP, Mode::Plain);
    let mut errors = warm.errors.clone();
    drop(warm);
    let start = Instant::now();
    let mut rounds: Vec<(Mode, Round)> = Vec::new();
    loop {
        let r = rounds.len() as u64;
        let mode = if trace {
            [Mode::Plain, Mode::Traced, Mode::Collector][r as usize % 3]
        } else {
            Mode::Plain
        };
        rounds.push((mode, round_of(w, sizes, seed, r, mode)));
        let last = &rounds.last().expect("round").1;
        eprintln!(
            "round {r} {mode:?}: setup {:.4} s, {} negotiations in {:.4} s ({:.1}/s, cpu {:.4} ms/neg)",
            last.setup_s,
            last.completed(),
            last.timed_s,
            last.completed() as f64 / last.timed_s,
            last.cpu_s * 1e3 / last.completed().max(1) as f64
        );
        if start.elapsed().as_secs_f64() >= seconds && (!trace || rounds.len() >= 3) {
            break;
        }
    }
    if matches!(
        w,
        Workload::LossyFormation | Workload::LossyParallelFormation
    ) {
        let reference = bench::reference_roster(w, sizes, seed, 0);
        if reference != rounds[0].1.rosters {
            errors.push("lossy roster differs from the loss-free serial one".into());
        }
    }
    for (i, (_, r)) in rounds.iter().enumerate() {
        errors.extend(r.errors.iter().map(|e| format!("round {i}: {e}")));
    }
    let attempted: u64 = rounds.iter().map(|(_, r)| r.attempted).sum();
    let completed: u64 = rounds.iter().map(|(_, r)| r.completed()).sum();
    let mut out = Outcome {
        correct: false,
        attempted,
        failed: attempted.saturating_sub(completed),
        metrics: Vec::new(),
        report: String::new(),
    };
    if trace {
        per_layer(w, &rounds, &mut out, &mut errors);
    } else {
        end_to_end(&rounds, &mut out);
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    out.correct = errors.is_empty();
    out
}

fn per_neg(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The end-to-end metrics. Every timing is first taken per round (a
/// fixed amount of work) and the run reports the median over its rounds:
/// on the shared host this runs on, the speed of the whole machine
/// drifts by ±20% in phases lasting seconds, and the median over a long
/// run of short rounds is the statistic that drifts least. Simulated
/// time is deterministic and pooled over every round.
fn end_to_end(all: &[(Mode, Round)], out: &mut Outcome) {
    let rounds: Vec<&Round> = all.iter().map(|(_, r)| r).collect();
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let latency = |r: &Round, q: f64| {
        let ms: Vec<f64> = r
            .negs
            .iter()
            .filter(|n| !n.failed)
            .map(|n| n.latency_ns as f64 / 1e6)
            .collect();
        quantile(&ms, q)
    };
    let completed: u64 = rounds.iter().map(|r| r.completed()).sum();
    let sim: f64 = rounds.iter().map(|r| r.sim_s).sum();
    out.metrics = vec![
        (
            "negotiations_per_s",
            median(&per_round(&|r| r.completed() as f64 / r.timed_s)),
            "1/s",
        ),
        (
            "negotiation_p50_ms",
            median(&per_round(&|r| latency(r, 0.5))),
            "ms",
        ),
        (
            "negotiation_p90_ms",
            median(&per_round(&|r| latency(r, 0.9))),
            "ms",
        ),
        (
            "cpu_ms_per_negotiation",
            median(&per_round(&|r| per_neg(r.cpu_s * 1e3, r.completed()))),
            "ms",
        ),
        ("sim_s_per_negotiation", per_neg(sim, completed), "s"),
        ("setup_s", median(&per_round(&|r| r.setup_s)), "s"),
        ("peak_rss_mib", sys::peak_rss_kib() as f64 / 1024.0, "MiB"),
    ];
    let all_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.negs.iter().filter(|n| !n.failed))
        .map(|n| n.latency_ns as f64 / 1e6)
        .collect();
    let _ = writeln!(
        out.report,
        "rounds {} | negotiations {completed} | latency samples per round {}",
        rounds.len(),
        all_ms.len() / rounds.len().max(1)
    );
    if let Some(p) = stats::tail_percentile(all_ms.len()) {
        let _ = writeln!(
            out.report,
            "negotiation_p{p}_ms over every round (not gated) = {:.4}",
            quantile(&all_ms, p / 100.0)
        );
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn wall_us_per_neg(rounds: &[(Mode, Round)], mode: Mode) -> f64 {
    let v: Vec<f64> = rounds
        .iter()
        .filter(|(m, _)| *m == mode)
        .map(|(_, r)| per_neg(r.timed_s * 1e6, r.completed()))
        .collect();
    median(&v)
}

fn per_layer(w: Workload, rounds: &[(Mode, Round)], out: &mut Outcome, errors: &mut Vec<String>) {
    let traced: Vec<&Round> = rounds
        .iter()
        .filter(|(m, _)| *m == Mode::Traced)
        .map(|(_, r)| r)
        .collect();
    let mut a = Analysis::default();
    for r in &traced {
        let one = ledger::analyse(&r.spans);
        if one.ledger.self_ns.iter().sum::<u64>() != one.ledger.total_ns {
            errors.push("the layer ledger does not partition the wall total".into());
        }
        a.ledger.total_ns += one.ledger.total_ns;
        for l in 0..4 {
            a.ledger.self_ns[l] += one.ledger.self_ns[l];
            add(&mut a.layer[l], &one.layer[l]);
            add(&mut a.endpoint_op[l], &one.endpoint_op[l]);
        }
        a.attributed_cpu_ns += one.attributed_cpu_ns;
    }
    let n: u64 = traced.iter().map(|r| r.completed()).sum();
    let sum = |f: &dyn Fn(&Round) -> f64| traced.iter().map(|r| f(r)).sum::<f64>();
    let replay = |f: &dyn Fn(&bench::Replays) -> f64| mean(traced.iter().map(|r| f(&r.replays)));
    let layer = |l: Layer| a.layer[l as usize];
    let op = |o: Op| a.endpoint_op[o as usize];
    let per_call = |s: ledger::Sums, ns: u64| per_neg(ns as f64 / 1e3, s.count);
    let bus = layer(Layer::Bus);
    let endpoint = layer(Layer::Endpoint);
    let work = |f: &dyn Fn(&bench::Counters) -> u64| sum(&|r| f(&r.work) as f64);
    let lookups = work(&|c| c.cache_hits + c.cache_misses);
    let policies = if w == Workload::ConceptDrift {
        replay(&|r| r.policies_disclosed)
    } else {
        per_neg(sum(&|r| r.policies_disclosed as f64), n)
    };
    let plain_us = wall_us_per_neg(rounds, Mode::Plain);
    let traced_us = wall_us_per_neg(rounds, Mode::Traced);
    let register: Vec<f64> = rounds
        .iter()
        .map(|(_, r)| r.register_us_per_party)
        .collect();
    let total = a.ledger.total_ns.max(1) as f64;
    // The replays are set against the layer that runs the negotiation
    // engine: the TN service when formation goes through it, the
    // operation call (`vo`) when negotiation is in-process.
    let (engine_layer, engine_us, parts) = if w == Workload::ConceptDrift {
        (
            "vo",
            per_neg(a.ledger.self_ns[Layer::Vo as usize] as f64 / 1e3, n),
            vec![("negotiate", replay(&|r| r.negotiate_us))],
        )
    } else {
        (
            "soa.tn_service",
            per_neg(endpoint.dur_ns as f64 / 1e3, n),
            vec![
                ("evaluate_policies", replay(&|r| r.evaluate_us)),
                ("verify_disclosure", replay(&|r| r.verify_us)),
                ("xmldoc", replay(&|r| r.xml_us)),
                ("store+journal", replay(&|r| r.store_journal_us)),
                ("crypto.sign", replay(&|r| r.sign_us)),
            ],
        )
    };
    let residual_us = engine_us - parts.iter().map(|(_, v)| v).sum::<f64>();
    let unattributed_cpu_us = per_neg(
        sum(&|r| r.cpu_s) * 1e6 - a.attributed_cpu_ns as f64 / 1e3,
        n,
    );
    let resumes = per_neg(sum(&|r| r.resilience.resumes as f64), n);
    out.metrics = vec![
        (
            "vo.self_us_per_negotiation",
            per_neg(a.ledger.self_ns[0] as f64 / 1e3, n),
            "us",
        ),
        (
            "vo.authorize_operation_us",
            mean(traced.iter().map(|r| r.op_us.0)),
            "us",
        ),
        (
            "vo.renew_membership_us",
            mean(traced.iter().map(|r| r.op_us.1)),
            "us",
        ),
        (
            "soa.client.calls_per_negotiation",
            per_neg(bus.count as f64, n),
            "count",
        ),
        (
            "soa.client.retries_per_negotiation",
            per_neg(sum(&|r| r.resilience.retries as f64), n),
            "count",
        ),
        ("soa.bus.self_us_per_call", per_call(bus, bus.self_ns), "us"),
        (
            "soa.wire.kib_per_negotiation",
            replay(&|r| r.wire_kib),
            "KiB",
        ),
        (
            "admission.gate_us_per_call",
            per_call(layer(Layer::Gate), layer(Layer::Gate).dur_ns),
            "us",
        ),
        (
            "soa.tn_service.policy_exchange_us",
            per_call(op(Op::Policy), op(Op::Policy).dur_ns),
            "us/call",
        ),
        (
            "soa.tn_service.credential_exchange_us",
            per_call(op(Op::Credential), op(Op::Credential).dur_ns),
            "us/call",
        ),
        (
            "soa.tn_service.start_us",
            per_call(op(Op::Start), op(Op::Start).dur_ns),
            "us/call",
        ),
        (
            "soa.tn_service.wait_us_per_negotiation",
            per_neg((endpoint.dur_ns as f64 - endpoint.cpu_ns as f64) / 1e3, n),
            "us",
        ),
        (
            "soa.tn_service.register_us_per_party",
            median(&register),
            "us",
        ),
        (
            "negotiation.evaluate_policies_us",
            replay(&|r| r.evaluate_us),
            "us/negotiation",
        ),
        (
            "negotiation.negotiate_us",
            replay(&|r| r.negotiate_us),
            "us",
        ),
        (
            "policy.policies_disclosed_per_negotiation",
            policies,
            "count",
        ),
        (
            "ontology.similarity_scans_per_negotiation",
            per_neg(work(&|c| c.scans), n),
            "count",
        ),
        (
            "ontology.match_us_per_scan",
            replay(&|r| r.match_us_per_scan),
            "us",
        ),
        (
            "credential.cache_hit_ratio",
            if lookups > 0.0 {
                work(&|c| c.cache_hits) / lookups
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "credential.verify_us_per_disclosure",
            replay(&|r| r.verify_us_per_disclosure),
            "us",
        ),
        (
            "crypto.signs_per_negotiation",
            per_neg(work(&|c| c.signs), n),
            "count",
        ),
        (
            "crypto.verifies_per_negotiation",
            per_neg(work(&|c| c.verifies), n),
            "count",
        ),
        (
            "crypto.sign_us_per_negotiation",
            replay(&|r| r.sign_us),
            "us",
        ),
        (
            "xmldoc.serialize_us_per_negotiation",
            replay(&|r| r.xml_us),
            "us",
        ),
        (
            "store.ops_per_negotiation",
            per_neg(sum(&|r| r.store_ops as f64), n),
            "count",
        ),
        (
            "journal.kib_per_negotiation",
            per_neg(sum(&|r| r.journal.1 as f64) / 1024.0, n),
            "KiB",
        ),
        (
            "journal.appends_per_negotiation",
            per_neg(sum(&|r| r.journal.0 as f64), n),
            "count",
        ),
        (
            "memory.retained_kib_per_negotiation",
            per_neg(
                (work(&|c| c.alloc_bytes) - work(&|c| c.freed_bytes)) / 1024.0,
                n,
            ),
            "KiB",
        ),
        (
            "netsim.drops_per_negotiation",
            per_neg(sum(&|r| r.drops as f64), n),
            "count",
        ),
        (
            "obs.collector_us_per_negotiation",
            wall_us_per_neg(rounds, Mode::Collector) - plain_us,
            "us",
        ),
        (
            "alloc.count_per_negotiation",
            per_neg(work(&|c| c.allocs), n),
            "count",
        ),
        (
            "alloc.kib_per_negotiation",
            per_neg(work(&|c| c.alloc_bytes) / 1024.0, n),
            "KiB",
        ),
        (
            "vo.allocs_per_negotiation",
            per_neg(layer(Layer::Vo).self_allocs as f64, n),
            "count",
        ),
        (
            "soa.bus.allocs_per_call",
            per_neg(bus.self_allocs as f64, bus.count),
            "count",
        ),
        (
            "soa.tn_service.allocs_per_call",
            per_neg(endpoint.self_allocs as f64, endpoint.count),
            "count",
        ),
        (
            "ledger.replay_residual_us_per_negotiation",
            residual_us,
            "us",
        ),
        (
            "trace.overhead_us_per_negotiation",
            traced_us - plain_us,
            "us",
        ),
    ];

    let r = &mut out.report;
    let _ = writeln!(
        r,
        "ledger: {} traced rounds, {n} negotiations, wall total {:.3} ms",
        traced.len(),
        total / 1e6
    );
    let _ = writeln!(
        r,
        "  {:<16} {:>12} {:>8} {:>14}",
        "layer", "self ms", "share", "us/negotiation"
    );
    for (l, name) in LAYER_NAMES.iter().enumerate() {
        let ns = a.ledger.self_ns[l];
        let _ = writeln!(
            r,
            "  {name:<16} {:>12.3} {:>7.2}% {:>14.2}",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total,
            per_neg(ns as f64 / 1e3, n)
        );
    }
    let _ = writeln!(
        r,
        "  {:<16} {:>12.3} {:>7.2}%   (sum of layers = wall total: {})",
        "total",
        a.ledger.self_ns.iter().sum::<u64>() as f64 / 1e6,
        100.0 * a.ledger.self_ns.iter().sum::<u64>() as f64 / total,
        a.ledger.self_ns.iter().sum::<u64>() == a.ledger.total_ns
    );
    let _ = write!(r, "  {engine_layer} {engine_us:.2} us/negotiation =");
    for (name, v) in &parts {
        let _ = write!(r, " {name} {v:.2} +");
    }
    let _ = writeln!(r, " residual {residual_us:.2} (replays re-run each layer's public functions on the same inputs)");
    if w == Workload::ConceptDrift {
        let _ = writeln!(
            r,
            "  vo per operation: authorize_operation {:.2} us, renew_membership {:.2} us ({:.1}% of the timed region)",
            mean(traced.iter().map(|r| r.op_us.0)),
            mean(traced.iter().map(|r| r.op_us.1)),
            100.0 * mean(traced.iter().map(|r| r.renew_share)),
        );
    }
    // Not in BENCHMARK.json: both read about 0 on every listed workload
    // (README: *Left out*).
    let _ = writeln!(
        r,
        "  process CPU outside every timed call (soa.shard spinning, when sharded): {unattributed_cpu_us:.2} us/negotiation; checkpoint resumes: {resumes:.5} per negotiation"
    );
    let bus_us = per_neg(bus.self_ns as f64 / 1e3, n);
    let _ = writeln!(
        r,
        "  soa.bus self {bus_us:.2} us/negotiation = wire framing+codec {:.2} + residual {:.2}",
        replay(&|r| r.wire_us),
        bus_us - replay(&|r| r.wire_us)
    );
    let _ = writeln!(
        r,
        "  tracing overhead: traced {traced_us:.2} us/negotiation vs untraced {plain_us:.2} = {:+.2} us ({:+.1}%)",
        traced_us - plain_us,
        100.0 * (traced_us - plain_us) / plain_us.max(1e-9)
    );
    write_spans(w, &traced);
}

fn add(into: &mut ledger::Sums, from: &ledger::Sums) {
    into.count += from.count;
    into.dur_ns += from.dur_ns;
    into.self_ns += from.self_ns;
    into.cpu_ns += from.cpu_ns;
    into.self_allocs += from.self_allocs;
}

/// Write the traced rounds' spans to `perfbench/out/<workload>.spans.tsv`.
fn write_spans(w: Workload, traced: &[&Round]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let name = format!("{dir}/{w:?}.spans.tsv");
    let mut text = String::from(
        "round\tid\tparent\tlayer\top\tthread\tneg\tstart_ns\tend_ns\tcpu_ns\tallocs\n",
    );
    for (i, r) in traced.iter().enumerate() {
        for s in &r.spans {
            let _ = writeln!(
                text,
                "{i}\t{}\t{}\t{}\t{:?}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                if s.parent == probe::NONE {
                    -1
                } else {
                    i64::from(s.parent)
                },
                LAYER_NAMES[s.layer as usize],
                s.op,
                s.thread,
                s.neg,
                s.start,
                s.end,
                s.cpu,
                s.allocs
            );
        }
    }
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&name, text)) {
        eprintln!("could not write {name}: {e}");
    }
}

fn json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <join_strangers|concept_drift|lossy_formation|lossy_parallel_formation> --seed <n> --seconds <s> --trace <0|1> [--smoke]");
            std::process::exit(2);
        }
    };
    let out = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &args.sizes,
    );
    println!(
        "workload {} seed {} trace {} | attempted {} failed {} | correct {}",
        args.name, args.seed, args.trace as u8, out.attempted, out.failed, out.correct
    );
    print!("{}", out.report);
    for (name, value, unit) in &out.metrics {
        println!("  {name:<50} {value:>14.6} {unit}");
    }
    println!("{}", json(&out));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at smoke size, traced and untraced, passes its
    /// output checks with no failed negotiation, and the traced ledger
    /// partitions its wall total.
    #[test]
    fn smoke_every_workload() {
        for w in [
            Workload::JoinStrangers,
            Workload::ConceptDrift,
            Workload::LossyFormation,
            Workload::LossyParallelFormation,
        ] {
            for trace in [false, true] {
                let out = run(w, 11, 0.0, trace, &Sizes::SMOKE);
                assert!(out.correct, "{w:?} trace={trace} failed its checks");
                assert!(out.attempted > 0);
                assert_eq!(out.failed, 0, "{w:?}");
                assert!(out.metrics.iter().all(|(_, v, _)| v.is_finite()));
            }
        }
    }
}
