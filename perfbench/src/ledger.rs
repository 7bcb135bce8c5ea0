//! From recorded spans to the per-layer ledger.
//!
//! The ledger partitions the measured wall total (the summed duration of
//! every `vo` span) among the four boundaries exactly, in integer
//! nanoseconds. The wall interval is cut at every span start and end;
//! in each piece, a span is *leaf-active* when it is open and none of
//! its children is, and the piece's length is shared equally among the
//! leaf-active spans (the remainder of the integer division goes to the
//! layer holding the most of them). On one thread this is the usual self
//! time — a span minus the part of it its children cover. With calls on
//! several threads, concurrent calls split the wall time they share, and
//! the `vo` span keeps only the time no call was in flight.

use std::collections::HashMap;

use crate::probe::{Layer, Span, NONE};

/// The exact partition of the wall total among the four layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    /// Summed `vo` span wall time, ns.
    pub total_ns: u64,
    /// Share of it charged to each layer, ns; sums to `total_ns`.
    pub self_ns: [u64; 4],
}

/// Plain (unshared) per-span sums.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sums {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub dur_ns: u64,
    /// Summed duration minus same-thread child durations, ns.
    pub self_ns: u64,
    /// Summed thread CPU inside the spans, ns.
    pub cpu_ns: u64,
    /// Allocations inside the spans minus those inside their children.
    pub self_allocs: u64,
}

/// Everything the traced rounds' spans give.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// The exact wall partition.
    pub ledger: Ledger,
    /// Per layer.
    pub layer: [Sums; 4],
    /// Endpoint spans per TN-service operation.
    pub endpoint_op: [Sums; 4],
    /// Thread CPU inside every span that is outermost on its thread, ns.
    pub attributed_cpu_ns: u64,
}

/// Partition and summarise `spans`.
pub fn analyse(spans: &[Span]) -> Analysis {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent: Vec<Option<usize>> = spans
        .iter()
        .map(|s| {
            (s.parent != NONE)
                .then(|| index.get(&s.parent).copied())
                .flatten()
        })
        .collect();

    let mut out = Analysis {
        ledger: partition(spans, &parent),
        ..Analysis::default()
    };
    let mut child_dur = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = parent[i] {
            if spans[p].thread == s.thread || spans[p].layer == Layer::Vo {
                child_allocs[p] += s.allocs;
            }
            if spans[p].thread == s.thread {
                child_dur[p] += s.end - s.start;
            }
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end - s.start;
        let sum = &mut out.layer[s.layer as usize];
        sum.count += 1;
        sum.dur_ns += dur;
        sum.self_ns += dur.saturating_sub(child_dur[i]);
        sum.cpu_ns += s.cpu;
        sum.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
        if s.layer == Layer::Endpoint {
            let op = &mut out.endpoint_op[s.op as usize];
            op.count += 1;
            op.dur_ns += dur;
            op.self_ns += dur;
            op.cpu_ns += s.cpu;
            op.self_allocs += s.allocs;
        }
        let outermost = match parent[i] {
            None => true,
            Some(p) => spans[p].thread != s.thread,
        };
        if outermost {
            out.attributed_cpu_ns += s.cpu;
        }
    }
    out
}

fn partition(spans: &[Span], parent: &[Option<usize>]) -> Ledger {
    // (time, 0 = end / 1 = start, span): ends first at equal times.
    let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start, 1, i));
        events.push((s.end, 0, i));
    }
    events.sort_unstable();
    let mut open = vec![false; spans.len()];
    let mut open_children = vec![0u32; spans.len()];
    let mut leaves = [0u64; 4];
    let mut ledger = Ledger::default();
    let mut last = events.first().map_or(0, |e| e.0);
    for &(t, kind, i) in &events {
        let k: u64 = leaves.iter().sum();
        let d = t - last;
        if k > 0 && d > 0 {
            let mut given = 0;
            for (l, &n) in leaves.iter().enumerate() {
                let share = d * n / k;
                ledger.self_ns[l] += share;
                given += share;
            }
            let top = (0..4)
                .max_by_key(|&l| (leaves[l], 4 - l))
                .expect("four layers");
            ledger.self_ns[top] += d - given;
        }
        last = t;
        let layer = spans[i].layer as usize;
        if kind == 1 {
            open[i] = true;
            leaves[layer] += 1;
            if let Some(p) = parent[i].filter(|&p| open[p]) {
                if open_children[p] == 0 {
                    leaves[spans[p].layer as usize] -= 1;
                }
                open_children[p] += 1;
            }
        } else {
            open[i] = false;
            if open_children[i] == 0 {
                leaves[layer] -= 1;
            }
            if let Some(p) = parent[i].filter(|&p| open[p]) {
                open_children[p] -= 1;
                if open_children[p] == 0 {
                    leaves[spans[p].layer as usize] += 1;
                }
            }
        }
    }
    ledger.total_ns = spans
        .iter()
        .filter(|s| s.layer == Layer::Vo)
        .map(|s| s.end - s.start)
        .sum();
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Op;

    fn span(id: u32, parent: u32, layer: Layer, thread: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            op: Op::Other,
            thread,
            neg: 0,
            start,
            end,
            cpu: 0,
            allocs: 0,
        }
    }

    #[test]
    fn serial_partition_is_self_time() {
        let spans = [
            span(0, NONE, Layer::Vo, 0, 0, 100),
            span(1, 0, Layer::Bus, 0, 10, 60),
            span(2, 1, Layer::Gate, 0, 12, 15),
            span(3, 1, Layer::Endpoint, 0, 20, 50),
        ];
        let a = analyse(&spans);
        assert_eq!(a.ledger.total_ns, 100);
        assert_eq!(a.ledger.self_ns, [50, 17, 3, 30]);
    }

    #[test]
    fn concurrent_calls_share_wall_time_exactly() {
        let spans = [
            span(0, NONE, Layer::Vo, 0, 0, 101),
            span(1, 0, Layer::Bus, 1, 10, 60),
            span(2, 0, Layer::Bus, 2, 30, 90),
            span(3, 2, Layer::Endpoint, 2, 40, 43),
        ];
        let a = analyse(&spans);
        assert_eq!(a.ledger.self_ns.iter().sum::<u64>(), a.ledger.total_ns);
        // vo keeps only the time with no call in flight: 10 + 11.
        assert_eq!(a.ledger.self_ns[Layer::Vo as usize], 21);
    }
}
