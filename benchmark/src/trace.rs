//! The traced phase: one operation at a time with taps on every node's
//! `PutGet` and `Network` ports. Taps fire at trigger time, so the critical
//! path of an operation telescopes into ten stages whose durations add up to
//! the client's own measurement, with no instrumentation inside the program.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::api::{Cluster, TapEvent, Tapped, Wire, NODES};
use crate::load::{sequential, Done, OpStream, Tracker};
use crate::metrics::Outcome;
use crate::stats::quantile;

/// The stages of one operation's critical path, in order. Network stages
/// follow the replica whose reply completed the quorum.
pub const STAGES: [&str; 10] = [
    "abd.route_query",
    "net.query_p1",
    "abd.replica_read",
    "net.reply_p1",
    "abd.decide",
    "net.query_p2",
    "abd.replica_write",
    "net.reply_p2",
    "abd.complete",
    "client.deliver",
];
const COORDINATOR: [usize; 3] = [0, 4, 8];
const REPLICA: [usize; 2] = [2, 6];
const NETWORK: [usize; 4] = [1, 3, 5, 7];
const CLIENT: usize = 9;

/// Operations per block; blocks alternate untapped and tapped.
const BLOCK: usize = 100;
/// Tapped operations wanted.
const TRACED_OPS: usize = 2000;

/// One traced operation, decomposed.
struct TracedOp {
    coordinator: u64,
    rid: u64,
    sent: Instant,
    /// Boundaries of the ten stages: `edges[i]..edges[i + 1]` is stage `i`.
    edges: [Instant; 11],
}

impl TracedOp {
    fn e2e_ns(&self) -> u64 {
        (self.edges[10] - self.sent).as_nanos() as u64
    }
    fn stage_ns(&self, i: usize) -> u64 {
        self.edges[i + 1]
            .saturating_duration_since(self.edges[i])
            .as_nanos() as u64
    }
}

/// What the traced phase found.
pub struct Budget {
    ops: Vec<TracedOp>,
    /// Traced operations left out because ABD retried them.
    retried: usize,
    untapped_p50_us: f64,
    tapped_p50_us: f64,
}

/// The four stamps of one message exchange with one replica.
#[derive(Default, Clone, Copy)]
struct Exchange {
    query_sent: Option<Instant>,
    query_received: Option<Instant>,
    reply_sent: Option<Instant>,
    reply_received: Option<Instant>,
    duplicates: u32,
}

impl Exchange {
    fn complete(&self) -> Option<[Instant; 4]> {
        Some([
            self.query_sent?,
            self.query_received?,
            self.reply_sent?,
            self.reply_received?,
        ])
    }
}

fn stamp(slot: &mut Option<Instant>, at: Instant, duplicates: &mut u32) {
    if slot.is_some() {
        *duplicates += 1;
    } else {
        *slot = Some(at);
    }
}

/// Runs alternating untapped and tapped blocks of sequential operations for
/// about `seconds` and decomposes the tapped ones.
pub fn sequential_budget(
    cluster: &Cluster,
    tracker: &Tracker,
    stream: &mut OpStream,
    seconds: f64,
) -> Budget {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let events: Arc<Mutex<Vec<TapEvent>>> = Arc::default();
    let mut untapped: Vec<u64> = Vec::new();
    let mut tapped: Vec<(Done, usize)> = Vec::new();
    while tapped.len() < TRACED_OPS {
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        let plain = sequential(cluster, tracker, stream, BLOCK, left / 2);
        untapped.extend(plain.iter().map(|(d, _)| (d.at - d.from).as_nanos() as u64));
        let sink = Arc::clone(&events);
        let taps = cluster.tap(Arc::new(move |e| {
            sink.lock().expect("tap sink").push(e);
        }));
        let left = end.saturating_duration_since(Instant::now());
        tapped.extend(sequential(cluster, tracker, stream, BLOCK, left));
        taps.remove();
    }
    let events = std::mem::take(&mut *events.lock().expect("tap sink"));
    let p50_us = |sample: &mut Vec<u64>| {
        sample.sort_unstable();
        if sample.is_empty() {
            0.0
        } else {
            quantile(sample, 0.5) as f64 / 1e3
        }
    };
    let mut tapped_lat: Vec<u64> = tapped
        .iter()
        .map(|(d, _)| (d.at - d.from).as_nanos() as u64)
        .collect();
    let (ops, retried) = decompose(cluster, &tapped, &events);
    Budget {
        ops,
        retried,
        untapped_p50_us: p50_us(&mut untapped),
        tapped_p50_us: p50_us(&mut tapped_lat),
    }
}

fn decompose(
    cluster: &Cluster,
    tapped: &[(Done, usize)],
    events: &[TapEvent],
) -> (Vec<TracedOp>, usize) {
    let node_of: HashMap<u64, usize> = (0..NODES).map(|i| (cluster.node_id(i), i)).collect();
    // (coordinator id, rid, phase, replica node) → the exchange's stamps.
    let mut exchanges: HashMap<(u64, u64, u8, usize), Exchange> = HashMap::new();
    let mut requests: HashMap<u64, Instant> = HashMap::new();
    let mut responses: HashMap<u64, Instant> = HashMap::new();
    // Per coordinator node, its first-phase sends in time order, to find the
    // rid ABD gave to a client operation.
    let mut first_sends: Vec<Vec<(Instant, u64)>> = vec![Vec::new(); NODES];
    for e in events {
        let here = cluster.node_id(e.node);
        match e.what {
            Tapped::Request { op_id } => {
                requests.entry(op_id).or_insert(e.at);
            }
            Tapped::Response { op_id } => {
                responses.entry(op_id).or_insert(e.at);
            }
            Tapped::Sent { wire, rid, peer } | Tapped::Received { wire, rid, peer } => {
                let sending = matches!(e.what, Tapped::Sent { .. });
                let phase = match wire {
                    Wire::ReadQuery | Wire::ReadReply => 1,
                    Wire::WriteQuery | Wire::WriteAck => 2,
                };
                let is_query = matches!(wire, Wire::ReadQuery | Wire::WriteQuery);
                // Queries leave the coordinator and arrive at the replica;
                // replies travel the other way.
                let (coordinator, replica) = if is_query == sending {
                    (here, peer)
                } else {
                    (peer, here)
                };
                let Some(&replica_node) = node_of.get(&replica) else {
                    continue;
                };
                let x = exchanges
                    .entry((coordinator, rid, phase, replica_node))
                    .or_default();
                let slot = match (is_query, sending) {
                    (true, true) => &mut x.query_sent,
                    (true, false) => &mut x.query_received,
                    (false, true) => &mut x.reply_sent,
                    (false, false) => &mut x.reply_received,
                };
                stamp(slot, e.at, &mut x.duplicates);
                if sending && wire == Wire::ReadQuery {
                    first_sends[e.node].push((e.at, rid));
                }
            }
        }
    }
    for sends in &mut first_sends {
        sends.sort();
    }
    let mut ops = Vec::new();
    let mut retried = 0;
    for (done, node) in tapped {
        let (Some(&entered), Some(&answered)) =
            (requests.get(&done.op_id), responses.get(&done.op_id))
        else {
            continue;
        };
        let sends = &first_sends[*node];
        let Some(&(_, rid)) = sends.get(sends.partition_point(|(at, _)| *at < entered)) else {
            continue;
        };
        let coordinator = cluster.node_id(*node);
        // The quorum-completing replica of a phase is the one whose reply
        // was the second to reach the coordinator.
        let critical = |phase: u8| -> Option<Result<[Instant; 4], ()>> {
            let mut complete: Vec<[Instant; 4]> = Vec::new();
            for replica in 0..NODES {
                let x = exchanges.get(&(coordinator, rid, phase, replica))?;
                if x.duplicates > 0 {
                    return Some(Err(()));
                }
                complete.extend(x.complete());
            }
            complete.sort_by_key(|stamps| stamps[3]);
            complete.get(NODES / 2).copied().map(Ok)
        };
        match (critical(1), critical(2)) {
            (Some(Ok(p1)), Some(Ok(p2))) => ops.push(TracedOp {
                coordinator,
                rid,
                sent: done.from,
                edges: [
                    entered, p1[0], p1[1], p1[2], p1[3], p2[0], p2[1], p2[2], p2[3], answered,
                    done.at,
                ],
            }),
            (Some(Err(())), _) | (_, Some(Err(()))) => retried += 1,
            _ => {}
        }
    }
    (ops, retried)
}

/// Mean of each stage, and of the whole, over a set of operations, in µs.
fn stage_means(ops: &[&TracedOp]) -> ([f64; 10], f64) {
    let n = ops.len().max(1) as f64;
    let mut stages = [0.0; 10];
    for (i, s) in stages.iter_mut().enumerate() {
        *s = ops.iter().map(|o| o.stage_ns(i) as f64).sum::<f64>() / n / 1e3;
    }
    let e2e = ops.iter().map(|o| o.e2e_ns() as f64).sum::<f64>() / n / 1e3;
    (stages, e2e)
}

impl Budget {
    /// Operations sorted by end-to-end time.
    fn sorted(&self) -> Vec<&TracedOp> {
        let mut ops: Vec<&TracedOp> = self.ops.iter().collect();
        ops.sort_by_key(|o| o.e2e_ns());
        ops
    }

    /// The typical operations: the middle half by end-to-end time. Like a
    /// median, their mean ignores both tails; unlike per-stage medians, stage
    /// means over them add up exactly to their mean end-to-end time, less
    /// the client's own issue path before the first tap (the residual).
    fn typical(&self) -> Vec<&TracedOp> {
        let ops = self.sorted();
        ops[ops.len() / 4..(ops.len() * 3).div_ceil(4)].to_vec()
    }

    /// The slowest twentieth.
    fn tail(&self) -> Vec<&TracedOp> {
        let ops = self.sorted();
        ops[ops.len() - ops.len().div_ceil(20)..].to_vec()
    }

    /// Sets the `trace.*` metrics and writes the span file.
    pub fn report(&self, workload: &str, out: &mut Outcome) {
        out.set("trace.ops", self.ops.len() as f64);
        if self.ops.is_empty() {
            out.invalid("no operation could be traced end to end".into());
            return;
        }
        let (stages, e2e_us) = stage_means(&self.typical());
        let sum_of = |idx: &[usize]| idx.iter().map(|&i| stages[i]).sum::<f64>();
        out.set("trace.e2e_us", e2e_us);
        out.set("trace.abd_coord_us", sum_of(&COORDINATOR));
        out.set("trace.abd_replica_us", sum_of(&REPLICA));
        out.set("trace.net_hop_us", sum_of(&NETWORK) / NETWORK.len() as f64);
        out.set("trace.client_deliver_us", stages[CLIENT]);
        out.set("trace.residual_us", e2e_us - stages.iter().sum::<f64>());
        if self.untapped_p50_us > 0.0 {
            out.set(
                "trace.overhead_pct",
                (self.tapped_p50_us / self.untapped_p50_us - 1.0) * 100.0,
            );
        }
        let residual_share = out.get("trace.residual_us").abs() / e2e_us;
        if residual_share >= 0.05 {
            out.invalid(format!(
                "stage budget leaves {:.1} % of trace.e2e_us unexplained",
                residual_share * 100.0
            ));
        }
        match self.write_spans(workload) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("spans not written: {e}"),
        }
    }

    /// The budget table, with the per-message codec cost (from the probes)
    /// splitting a network hop into encode + decode + transport remainder.
    pub fn print_table(&self, workload: &str, out: &Outcome) {
        if self.ops.is_empty() {
            return;
        }
        let (typical, typical_e2e) = stage_means(&self.typical());
        let (tail, tail_e2e) = stage_means(&self.tail());
        eprintln!(
            "── {workload}: stage budget of {} traced operations, 1 in flight ({} retried, left out) ──",
            self.ops.len(),
            self.retried
        );
        eprintln!(
            "  {:<22} {:>12} {:>14}",
            "stage", "typical µs", "slowest 5% µs"
        );
        for (i, name) in STAGES.iter().enumerate() {
            eprintln!("  {:<22} {:>12.1} {:>14.1}", name, typical[i], tail[i]);
        }
        eprintln!(
            "  {:<22} {:>12.1} {:>14.1}",
            "sum of stages",
            typical.iter().sum::<f64>(),
            tail.iter().sum::<f64>()
        );
        eprintln!(
            "  {:<22} {:>12.1} {:>14.1}",
            "end to end (mean)", typical_e2e, tail_e2e
        );
        eprintln!(
            "  residual {:.1} µs = {:.2} % of trace.e2e_us (the client's own issue path, before \
             the first tap); tap overhead {:.1} % (p50 {:.1} µs tapped, {:.1} µs untapped)",
            out.get("trace.residual_us"),
            out.get("trace.residual_us") / out.get("trace.e2e_us") * 100.0,
            out.get("trace.overhead_pct"),
            self.tapped_p50_us,
            self.untapped_p50_us
        );
        let stalled = self.ops.iter().filter(|o| o.e2e_ns() > 10_000_000).count();
        eprintln!(
            "  {stalled} of {} operations took longer than 10 ms",
            self.ops.len()
        );
        let hop = out.get("trace.net_hop_us");
        // One operation is 12 messages.
        let encode = out.get("codec.encode_ns_per_op") / 12.0 / 1e3;
        let decode = out.get("codec.decode_ns_per_op") / 12.0 / 1e3;
        eprintln!(
            "  one network hop {hop:.1} µs = encode {encode:.2} + decode {decode:.2} + transport \
             and wake-ups {:.1}",
            hop - encode - decode
        );
    }

    fn write_spans(&self, workload: &str) -> std::io::Result<PathBuf> {
        let mut spans = Vec::new();
        for op in &self.ops {
            let root = spans.len();
            let tag = (op.coordinator, op.rid);
            spans.push(Span {
                name: "op",
                parent: None,
                op: tag,
                start: op.sent,
                end: op.edges[10],
            });
            for (i, name) in STAGES.iter().enumerate() {
                spans.push(Span {
                    name,
                    parent: Some(root),
                    op: tag,
                    start: op.edges[i],
                    end: op.edges[i + 1],
                });
            }
        }
        write_span_file(workload, &spans)
    }
}

/// One span: what ran, inside which span, for which operation, from when to
/// when. Its id is its position in the file.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// `(coordinator id, rid)` for a request; `(execution, 0)` for `sim_churn`.
    pub op: (u64, u64),
    pub start: Instant,
    pub end: Instant,
}

/// Writes the spans kept in memory during a traced run, as one JSON array,
/// to `$CARGO_TARGET_DIR/kbench/trace-<workload>.json`; times are nanoseconds
/// since the earliest span began.
pub fn write_span_file(workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("target".into())).join("kbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    let origin = spans.iter().map(|s| s.start).min();
    let ns = |at: Instant| origin.map_or(0, |o| at.saturating_duration_since(o).as_nanos());
    let mut text = String::from("[");
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            text,
            "{}\n{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"op\": [{}, {}], \
             \"start_ns\": {}, \"end_ns\": {}}}",
            if id == 0 { "" } else { "," },
            span.name,
            span.op.0,
            span.op.1,
            ns(span.start),
            ns(span.end)
        );
    }
    text.push_str("\n]\n");
    std::fs::write(&path, text)?;
    Ok(path)
}
