//! Scheduler-independence of the ABD register: the exact same
//! put-then-get round spec — phase-1 read queries to the whole group,
//! majority replies, phase-2 imposition of `(max.seq + 1, self)`, majority
//! acks, then a get that observes the freshly written value and
//! read-imposes its tag unchanged — must pass unmodified under
//!
//! * the production **8-worker sharded-affinity scheduler with injected
//!   worker stalls** ([`SchedulerSpec::stall_at`]): stalled owners force
//!   helper wakes, steals and home migrations mid-protocol;
//! * a **single worker** (fully serialized execution); and
//! * the deterministic **simulation** backend.
//!
//! Atomic-register semantics (the paper's linearizability argument, §4)
//! are carried by the protocol's tags and majorities, never by scheduling
//! luck — so no run may distinguish the three.

use cats::abd::{
    AbdConfig, ConsistentAbd, GetRequest, GetResponse, PutGet, PutRequest, PutResponse,
};
use cats::key::RingKey;
use cats::msgs::{ReadQueryMsg, ReadReplyMsg, Tag, WriteAckMsg, WriteQueryMsg};
use cats::router::{FindGroup, GroupFound, Routing};
use kompics_core::prelude::{Config, SchedulerSpec};
use kompics_network::{Address, Message, Network};
use kompics_testing::{Matcher, Observed, PortHandle, SpecBuilder, TestContext};

const COORD: u64 = 1;

fn coordinator() -> ConsistentAbd {
    // Repair disabled: the spec scripts every network message.
    ConsistentAbd::new(
        Address::sim(COORD),
        AbdConfig {
            repair_period: None,
            ..AbdConfig::default()
        },
    )
}

fn group() -> Vec<Address> {
    vec![Address::sim(2), Address::sim(3), Address::sim(4)]
}

fn read_query_to(net: &PortHandle<Network>, dest: u64, key: u64) -> Matcher<Observed> {
    net.out_where::<ReadQueryMsg>(format!("ReadQueryMsg(k{key}) to {dest}"), move |q| {
        q.base.destination.id == dest && q.key.0 == key && q.base.source.id == COORD
    })
}

fn write_query_to(
    net: &PortHandle<Network>,
    dest: u64,
    tag: Tag,
    value: &[u8],
) -> Matcher<Observed> {
    let value = value.to_vec();
    net.out_where::<WriteQueryMsg>(
        format!("WriteQueryMsg(tag {}:{}) to {dest}", tag.seq, tag.writer),
        move |w| {
            w.base.destination.id == dest
                && w.tag == tag
                && w.value.as_deref() == Some(value.as_slice())
        },
    )
}

fn read_reply(from: u64, rid: u64, tag: Tag, value: Option<&[u8]>) -> ReadReplyMsg {
    ReadReplyMsg {
        base: Message::new(Address::sim(from), Address::sim(COORD)),
        rid,
        tag,
        value: value.map(<[u8]>::to_vec),
    }
}

fn write_ack(from: u64, rid: u64) -> WriteAckMsg {
    WriteAckMsg {
        base: Message::new(Address::sim(from), Address::sim(COORD)),
        rid,
    }
}

/// One complete ABD round: put "durable" over a stale majority, then get it
/// back. Written once; every backend below runs it verbatim.
fn abd_round(t: &mut TestContext<ConsistentAbd>) {
    let put_get = t.provided::<PutGet>();
    let net = t.required::<Network>();
    let routing = t.required::<Routing>();
    t.answer_request::<FindGroup, GroupFound, _>(&routing, |fg| GroupFound {
        reqid: fg.reqid,
        key: fg.key,
        group: group(),
    });

    // --- put -----------------------------------------------------------
    t.trigger(put_get.inject(PutRequest {
        id: 1,
        key: RingKey(42),
        value: b"durable".to_vec(),
    }));
    t.unordered(vec![
        read_query_to(&net, 2, 42),
        read_query_to(&net, 3, 42),
        read_query_to(&net, 4, 42),
    ]);
    // Majority replies; the highest tag seen is (7, 4).
    t.trigger(net.inject(read_reply(2, 1, Tag { seq: 7, writer: 4 }, Some(b"stale"))));
    t.trigger(net.inject(read_reply(4, 1, Tag { seq: 2, writer: 2 }, Some(b"older"))));
    // The write phase must impose (8, COORD) on the whole group — one past
    // the maximum, regardless of which worker ran which handler.
    let imposed = Tag {
        seq: 8,
        writer: COORD,
    };
    t.unordered(vec![
        write_query_to(&net, 2, imposed, b"durable"),
        write_query_to(&net, 3, imposed, b"durable"),
        write_query_to(&net, 4, imposed, b"durable"),
    ]);
    t.trigger(net.inject(write_ack(3, 1)));
    t.trigger(net.inject(write_ack(2, 1)));
    t.expect(put_get.out_where::<PutResponse>("PutResponse(1)", |r| r.id == 1));

    // --- get (rid 2: the coordinator's second operation) ----------------
    t.trigger(put_get.inject(GetRequest {
        id: 2,
        key: RingKey(42),
    }));
    t.unordered(vec![
        read_query_to(&net, 2, 42),
        read_query_to(&net, 3, 42),
        read_query_to(&net, 4, 42),
    ]);
    // Replica 3 missed the write; replica 2 has it. The get must return
    // the written value and read-impose its tag *unchanged*.
    t.trigger(net.inject(read_reply(2, 2, imposed, Some(b"durable"))));
    t.trigger(net.inject(read_reply(3, 2, Tag { seq: 7, writer: 4 }, Some(b"stale"))));
    t.unordered(vec![
        write_query_to(&net, 2, imposed, b"durable"),
        write_query_to(&net, 3, imposed, b"durable"),
        write_query_to(&net, 4, imposed, b"durable"),
    ]);
    t.trigger(net.inject(write_ack(4, 2)));
    t.trigger(net.inject(write_ack(3, 2)));
    t.expect(
        put_get.out_where::<GetResponse>("GetResponse(durable)", |r| {
            r.id == 2 && r.value.as_deref() == Some(b"durable")
        }),
    );
}

/// 8 workers, affinity routing, small inbound rings, and planted stalls on
/// the first four workers — the protocol handlers get stolen away from and
/// migrated between stalled owners mid-round.
#[test]
fn abd_round_under_stalled_affinity_scheduler() {
    let config = Config::default().workers(8).throughput(2).scheduler(
        SchedulerSpec::default()
            .inbound_capacity(4)
            .steal_batch(2)
            .stall_at(0, 1, 3)
            .stall_at(1, 2, 3)
            .stall_at(2, 3, 3)
            .stall_at(3, 1, 3),
    );
    let mut t = TestContext::threaded_with(config, coordinator);
    abd_round(&mut t);
    t.check().unwrap();
}

/// Same spec, one worker: fully serialized execution.
#[test]
fn abd_round_under_single_worker() {
    let config = Config::default().workers(1);
    let mut t = TestContext::threaded_with(config, coordinator);
    abd_round(&mut t);
    t.check().unwrap();
}

/// Same spec, deterministic simulation — and twice with the same seed, so
/// a scheduler-order dependence that slipped past the threaded runs would
/// still show up as a cross-backend divergence.
#[test]
fn abd_round_under_simulation() {
    for _ in 0..2 {
        let mut t = TestContext::simulated(0xABD, coordinator);
        abd_round(&mut t);
        t.check().unwrap();
    }
}
