//! Runtime conformance of the live ABD coordinator against the projection
//! of the `abd-operation` choreography ([`cats::choreo`]).
//!
//! The spec bodies here are coordinator specs in the style of
//! `component_specs.rs`; the only addition is a [`ConformanceMonitor`]
//! compiled from the very same choreography the static checker proves
//! stuck-free, tapped onto both halves of the coordinator's `Network` port.
//! Each spec runs under the threaded scheduler and the deterministic
//! simulation, and must leave the monitor with zero violations and one
//! completed session per operation — whether the operation ended after the
//! read round (a get whose quorum agreed) or after the write round.

use cats::abd::{
    AbdConfig, ConsistentAbd, GetRequest, GetResponse, PutGet, PutRequest, PutResponse,
};
use cats::choreo::{abd_bindings, abd_classify, abd_operation_default, COORDINATOR, REPLICA};
use cats::key::RingKey;
use cats::msgs::{ReadQueryMsg, ReadReplyMsg, Tag, WriteAckMsg, WriteQueryMsg};
use cats::router::{FindGroup, GroupFound, Routing};
use kompics_choreo::check::check_bound;
use kompics_choreo::monitor::ConformanceMonitor;
use kompics_core::{Config, KompicsSystem};
use kompics_network::{Address, Message, Network};
use kompics_protocols::monitor::{Status, StatusRequest, StatusResponse};
use kompics_testing::{Matcher, Observed, PortHandle, SpecBuilder, TestContext};

const COORD: u64 = 1;

fn coordinator() -> ConsistentAbd {
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

/// Runs `spec` under both backends with a coordinator-role monitor tapping
/// the CUT's `Network` port (both halves: emissions and injections), then
/// asserts the observed trace conforms to the ABD projection.
fn check_both_modes_monitored(spec: impl Fn(&mut TestContext<ConsistentAbd>)) {
    for mode in ["threaded", "simulated"] {
        let mut t = if mode == "threaded" {
            TestContext::threaded(coordinator)
        } else {
            TestContext::simulated(0xC0FFEE, coordinator)
        };
        let monitor = ConformanceMonitor::for_role(&abd_operation_default(), COORDINATOR)
            .expect("abd-operation projects onto the coordinator");
        let net = t.required::<Network>();
        // The outside half carries the coordinator's emissions, the inside
        // half the environment's (spec-injected) replies.
        monitor.attach(net.port_ref(), abd_classify);
        let inside = net.port_ref().pair_ref().expect("port pair alive");
        monitor.attach(&inside, abd_classify);

        spec(&mut t);
        t.check().unwrap_or_else(|err| panic!("{mode}: {err}"));

        assert!(
            monitor.is_conformant(),
            "{mode}: {:?}",
            monitor.violations()
        );
        assert_eq!(monitor.sessions(), 1, "{mode}: one rid, one session");
        assert_eq!(
            monitor.completed_sessions(),
            1,
            "{mode}: the operation ran to the accepting state"
        );
    }
}

// ---------------------------------------------------------------------------
// The unchanged coordinator specs, now monitored
// ---------------------------------------------------------------------------

#[test]
fn abd_put_spec_conforms_to_the_choreography() {
    check_both_modes_monitored(|t| {
        let put_get = t.provided::<PutGet>();
        let net = t.required::<Network>();
        let routing = t.required::<Routing>();
        t.answer_request::<FindGroup, GroupFound, _>(&routing, |fg| GroupFound {
            reqid: fg.reqid,
            key: fg.key,
            group: group(),
        });

        t.trigger(put_get.inject(PutRequest {
            id: 9,
            key: RingKey(10),
            value: b"new".to_vec(),
        }));
        t.unordered(vec![
            read_query_to(&net, 2, 10),
            read_query_to(&net, 3, 10),
            read_query_to(&net, 4, 10),
        ]);
        t.trigger(net.inject(read_reply(2, 1, Tag { seq: 4, writer: 3 }, Some(b"old"))));
        t.trigger(net.inject(read_reply(3, 1, Tag::default(), None)));
        let imposed = Tag {
            seq: 5,
            writer: COORD,
        };
        t.unordered(vec![
            write_query_to(&net, 2, imposed, b"new"),
            write_query_to(&net, 3, imposed, b"new"),
            write_query_to(&net, 4, imposed, b"new"),
        ]);
        t.trigger(net.inject(write_ack(2, 1)));
        t.trigger(net.inject(write_ack(4, 1)));
        t.expect(put_get.out_where::<PutResponse>("PutResponse(9)", |r| r.id == 9));
    });
}

#[test]
fn abd_get_spec_conforms_to_the_choreography() {
    check_both_modes_monitored(|t| {
        let put_get = t.provided::<PutGet>();
        let net = t.required::<Network>();
        let routing = t.required::<Routing>();
        t.answer_request::<FindGroup, GroupFound, _>(&routing, |fg| GroupFound {
            reqid: fg.reqid,
            key: fg.key,
            group: group(),
        });

        t.trigger(put_get.inject(GetRequest {
            id: 7,
            key: RingKey(77),
        }));
        t.unordered(vec![
            read_query_to(&net, 2, 77),
            read_query_to(&net, 3, 77),
            read_query_to(&net, 4, 77),
        ]);
        let newest = Tag { seq: 3, writer: 2 };
        t.trigger(net.inject(read_reply(2, 1, newest, Some(b"winner"))));
        t.trigger(net.inject(read_reply(3, 1, Tag { seq: 1, writer: 3 }, Some(b"loser"))));
        t.unordered(vec![
            write_query_to(&net, 2, newest, b"winner"),
            write_query_to(&net, 3, newest, b"winner"),
            write_query_to(&net, 4, newest, b"winner"),
        ]);
        t.trigger(net.inject(write_ack(3, 1)));
        t.trigger(net.inject(write_ack(2, 1)));
        t.expect(
            put_get.out_where::<GetResponse>("GetResponse(winner)", |r| {
                r.id == 7 && r.value.as_deref() == Some(b"winner")
            }),
        );
    });
}

// ---------------------------------------------------------------------------
// A straggler beyond the quorum is absorbed, not a violation
// ---------------------------------------------------------------------------

/// Asks the coordinator for its status and expects the given get counters.
/// The request queues behind whatever was injected before it, so anything
/// the coordinator emitted in between has been observed by then.
fn expect_get_stats(t: &mut TestContext<ConsistentAbd>, one_round: u64, imposed: u64) {
    let status = t.provided::<Status>();
    t.trigger(status.inject(StatusRequest { tag: 99 }));
    t.expect(status.out_where::<StatusResponse>(
        format!("status: {one_round} one-round, {imposed} imposed"),
        move |r| {
            let entry = |key: &str, want: u64| {
                r.entries
                    .iter()
                    .any(|(k, v)| k == key && *v == want.to_string())
            };
            entry("one_round_gets", one_round) && entry("imposed_gets", imposed)
        },
    ));
}

#[test]
fn late_third_reply_is_absorbed_by_the_monitor() {
    check_both_modes_monitored(|t| {
        let put_get = t.provided::<PutGet>();
        let net = t.required::<Network>();
        let routing = t.required::<Routing>();
        t.answer_request::<FindGroup, GroupFound, _>(&routing, |fg| GroupFound {
            reqid: fg.reqid,
            key: fg.key,
            group: group(),
        });

        t.trigger(put_get.inject(GetRequest {
            id: 1,
            key: RingKey(5),
        }));
        t.unordered(vec![
            read_query_to(&net, 2, 5),
            read_query_to(&net, 3, 5),
            read_query_to(&net, 4, 5),
        ]);
        // The quorum agrees on the tag: the session ends after the read
        // round, on the choreography's `end` branch.
        let tag = Tag { seq: 1, writer: 2 };
        t.trigger(net.inject(read_reply(2, 1, tag, Some(b"v"))));
        t.trigger(net.inject(read_reply(3, 1, tag, Some(b"v"))));
        t.expect(put_get.out_where::<GetResponse>("GetResponse(v)", |r| {
            r.id == 1 && r.value.as_deref() == Some(b"v")
        }));
        // Replica 4's read reply arrives only now — after the operation. The
        // coordinator ignores it (the operation is gone: any `WriteQueryMsg`
        // would be an unexpected event); the monitor must absorb it as a
        // post-quorum straggler rather than flag a violation.
        t.trigger(net.inject(read_reply(4, 1, Tag { seq: 9, writer: 9 }, Some(b"w"))));
        expect_get_stats(t, 1, 0);
    });
}

#[test]
fn late_third_reply_after_a_disagreeing_quorum_is_absorbed_by_the_monitor() {
    check_both_modes_monitored(|t| {
        let put_get = t.provided::<PutGet>();
        let net = t.required::<Network>();
        let routing = t.required::<Routing>();
        t.answer_request::<FindGroup, GroupFound, _>(&routing, |fg| GroupFound {
            reqid: fg.reqid,
            key: fg.key,
            group: group(),
        });

        t.trigger(put_get.inject(GetRequest {
            id: 1,
            key: RingKey(5),
        }));
        t.unordered(vec![
            read_query_to(&net, 2, 5),
            read_query_to(&net, 3, 5),
            read_query_to(&net, 4, 5),
        ]);
        let tag = Tag { seq: 2, writer: 2 };
        t.trigger(net.inject(read_reply(2, 1, tag, Some(b"v"))));
        t.trigger(net.inject(read_reply(3, 1, Tag { seq: 1, writer: 2 }, Some(b"u"))));
        t.unordered(vec![
            write_query_to(&net, 2, tag, b"v"),
            write_query_to(&net, 3, tag, b"v"),
            write_query_to(&net, 4, tag, b"v"),
        ]);
        // Replica 4's read reply arrives only now — mid write round. The
        // coordinator ignores it (wrong phase); the monitor must absorb it.
        t.trigger(net.inject(read_reply(4, 1, tag, Some(b"v"))));
        t.trigger(net.inject(write_ack(2, 1)));
        t.trigger(net.inject(write_ack(3, 1)));
        t.expect(put_get.out_where::<GetResponse>("GetResponse(v)", |r| {
            r.id == 1 && r.value.as_deref() == Some(b"v")
        }));
        expect_get_stats(t, 0, 1);
    });
}

// ---------------------------------------------------------------------------
// The replica side: a session that ends after the read round is complete
// ---------------------------------------------------------------------------

#[test]
fn a_replica_session_is_complete_after_the_read_round_and_after_the_write_round() {
    for mode in ["threaded", "simulated"] {
        let mut t = if mode == "threaded" {
            TestContext::threaded(coordinator)
        } else {
            TestContext::simulated(0xC0FFEE, coordinator)
        };
        let monitor = ConformanceMonitor::for_role(&abd_operation_default(), REPLICA)
            .expect("abd-operation projects onto the replica");
        let net = t.required::<Network>();
        // Mirror image of the coordinator's taps: the inside half carries the
        // queries the replica receives, the outside half what it answers.
        monitor.attach(net.port_ref(), abd_classify);
        let inside = net.port_ref().pair_ref().expect("port pair alive");
        monitor.attach(&inside, abd_classify);

        let from = Message::new(Address::sim(7), Address::sim(COORD));
        // Session 1: a one-round get stops after the reply.
        t.trigger(net.inject(ReadQueryMsg {
            base: from,
            rid: 1,
            key: RingKey(5),
        }));
        t.expect(net.out_where::<ReadReplyMsg>("ReadReplyMsg(1)", |r| r.rid == 1));
        // Session 2: a put goes on to the write round.
        t.trigger(net.inject(ReadQueryMsg {
            base: from,
            rid: 2,
            key: RingKey(5),
        }));
        t.expect(net.out_where::<ReadReplyMsg>("ReadReplyMsg(2)", |r| r.rid == 2));
        t.trigger(net.inject(WriteQueryMsg {
            base: from,
            rid: 2,
            key: RingKey(5),
            tag: Tag { seq: 1, writer: 7 },
            value: Some(b"v".to_vec()),
        }));
        t.expect(net.out_where::<WriteAckMsg>("WriteAckMsg(2)", |a| a.rid == 2));
        t.check().unwrap_or_else(|err| panic!("{mode}: {err}"));

        assert!(
            monitor.is_conformant(),
            "{mode}: {:?}",
            monitor.violations()
        );
        assert_eq!(monitor.sessions(), 2, "{mode}");
        assert_eq!(monitor.completed_sessions(), 2, "{mode}");
    }
}

// ---------------------------------------------------------------------------
// Role binding against the live component's handled-event surface
// ---------------------------------------------------------------------------

#[test]
fn live_abd_surface_satisfies_both_choreography_roles() {
    let system = KompicsSystem::new(Config::default());
    let abd = system.create(coordinator);
    let surface = abd.protocol_surface();
    assert!(
        surface.component.starts_with("ConsistentAbd"),
        "{}",
        surface.component
    );
    for label in [
        "ReadQueryMsg",
        "ReadReplyMsg",
        "WriteQueryMsg",
        "WriteAckMsg",
    ] {
        assert!(surface.handled.contains(label), "missing {label}");
    }
    // Every CATS node plays coordinator and replica at once, off the same
    // component: both bindings check clean against one surface.
    let report = check_bound(
        &abd_operation_default(),
        &abd_bindings(surface.clone(), surface),
    );
    // No error, and no binding finding: what is left is the choreography's
    // own pinned warning (`cats::choreo`'s unit tests), which no surface
    // changes.
    assert_eq!(report.errors(), 0, "{}", report.render_text());
    assert!(
        !report.render_text().contains("unhandled"),
        "{}",
        report.render_text()
    );
    assert_eq!(
        abd_bindings(abd.protocol_surface(), abd.protocol_surface())
            .iter()
            .map(|b| b.role.as_str())
            .collect::<Vec<_>>(),
        vec![COORDINATOR, REPLICA]
    );
    system.shutdown();
}
