//! Per-component protocol specs for CATS, written in the `kompics-testing`
//! event-stream DSL.
//!
//! These migrate assertions that previously only existed as whole-cluster
//! properties in the simulation suite (`cats_sim.rs`) down to the single
//! component responsible for them, where a violation points directly at the
//! offending handler:
//!
//! 1. the ABD **put** coordinator's write phase imposes tag
//!    `(max_seen.seq + 1, self)` on the whole replication group and answers
//!    the client only after a majority of acks;
//! 2. the ABD **get** coordinator answers after the read round when the
//!    quorum agrees on one tag (a key never written included), and
//!    otherwise *read-imposes*: the write round writes back the maximum
//!    `(tag, value)` it read, unchanged, before answering;
//! 3. the one-hop router folds ring/gossip/failure-detector events into its
//!    view and resolves keys against the live membership;
//! 4. the coordinator's one sweep timer: armed only while operations are
//!    pending, it retries an attempt without a quorum against the
//!    re-resolved group, fails it after `max_retries`, and keeps to the
//!    stated bound — an attempt lives at least `op_timeout` and less than
//!    twice that.
//!
//! Every spec runs under both the threaded scheduler and the deterministic
//! simulation via `check_both_modes`; the timer specs script the `Timer`
//! port themselves (the environment decides when a timeout fires), and the
//! bound is checked once more against `SimTimer` in virtual time.

use std::sync::Arc;
use std::time::Duration;

use cats::abd::{
    AbdConfig, ConsistentAbd, GetRequest, GetResponse, OpFailed, PutGet, PutRequest, PutResponse,
};
use cats::key::RingKey;
use cats::msgs::{ReadQueryMsg, ReadReplyMsg, Tag, WriteAckMsg, WriteQueryMsg};
use cats::ring::{RingNeighbors, RingPort};
use cats::router::{FindGroup, GroupFound, OneHopRouter, Routing};
use kompics_core::event::EventRef;
use kompics_network::{Address, Message, Network};
use kompics_protocols::cyclon::{NodeSampling, Sample};
use kompics_protocols::fd::{EventuallyPerfectFd, Restore, Suspect};
use kompics_protocols::monitor::{Status, StatusRequest, StatusResponse};
use kompics_simulation::SimTimer;
use kompics_testing::{
    check_both_modes, Action, Matcher, Observed, PortHandle, SpecBuilder, TestContext,
};
use kompics_timer::{ScheduleTimeout, Timer};
use parking_lot::Mutex;

/// The coordinator under test.
const COORD: u64 = 1;

fn coordinator() -> ConsistentAbd {
    // Repair disabled: the spec scripts every network message, and the
    // anti-entropy timer would add unscripted traffic.
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

/// A `ReadQueryMsg` for `key` addressed to replica `dest`.
fn read_query_to(net: &PortHandle<Network>, dest: u64, key: u64) -> Matcher<Observed> {
    net.out_where::<ReadQueryMsg>(format!("ReadQueryMsg(k{key}) to {dest}"), move |q| {
        q.base.destination.id == dest && q.key.0 == key && q.base.source.id == COORD
    })
}

/// A `WriteQueryMsg` to replica `dest` imposing exactly `tag`/`value`.
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

// ---------------------------------------------------------------------------
// 1. ABD put: write phase imposes (max.seq + 1, self) on the whole group
// ---------------------------------------------------------------------------

#[test]
fn abd_put_imposes_incremented_tag_on_majority() {
    check_both_modes(coordinator, |t| {
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
        // Phase 1: the read query goes to *every* group member (rid 1: the
        // coordinator's first operation).
        t.unordered(vec![
            read_query_to(&net, 2, 10),
            read_query_to(&net, 3, 10),
            read_query_to(&net, 4, 10),
        ]);
        // A majority (2 of 3) answers; the highest tag seen is (4, 3).
        t.trigger(net.inject(read_reply(2, 1, Tag { seq: 4, writer: 3 }, Some(b"old"))));
        t.trigger(net.inject(read_reply(3, 1, Tag::default(), None)));
        // Phase 2: the write must impose (5, COORD) — one past the maximum,
        // tie-broken by the writer id — on the whole group.
        let imposed = Tag {
            seq: 5,
            writer: COORD,
        };
        t.unordered(vec![
            write_query_to(&net, 2, imposed, b"new"),
            write_query_to(&net, 3, imposed, b"new"),
            write_query_to(&net, 4, imposed, b"new"),
        ]);
        // No client answer until a majority acks: the first ack alone must
        // not produce a PutResponse (it would be an unexpected event before
        // the second ack's injection is even reached... so assert order by
        // expecting the response only after both acks).
        t.trigger(net.inject(write_ack(2, 1)));
        t.trigger(net.inject(write_ack(4, 1)));
        t.expect(put_get.out_where::<PutResponse>("PutResponse(9)", |r| r.id == 9));
    })
    .unwrap();
}

// ---------------------------------------------------------------------------
// 2. ABD get: phase 2 writes back the max (tag, value) unchanged
// ---------------------------------------------------------------------------

#[test]
fn abd_get_read_imposes_the_maximum_tag_value_pair() {
    check_both_modes(coordinator, |t| {
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
        // Replica 2 is ahead of replica 3: the read must return replica 2's
        // value, and the write-back must carry replica 2's tag *unchanged*
        // (a get never mints a new tag).
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
    })
    .unwrap();
}

/// Asks the coordinator for its status and expects exactly these entries
/// among it. The request queues behind whatever the spec injected before
/// it, so anything the coordinator emitted meanwhile has been observed —
/// and was an error unless the spec expected it — by the time this matches.
fn expect_status(t: &mut TestContext<ConsistentAbd>, want: &[(&str, u64)]) {
    let status = t.provided::<Status>();
    let want: Vec<(String, String)> = want
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    t.trigger(status.inject(StatusRequest { tag: 99 }));
    t.expect(
        status.out_where::<StatusResponse>(format!("status with {want:?}"), move |r| {
            want.iter().all(|entry| r.entries.contains(entry))
        }),
    );
}

/// Issues `get(key)` as the coordinator's operation `rid` against the fixed
/// group and consumes its three read queries.
fn begin_get(t: &mut TestContext<ConsistentAbd>, id: u64, key: u64) {
    let put_get = t.provided::<PutGet>();
    let net = t.required::<Network>();
    let routing = t.required::<Routing>();
    t.answer_request::<FindGroup, GroupFound, _>(&routing, |fg| GroupFound {
        reqid: fg.reqid,
        key: fg.key,
        group: group(),
    });
    t.trigger(put_get.inject(GetRequest {
        id,
        key: RingKey(key),
    }));
    t.unordered(vec![
        read_query_to(&net, 2, key),
        read_query_to(&net, 3, key),
        read_query_to(&net, 4, key),
    ]);
}

#[test]
fn abd_get_answers_after_the_read_round_when_the_quorum_agrees() {
    check_both_modes(coordinator, |t| {
        begin_get(t, 7, 77);
        let put_get = t.provided::<PutGet>();
        let net = t.required::<Network>();
        let tag = Tag { seq: 3, writer: 2 };
        t.trigger(net.inject(read_reply(2, 1, tag, Some(b"settled"))));
        t.trigger(net.inject(read_reply(3, 1, tag, Some(b"settled"))));
        // Directly: a `WriteQueryMsg` here would be an unexpected event.
        t.expect(
            put_get.out_where::<GetResponse>("GetResponse(settled)", |r| {
                r.id == 7 && r.value.as_deref() == Some(b"settled")
            }),
        );
        // The third reply finds no operation — not even a newer tag revives it.
        t.trigger(net.inject(read_reply(4, 1, Tag { seq: 9, writer: 4 }, Some(b"late"))));
        expect_status(
            t,
            &[
                ("one_round_gets", 1),
                ("imposed_gets", 0),
                ("completed_ops", 1),
                ("pending_ops", 0),
            ],
        );
    })
    .unwrap();
}

#[test]
fn abd_get_of_a_key_never_written_is_one_round() {
    check_both_modes(coordinator, |t| {
        begin_get(t, 8, 88);
        let put_get = t.provided::<PutGet>();
        let net = t.required::<Network>();
        t.trigger(net.inject(read_reply(4, 1, Tag::default(), None)));
        t.trigger(net.inject(read_reply(2, 1, Tag::default(), None)));
        t.expect(
            put_get
                .out_where::<GetResponse>("GetResponse(None)", |r| r.id == 8 && r.value.is_none()),
        );
        expect_status(t, &[("one_round_gets", 1), ("imposed_gets", 0)]);
    })
    .unwrap();
}

#[test]
fn abd_get_counts_a_write_back_as_imposed() {
    check_both_modes(coordinator, |t| {
        begin_get(t, 9, 99);
        let put_get = t.provided::<PutGet>();
        let net = t.required::<Network>();
        // One replica has the key, the other has never seen it.
        let tag = Tag { seq: 1, writer: 3 };
        t.trigger(net.inject(read_reply(2, 1, Tag::default(), None)));
        t.trigger(net.inject(read_reply(3, 1, tag, Some(b"half"))));
        t.unordered(vec![
            write_query_to(&net, 2, tag, b"half"),
            write_query_to(&net, 3, tag, b"half"),
            write_query_to(&net, 4, tag, b"half"),
        ]);
        t.trigger(net.inject(write_ack(2, 1)));
        expect_status(t, &[("completed_ops", 0), ("pending_ops", 1)]);
        t.trigger(net.inject(write_ack(4, 1)));
        t.expect(put_get.out_where::<GetResponse>("GetResponse(half)", |r| {
            r.id == 9 && r.value.as_deref() == Some(b"half")
        }));
        expect_status(t, &[("one_round_gets", 0), ("imposed_gets", 1)]);
    })
    .unwrap();
}

// ---------------------------------------------------------------------------
// 3. Router: view maintenance across ring, gossip and failure detection
// ---------------------------------------------------------------------------

fn group_ids(g: &GroupFound) -> Vec<u64> {
    g.group.iter().map(|a| a.id).collect()
}

#[test]
fn router_resolves_against_the_live_view() {
    check_both_modes(
        || OneHopRouter::new(Address::sim(10), 3),
        |t| {
            let routing = t.provided::<Routing>();
            let ring = t.required::<RingPort>();
            let sampling = t.required::<NodeSampling>();
            let fd = t.required::<EventuallyPerfectFd>();

            // Ring neighborhood: view becomes {5, 10, 20, 30}.
            t.trigger(ring.inject(RingNeighbors {
                node: Address::sim(10),
                predecessor: Some(Address::sim(5)),
                successors: vec![Address::sim(20), Address::sim(30)],
            }));
            // Key 11: first member clockwise is 20, then the two successors.
            t.trigger(routing.inject(FindGroup {
                reqid: 1,
                key: RingKey(11),
            }));
            t.expect(routing.out_where::<GroupFound>("group [20,30,5]", |g| {
                g.reqid == 1 && group_ids(g) == [20, 30, 5]
            }));

            // A suspicion evicts node 20 from the view.
            t.trigger(fd.inject(Suspect {
                peer: Address::sim(20),
            }));
            t.trigger(routing.inject(FindGroup {
                reqid: 2,
                key: RingKey(11),
            }));
            t.expect(routing.out_where::<GroupFound>("group [30,5,10]", |g| {
                g.reqid == 2 && group_ids(g) == [30, 5, 10]
            }));

            // A restore re-admits it.
            t.trigger(fd.inject(Restore {
                peer: Address::sim(20),
            }));
            t.trigger(routing.inject(FindGroup {
                reqid: 3,
                key: RingKey(11),
            }));
            t.expect(routing.out_where::<GroupFound>("group [20,30,5]", |g| {
                g.reqid == 3 && group_ids(g) == [20, 30, 5]
            }));

            // Cyclon samples extend the view: {5, 10, 20, 30, 40}.
            t.trigger(sampling.inject(Sample {
                peers: vec![Address::sim(40)],
            }));
            t.trigger(routing.inject(FindGroup {
                reqid: 4,
                key: RingKey(35),
            }));
            t.expect(routing.out_where::<GroupFound>("group [40,5,10]", |g| {
                g.reqid == 4 && group_ids(g) == [40, 5, 10]
            }));
        },
    )
    .unwrap();
}

// ---------------------------------------------------------------------------
// 4. The sweep timer
// ---------------------------------------------------------------------------

const OP_TIMEOUT: Duration = Duration::from_millis(200);

/// A coordinator that gives an operation two attempts.
fn impatient_coordinator() -> ConsistentAbd {
    ConsistentAbd::new(
        Address::sim(COORD),
        AbdConfig {
            op_timeout: OP_TIMEOUT,
            max_retries: 1,
            repair_period: None,
            ..AbdConfig::default()
        },
    )
}

/// The environment's side of the coordinator's `Timer` port: remembers the
/// timeout the coordinator armed and fires it when the spec says so.
struct ScriptedTimer {
    port: PortHandle<Timer>,
    armed: Arc<Mutex<Option<EventRef>>>,
}

impl ScriptedTimer {
    fn new(t: &mut TestContext<ConsistentAbd>) -> Self {
        ScriptedTimer {
            port: t.required::<Timer>(),
            armed: Arc::default(),
        }
    }

    /// The coordinator arms its sweep, `OP_TIMEOUT` from now.
    fn arm(&self) -> Matcher<Observed> {
        let armed = Arc::clone(&self.armed);
        self.port
            .out_where::<ScheduleTimeout>("ScheduleTimeout(op_timeout)", move |s| {
                *armed.lock() = Some(Arc::clone(&s.timeout));
                s.delay == OP_TIMEOUT
            })
    }

    /// The armed timeout expires.
    fn fire(&self) -> Action {
        let (armed, port) = (Arc::clone(&self.armed), self.port.port_ref().clone());
        Action::new("fire the armed timeout", move || {
            let timeout = armed.lock().take().expect("a timeout is armed");
            port.trigger_shared(timeout)
                .expect("Timer carries timeouts");
        })
    }
}

fn find_group(routing: &PortHandle<Routing>, reqid: u64) -> Matcher<Observed> {
    routing.out_where::<FindGroup>(format!("FindGroup({reqid})"), move |f| f.reqid == reqid)
}

#[test]
fn abd_sweep_retries_then_fails_and_an_idle_coordinator_arms_nothing() {
    check_both_modes(impatient_coordinator, |t| {
        let put_get = t.provided::<PutGet>();
        let net = t.required::<Network>();
        let routing = t.required::<Routing>();
        let timer = ScriptedTimer::new(t);
        t.allow(net.out::<ReadQueryMsg>());
        let found = |reqid| GroupFound {
            reqid,
            key: RingKey(5),
            group: group(),
        };

        // Nothing pending, nothing armed; the first operation arms the sweep.
        t.trigger(put_get.inject(GetRequest {
            id: 1,
            key: RingKey(5),
        }));
        t.expect(find_group(&routing, 1));
        t.expect(timer.arm());
        t.trigger(routing.inject(found(1)));
        // A second operation rides on the armed sweep: no second timer.
        t.trigger(put_get.inject(GetRequest {
            id: 2,
            key: RingKey(5),
        }));
        t.expect(find_group(&routing, 2));
        t.trigger(routing.inject(found(2)));
        t.trigger(net.inject(read_reply(2, 2, Tag::default(), None)));
        t.trigger(net.inject(read_reply(3, 2, Tag::default(), None)));
        t.expect(put_get.out_where::<GetResponse>("GetResponse(2)", |r| r.id == 2));

        // No replica answers operation 1. First firing: attempt 1 was begun
        // with the sweep — it has lived a whole period and is retried.
        t.trigger(timer.fire());
        t.expect(find_group(&routing, 1));
        t.expect(timer.arm());
        t.trigger(routing.inject(found(1)));
        // Second firing: `max_retries` is spent.
        t.trigger(timer.fire());
        t.expect(put_get.out_where::<OpFailed>("OpFailed(1)", |f| {
            f.id == 1 && f.reason.contains("2 attempts")
        }));
        // The table is empty: a `ScheduleTimeout` before this status would be
        // an unexpected event.
        expect_status(t, &[("pending_ops", 0), ("failed_ops", 1)]);

        // An operation that completes leaves its sweep armed; that firing
        // finds nothing and arms nothing.
        t.trigger(put_get.inject(GetRequest {
            id: 3,
            key: RingKey(5),
        }));
        t.expect(find_group(&routing, 3));
        t.expect(timer.arm());
        t.trigger(routing.inject(found(3)));
        t.trigger(net.inject(read_reply(4, 3, Tag::default(), None)));
        t.trigger(net.inject(read_reply(2, 3, Tag::default(), None)));
        t.expect(put_get.out_where::<GetResponse>("GetResponse(3)", |r| r.id == 3));
        t.trigger(timer.fire());
        expect_status(t, &[("pending_ops", 0), ("completed_ops", 2)]);
    })
    .unwrap();
}

#[test]
fn abd_sweep_spares_an_attempt_begun_inside_its_period() {
    check_both_modes(impatient_coordinator, |t| {
        let put_get = t.provided::<PutGet>();
        let net = t.required::<Network>();
        let routing = t.required::<Routing>();
        let timer = ScriptedTimer::new(t);
        t.allow(net.out::<ReadQueryMsg>());
        t.answer_request::<FindGroup, GroupFound, _>(&routing, |fg| GroupFound {
            reqid: fg.reqid,
            key: fg.key,
            group: group(),
        });
        for id in [1, 2] {
            t.trigger(put_get.inject(GetRequest {
                id,
                key: RingKey(5),
            }));
            if id == 1 {
                t.expect(timer.arm());
            }
        }
        // Operation 2 began at an unknown point of the armed period: the
        // first firing might come too early for it, so it only retries 1.
        t.trigger(timer.fire());
        t.expect(timer.arm());
        expect_status(t, &[("pending_ops", 2), ("failed_ops", 0)]);
        // The second firing fails 1 (two attempts) and retries 2.
        t.trigger(timer.fire());
        t.expect(put_get.out_where::<OpFailed>("OpFailed(1)", |f| f.id == 1));
        t.expect(timer.arm());
        t.trigger(timer.fire());
        t.expect(put_get.out_where::<OpFailed>("OpFailed(2)", |f| f.id == 2));
        expect_status(t, &[("pending_ops", 0), ("failed_ops", 2)]);
    })
    .unwrap();
}

#[test]
fn abd_retry_counts_replies_only_from_the_re_resolved_group() {
    check_both_modes(impatient_coordinator, |t| {
        let put_get = t.provided::<PutGet>();
        let net = t.required::<Network>();
        let routing = t.required::<Routing>();
        let timer = ScriptedTimer::new(t);
        let tag = Tag { seq: 4, writer: 2 };

        t.trigger(put_get.inject(GetRequest {
            id: 1,
            key: RingKey(5),
        }));
        t.expect(find_group(&routing, 1));
        t.expect(timer.arm());
        t.trigger(routing.inject(GroupFound {
            reqid: 1,
            key: RingKey(5),
            group: group(),
        }));
        t.unordered(vec![
            read_query_to(&net, 2, 5),
            read_query_to(&net, 3, 5),
            read_query_to(&net, 4, 5),
        ]);
        // Attempt 1 hears replica 2 only, and expires.
        t.trigger(net.inject(read_reply(2, 1, tag, Some(b"v"))));
        t.trigger(timer.fire());
        t.expect(find_group(&routing, 1));
        t.expect(timer.arm());
        // The view moved meanwhile: replica 2 left the group, 5 joined it.
        t.trigger(routing.inject(GroupFound {
            reqid: 1,
            key: RingKey(5),
            group: vec![Address::sim(3), Address::sim(4), Address::sim(5)],
        }));
        t.unordered(vec![
            read_query_to(&net, 3, 5),
            read_query_to(&net, 4, 5),
            read_query_to(&net, 5, 5),
        ]);
        // Same round id, so the wire cannot tell which attempt's query a
        // reply answers — and it need not: tags only grow, so any reply sent
        // since the operation began is a valid lower bound on its sender.
        // What does matter is the sender. Replica 2 (again) and replica 3:
        // only 3 is a member, so this is one reply, not a quorum.
        t.trigger(net.inject(read_reply(2, 1, tag, Some(b"v"))));
        t.trigger(net.inject(read_reply(3, 1, tag, Some(b"v"))));
        t.trigger(net.inject(read_reply(3, 1, tag, Some(b"v")))); // duplicated
        expect_status(t, &[("pending_ops", 1), ("completed_ops", 0)]);
        t.trigger(net.inject(read_reply(5, 1, tag, Some(b"v"))));
        t.expect(put_get.out_where::<GetResponse>("GetResponse(v)", |r| {
            r.id == 1 && r.value.as_deref() == Some(b"v")
        }));
        expect_status(t, &[("one_round_gets", 1), ("imposed_gets", 0)]);
    })
    .unwrap();
}

/// The bound in virtual time, against the timer the simulation really uses:
/// an operation that finds no sweep armed lives exactly `op_timeout` per
/// attempt; one that arrives 0.4 periods into an armed sweep lives 1.6
/// periods in its first attempt — at least one, less than two.
#[test]
fn abd_sweep_keeps_its_bound_under_sim_timer_virtual_time() {
    let mut t = TestContext::simulated(0x5EE9, impatient_coordinator);
    let put_get = t.provided::<PutGet>();
    let net = t.required::<Network>();
    let routing = t.required::<Routing>();
    let timer = t.required::<Timer>();
    let sim = t.simulation().expect("simulated");
    let des = sim.des().clone();
    let sim_timer = sim.system().create({
        let des = des.clone();
        move || SimTimer::new(des)
    });
    kompics_core::channel::connect(
        &sim_timer.provided_ref::<Timer>().expect("provides Timer"),
        timer.port_ref(),
    )
    .expect("wire timer");
    sim.system().start(&sim_timer); // (`Simulation::start` would lint the harness's scripted ports as dangling)

    t.allow(net.out::<ReadQueryMsg>());
    t.answer_request::<FindGroup, GroupFound, _>(&routing, |fg| GroupFound {
        reqid: fg.reqid,
        key: fg.key,
        group: group(),
    });
    let period = OP_TIMEOUT.as_nanos() as u64;
    let start = des.now();
    let at =
        move |des: &kompics_simulation::Des, periods: u64| des.now() == start + periods * period;
    let armed_at = |periods: u64| {
        let des = des.clone();
        timer.out_where::<ScheduleTimeout>(
            format!("ScheduleTimeout at {periods} periods"),
            move |s| s.delay == OP_TIMEOUT && at(&des, periods),
        )
    };
    let failed_at = |id: u64, periods: u64| {
        let des = des.clone();
        put_get.out_where::<OpFailed>(format!("OpFailed({id}) at {periods} periods"), move |f| {
            f.id == id && at(&des, periods)
        })
    };
    // Operation 2 arrives 0.4 periods into operation 1's sweep.
    des.schedule_at(start + period * 2 / 5, {
        let port = put_get.port_ref().clone();
        move || {
            port.trigger(GetRequest {
                id: 2,
                key: RingKey(6),
            })
            .expect("PutGet accepts GetRequest");
        }
    });
    t.trigger(put_get.inject(GetRequest {
        id: 1,
        key: RingKey(5),
    }));
    t.expect(armed_at(0));
    t.expect(armed_at(1)); // 1 retried; 2 spared
    t.expect(failed_at(1, 2)); // exactly (max_retries + 1) × op_timeout
    t.expect(armed_at(2)); // 2 retried after 1.6 periods
    t.expect(failed_at(2, 3));
    expect_status(&mut t, &[("pending_ops", 0), ("failed_ops", 2)]);
    t.within(Duration::from_secs(2));
    t.check().unwrap();
}

// ---------------------------------------------------------------------------
// Negative spec: the coordinator must not answer before a majority acks
// ---------------------------------------------------------------------------

#[test]
fn abd_put_does_not_answer_on_a_single_ack() {
    let mut t = kompics_testing::TestContext::simulated(11, coordinator);
    let put_get = t.provided::<PutGet>();
    let net = t.required::<Network>();
    let routing = t.required::<Routing>();
    t.answer_request::<FindGroup, GroupFound, _>(&routing, |fg| GroupFound {
        reqid: fg.reqid,
        key: fg.key,
        group: group(),
    });
    t.allow(net.out::<ReadQueryMsg>());
    t.allow(net.out::<WriteQueryMsg>());
    t.disallow(put_get.out::<PutResponse>());
    t.within(Duration::from_millis(500));

    t.trigger(put_get.inject(PutRequest {
        id: 1,
        key: RingKey(1),
        value: b"x".to_vec(),
    }));
    t.trigger(net.inject(read_reply(2, 1, Tag::default(), None)));
    t.trigger(net.inject(read_reply(3, 1, Tag::default(), None)));
    // Only ONE ack — short of the majority of {2,3,4}.
    t.trigger(net.inject(write_ack(2, 1)));
    t.expect(put_get.out::<PutResponse>()); // never satisfied
    match t.check() {
        // The disallow would catch a premature answer; absent one, the
        // (virtual-time) deadline fires with the response still pending.
        Err(kompics_testing::SpecError::Timeout { expected, .. }) => {
            assert!(
                expected.iter().any(|e| e.contains("PutResponse")),
                "got {expected:?}"
            );
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}
