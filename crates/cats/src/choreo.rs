//! The ABD quorum protocol ([`abd`](crate::abd)) as a session-typed
//! choreography, plus the role bindings and runtime-monitor classifier that
//! connect it to the live components.
//!
//! Every operation runs a read round (collect `(tag, value)` from a
//! majority); the coordinator then *chooses* between ending there — a `get`
//! whose quorum agreed on one tag — and a write round (a `put` imposing an
//! incremented tag, or a `get` writing back the maximum it read). The choice
//! is not announced: a replica keeps no session state, answers each query
//! as it comes and never needs to know whether another follows. The checker
//! says exactly that about the replica — one `protocol-non-exhaustive-choice`
//! warning, "may stop here or await `WriteQueryMsg`" — and the warning is
//! pinned by a test rather than silenced with a message nobody would read.

use kompics_choreo::check::RoleBinding;
use kompics_choreo::global::{choice, end, round, Choreography};
use kompics_choreo::monitor::Obs;
use kompics_core::analyze::ComponentSurface;
use kompics_core::event::{event_as, EventRef};
use kompics_core::port::Direction;

use crate::msgs::{ReadQueryMsg, ReadReplyMsg, WriteAckMsg, WriteQueryMsg};

/// Role name of the operation coordinator.
pub const COORDINATOR: &str = "coordinator";
/// Role family name of the replication group members.
pub const REPLICA: &str = "replica";

/// The full ABD operation over a replication group of `replicas` members
/// with the given read/write `quorum`:
///
/// ```text
/// coordinator -> every replica: ReadQueryMsg.
/// quorum of replicas -> coordinator: ReadReplyMsg.     (stragglers absorbed)
/// coordinator chooses {
///   end                                  (get, the quorum agreed on a tag)
/// | coordinator -> every replica: WriteQueryMsg.       (put, or write-back)
///   quorum of replicas -> coordinator: WriteAckMsg.    (stragglers absorbed)
///   end
/// }
/// ```
pub fn abd_operation(replicas: usize, quorum: usize) -> Choreography {
    let write_round = round(
        COORDINATOR,
        REPLICA,
        "WriteQueryMsg",
        "WriteAckMsg",
        quorum,
        end(),
    );
    Choreography::new("abd-operation")
        .role(COORDINATOR)
        .family(REPLICA, replicas)
        .body(round(
            COORDINATOR,
            REPLICA,
            "ReadQueryMsg",
            "ReadReplyMsg",
            quorum,
            choice(COORDINATOR, vec![end(), write_round]),
        ))
}

/// [`abd_operation`] at the deployment defaults: replication degree 3,
/// majority quorum 2 — matching [`AbdConfig`](crate::abd::AbdConfig)'s
/// `group.len() / 2 + 1`.
pub fn abd_operation_default() -> Choreography {
    abd_operation(3, 2)
}

/// Binds both ABD roles to their live handled-event surfaces. In CATS every
/// node's `ConsistentAbd` plays both roles, so the coordinator and replica
/// surfaces usually come from the same component
/// ([`CatsNode::abd_surface`](crate::node::CatsNode::abd_surface)).
pub fn abd_bindings(coordinator: ComponentSurface, replica: ComponentSurface) -> Vec<RoleBinding> {
    vec![
        RoleBinding::new(COORDINATOR, coordinator),
        RoleBinding::new(REPLICA, replica),
    ]
}

/// Binds both sides of the Cyclon shuffle
/// ([`cyclon_shuffle`](kompics_protocols::choreo::cyclon_shuffle)) to one
/// overlay surface — every `CyclonOverlay` is initiator and peer at once.
pub fn cyclon_bindings(overlay: ComponentSurface) -> Vec<RoleBinding> {
    vec![
        RoleBinding::new("initiator", overlay.clone()),
        RoleBinding::new("peer", overlay),
    ]
}

/// Classifies a tapped `Network` event for an ABD conformance monitor: the
/// session key is the operation's round id (one `rid` spans the rounds, and
/// the retries, of a single `get`/`put`), and the direction follows the
/// port polarity — requests leaving the role are sends, indications
/// arriving at it are receives.
pub fn abd_classify(dir: Direction, event: &EventRef) -> Option<(String, Obs)> {
    let (label, rid) = if let Some(q) = event_as::<ReadQueryMsg>(event.as_ref()) {
        ("ReadQueryMsg", q.rid)
    } else if let Some(r) = event_as::<ReadReplyMsg>(event.as_ref()) {
        ("ReadReplyMsg", r.rid)
    } else if let Some(w) = event_as::<WriteQueryMsg>(event.as_ref()) {
        ("WriteQueryMsg", w.rid)
    } else if let Some(a) = event_as::<WriteAckMsg>(event.as_ref()) {
        ("WriteAckMsg", a.rid)
    } else {
        return None;
    };
    let obs = match dir {
        Direction::Negative => Obs::Sent(label.to_string()),
        Direction::Positive => Obs::Received(label.to_string()),
    };
    Some((rid.to_string(), obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kompics_choreo::check::check;
    use kompics_choreo::product::explore;
    use kompics_choreo::project::project;
    use kompics_core::analyze::{Finding, Report};

    /// The one fact the checker reports, from its two angles: a replica
    /// that answered the read round cannot tell whether a write round
    /// follows (projection), so the operation may end with a `WriteQueryMsg`
    /// it never took (product: once per replica that the write quorum can
    /// do without). True, and harmless — a replica keeps no session state to
    /// leak — so it is pinned, not fixed.
    fn assert_only_the_unannounced_choice(report: &Report, replicas: usize) {
        let stragglers = if replicas / 2 + 1 < replicas {
            replicas
        } else {
            0
        };
        let text = report.render_text();
        assert_eq!(report.errors(), 0, "replicas={replicas}: {text}");
        let count = |rule: &str| {
            let named = |f: &&Finding| f.kind.name() == rule && f.to_string().contains(REPLICA);
            report.findings().iter().filter(named).count()
        };
        assert_eq!(count("protocol-non-exhaustive-choice"), 1, "{text}");
        assert_eq!(count("protocol-orphan-message"), stragglers, "{text}");
        assert_eq!(report.findings().len(), 1 + stragglers, "{text}");
        assert!(
            text.contains("may stop here or await `WriteQueryMsg`"),
            "{text}"
        );
    }

    #[test]
    fn abd_operation_reports_the_unannounced_choice_and_nothing_else() {
        assert_only_the_unannounced_choice(&check(&abd_operation_default()), 3);
    }

    #[test]
    fn abd_is_stuck_free_for_any_majority_quorum() {
        for replicas in 1..=5 {
            let choreo = abd_operation(replicas, replicas / 2 + 1);
            assert_only_the_unannounced_choice(&check(&choreo), replicas);
            let (projections, _) = project(&choreo);
            let product = explore(&projections);
            assert!(product.stuck.is_none(), "replicas={replicas}");
            assert!(!product.truncated, "replicas={replicas}");
        }
    }

    #[test]
    fn abd_with_impossible_quorum_is_stuck() {
        let report = check(&abd_operation(3, 4));
        assert_eq!(report.errors(), 1, "{}", report.render_text());
        assert!(
            report.render_text().contains("error[protocol-stuck]"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn the_replica_machine_is_the_five_state_chain() {
        let (projections, _) = project(&abd_operation_default());
        let replica = projections
            .iter()
            .find(|p| p.role == REPLICA)
            .expect("replica projection");
        // query, reply, impose, ack — and the state after the reply is one
        // a replica may stop in.
        let a = &replica.automaton;
        assert_eq!(a.len(), 5, "{a:?}");
        assert_eq!(a.accepting.iter().filter(|x| **x).count(), 2, "{a:?}");
        assert!(!a.accepting[a.start]);
    }
}
