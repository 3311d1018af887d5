//! The CATS Node composite (paper Figure 11).
//!
//! Encapsulates the whole per-node protocol stack — ping failure detector,
//! CATS ring, one-hop router, Cyclon overlay and Consistent ABD — behind
//! three provided ports:
//!
//! * [`PutGet`] — the key-value API (pass-through to ABD), hiding the
//!   event-driven control flow from clients;
//! * [`Status`] — aggregated component status, for the monitoring client
//!   and the web frontend;
//! * [`Web`] — a JSON status page assembled from the children's statuses.
//!
//! The composite *requires* only `Network` and `Timer`; both are passed
//! through to every child. Which implementations serve them — TCP + thread
//! timer in deployment, emulator + virtual timer in simulation, in-process
//! network in local stress-test mode — is decided entirely by the enclosing
//! architecture, never by this code.

use std::collections::BTreeMap;

use kompics_core::channel::connect;
use kompics_core::component::Component;
use kompics_core::prelude::*;
use kompics_network::{Address, Network};
use kompics_protocols::cyclon::{CyclonConfig, CyclonOverlay, JoinOverlay, NodeSampling};
use kompics_protocols::fd::{EventuallyPerfectFd, FdConfig, PingFailureDetector};
use kompics_protocols::monitor::{Status, StatusRequest, StatusResponse};
use kompics_protocols::web::{Web, WebRequest, WebResponse};
use kompics_timer::Timer;

use crate::abd::{
    AbdConfig, ConsistentAbd, GetRequest, GetResponse, OpFailed, PutGet, PutRequest, PutResponse,
};
use crate::key::RingKey;
use crate::ring::{CatsRing, RingConfig, RingJoin, RingPort};
use crate::router::{OneHopRouter, Routing};

/// Initialization event for a CATS node: the seed nodes to join through
/// (empty for the first node). Trigger it on the node's control port before
/// [`Start`], or use [`CatsNode::join`].
#[derive(Debug, Clone)]
pub struct CatsInit {
    /// Embedded [`Init`] base.
    pub base: Init,
    /// Seed nodes already in the system.
    pub seeds: Vec<Address>,
}
impl_event!(CatsInit, extends Init, via base);

/// Configuration for a CATS node and its children.
#[derive(Debug, Clone, Default)]
pub struct CatsConfig {
    /// Replication degree (group size). Default from [`default_replication`].
    pub replication: Option<usize>,
    /// Ring parameters.
    pub ring: RingConfig,
    /// Failure-detector parameters.
    pub fd: FdConfig,
    /// Cyclon parameters.
    pub cyclon: CyclonConfig,
    /// ABD parameters.
    pub abd: AbdConfig,
    /// Metrics registry for protocol-level telemetry (router lookup counts,
    /// view sizes). `None` keeps the node metrics-free; the runtime's own
    /// per-component instrumentation is configured separately via
    /// `KompicsSystem::install_telemetry` / `Simulation::install_telemetry`
    /// and typically shares this registry.
    pub telemetry: Option<std::sync::Arc<kompics_telemetry::Registry>>,
}

/// The default replication degree (3: tolerates one replica failure per
/// group while retaining majorities).
pub fn default_replication() -> usize {
    3
}

impl CatsConfig {
    /// The effective replication degree.
    pub fn replication_degree(&self) -> usize {
        self.replication.unwrap_or_else(default_replication)
    }
}

/// High bit namespacing the node's own (web-initiated) operation ids away
/// from external clients' ids.
const WEB_OP_BIT: u64 = 1 << 62;

struct PendingWeb {
    web_id: u64,
    collected: Vec<StatusResponse>,
    expected: usize,
}

/// The CATS node composite. See the module documentation.
pub struct CatsNode {
    ctx: ComponentContext,
    #[allow(dead_code)] // keeps the port pair alive
    put_get: ProvidedPort<PutGet>,
    #[allow(dead_code)] // keeps the port pair alive
    status: ProvidedPort<Status>,
    web: ProvidedPort<Web>,
    #[allow(dead_code)] // keeps the port pair alive
    net: RequiredPort<Network>,
    #[allow(dead_code)] // keeps the port pair alive
    timer: RequiredPort<Timer>,
    /// Internal status poller feeding the web page.
    status_in: RequiredPort<Status>,
    /// Internal client port for interactive web commands against ABD.
    put_get_in: RequiredPort<PutGet>,
    /// Operation id → web-request id for in-flight interactive commands.
    /// Operation ids carry [`WEB_OP_BIT`] so they never collide with ids
    /// chosen by external `PutGet` clients of the same node.
    pending_ops: std::collections::HashMap<u64, u64>,
    self_addr: Address,
    ring_ref: kompics_core::port::PortRef<RingPort>,
    sampling_ref: kompics_core::port::PortRef<NodeSampling>,
    #[allow(dead_code)]
    fd: Component<PingFailureDetector>,
    ring: Component<CatsRing>,
    router: Component<OneHopRouter>,
    #[allow(dead_code)]
    cyclon: Component<CyclonOverlay>,
    abd: Component<ConsistentAbd>,
    pending_web: Vec<PendingWeb>,
}

impl CatsNode {
    /// Creates the node assembly for `self_addr` (inside a `create`
    /// closure).
    pub fn new(self_addr: Address, config: CatsConfig) -> Self {
        let ctx = ComponentContext::new();
        let put_get: ProvidedPort<PutGet> = ProvidedPort::new();
        let status: ProvidedPort<Status> = ProvidedPort::new();
        let web: ProvidedPort<Web> = ProvidedPort::new();
        let net: RequiredPort<Network> = RequiredPort::new();
        let timer: RequiredPort<Timer> = RequiredPort::new();
        let status_in: RequiredPort<Status> = RequiredPort::new();
        let put_get_in: RequiredPort<PutGet> = RequiredPort::new();

        let replication = config.replication_degree();
        let fd = ctx.create({
            let fd_config = config.fd.clone();
            move || PingFailureDetector::new(self_addr, fd_config)
        });
        let ring = ctx.create({
            let ring_config = config.ring.clone();
            move || CatsRing::new(self_addr, ring_config)
        });
        let router = ctx.create({
            let registry = config.telemetry.clone();
            move || OneHopRouter::with_telemetry(self_addr, replication, registry.as_deref())
        });
        let cyclon = ctx.create({
            let cyclon_config = config.cyclon.clone();
            move || CyclonOverlay::new(self_addr, cyclon_config)
        });
        let abd = ctx.create({
            let abd_config = config.abd.clone();
            move || ConsistentAbd::new(self_addr, abd_config)
        });

        // Network and Timer pass-through to every child that uses them.
        let expect = "child port exists";
        for net_port in [
            fd.required_ref::<Network>().expect(expect),
            ring.required_ref::<Network>().expect(expect),
            cyclon.required_ref::<Network>().expect(expect),
            abd.required_ref::<Network>().expect(expect),
        ] {
            connect(&net.inside_ref(), &net_port).expect("wire network");
        }
        for timer_port in [
            fd.required_ref::<Timer>().expect(expect),
            ring.required_ref::<Timer>().expect(expect),
            cyclon.required_ref::<Timer>().expect(expect),
            abd.required_ref::<Timer>().expect(expect),
        ] {
            connect(&timer.inside_ref(), &timer_port).expect("wire timer");
        }
        // Failure detector feeds both ring and router.
        let fd_provided = fd.provided_ref::<EventuallyPerfectFd>().expect(expect);
        connect(&fd_provided, &ring.required_ref().expect(expect)).expect("wire fd");
        connect(&fd_provided, &router.required_ref().expect(expect)).expect("wire fd");
        // Ring and Cyclon feed the router; the router serves ABD.
        connect(
            &ring.provided_ref::<RingPort>().expect(expect),
            &router.required_ref::<RingPort>().expect(expect),
        )
        .expect("wire ring");
        connect(
            &cyclon.provided_ref::<NodeSampling>().expect(expect),
            &router.required_ref::<NodeSampling>().expect(expect),
        )
        .expect("wire sampling");
        connect(
            &router.provided_ref::<Routing>().expect(expect),
            &abd.required_ref::<Routing>().expect(expect),
        )
        .expect("wire routing");
        // PutGet pass-through to ABD, plus the node's own client connection
        // for interactive web commands.
        connect(
            &put_get.inside_ref(),
            &abd.provided_ref::<PutGet>().expect(expect),
        )
        .expect("wire put-get");
        connect(
            &put_get_in.share(),
            &abd.provided_ref::<PutGet>().expect(expect),
        )
        .expect("wire web put-get");
        // Status pass-through (for the monitoring client) and the internal
        // poller (for the web page).
        for provider in [
            ring.provided_ref::<Status>().expect(expect),
            router.provided_ref::<Status>().expect(expect),
            abd.provided_ref::<Status>().expect(expect),
            fd.provided_ref::<Status>().expect(expect),
            cyclon.provided_ref::<Status>().expect(expect),
        ] {
            connect(&status.inside_ref(), &provider).expect("wire status");
            connect(&status_in.share(), &provider).expect("wire status poll");
        }

        // Join on CatsInit.
        ctx.subscribe_control(|this: &mut CatsNode, init: &CatsInit| {
            let _ = this.ring_ref.trigger(RingJoin {
                seeds: init.seeds.clone(),
            });
            let _ = this.sampling_ref.trigger(JoinOverlay {
                seeds: init.seeds.clone(),
            });
        });

        // Web: `/get/<key>` and `/put/<key>/<value>` issue interactive
        // operations (the paper's "interactive commands to PutGet from a web
        // browser"); any other path polls the children and assembles a JSON
        // status page.
        web.subscribe(|this: &mut CatsNode, req: &WebRequest| {
            this.handle_web(req);
        });
        status_in.subscribe(|this: &mut CatsNode, resp: &StatusResponse| {
            this.collect_status(resp);
        });
        put_get_in.subscribe(|this: &mut CatsNode, resp: &GetResponse| {
            if let Some(web_id) = this.pending_ops.remove(&resp.id) {
                let body = match &resp.value {
                    Some(v) => format!(
                        "{{\"key\":{},\"value\":\"{}\"}}",
                        resp.key.0,
                        String::from_utf8_lossy(v)
                    ),
                    None => format!("{{\"key\":{},\"value\":null}}", resp.key.0),
                };
                this.web.trigger(WebResponse {
                    id: web_id,
                    status: 200,
                    body,
                });
            }
        });
        put_get_in.subscribe(|this: &mut CatsNode, resp: &PutResponse| {
            if let Some(web_id) = this.pending_ops.remove(&resp.id) {
                this.web.trigger(WebResponse {
                    id: web_id,
                    status: 200,
                    body: format!("{{\"key\":{},\"stored\":true}}", resp.key.0),
                });
            }
        });
        put_get_in.subscribe(|this: &mut CatsNode, fail: &OpFailed| {
            if let Some(web_id) = this.pending_ops.remove(&fail.id) {
                this.web.trigger(WebResponse {
                    id: web_id,
                    status: 503,
                    body: format!("{{\"error\":\"{}\"}}", fail.reason),
                });
            }
        });

        let ring_ref = ring.provided_ref::<RingPort>().expect(expect);
        let sampling_ref = cyclon.provided_ref::<NodeSampling>().expect(expect);
        CatsNode {
            ctx,
            put_get,
            status,
            web,
            net,
            timer,
            status_in,
            put_get_in,
            pending_ops: std::collections::HashMap::new(),
            self_addr,
            ring_ref,
            sampling_ref,
            fd,
            ring,
            router,
            cyclon,
            abd,
            pending_web: Vec::new(),
        }
    }

    /// The node's address.
    pub fn self_addr(&self) -> Address {
        self.self_addr
    }

    /// Triggers the join sequence on a created node: `CatsInit` followed by
    /// [`Start`].
    pub fn join(node: &Component<CatsNode>, seeds: Vec<Address>) {
        node.control_ref()
            .trigger(CatsInit { base: Init, seeds })
            .expect("control port accepts CatsInit");
        node.control_ref()
            .trigger(Start)
            .expect("control port accepts Start");
    }

    /// Whether the ring join has completed (introspection hook; see
    /// [`CatsRing::is_joined`]).
    pub fn is_joined(&self) -> Result<bool, CoreError> {
        self.ring.on_definition(|r| r.is_joined())
    }

    /// The router's membership view size (introspection hook).
    pub fn view_size(&self) -> Result<usize, CoreError> {
        self.router.on_definition(|r| r.view_size())
    }

    /// Keys stored on this replica (introspection hook).
    pub fn stored_keys(&self) -> Result<usize, CoreError> {
        self.abd.on_definition(|a| a.stored_keys())
    }

    /// Gets this coordinator completed (in one round, after a write-back);
    /// see [`ConsistentAbd::get_stats`].
    pub fn get_stats(&self) -> Result<(u64, u64), CoreError> {
        self.abd.on_definition(|a| a.get_stats())
    }

    /// The ABD replication component's handled-event surface — the
    /// role-binding input for the [`kompics_choreo`] protocol checker.
    pub fn abd_surface(&self) -> kompics_core::analyze::ComponentSurface {
        self.abd.protocol_surface()
    }

    /// The Cyclon overlay's handled-event surface — the role-binding input
    /// for the [`kompics_choreo`] protocol checker.
    pub fn cyclon_surface(&self) -> kompics_core::analyze::ComponentSurface {
        self.cyclon.protocol_surface()
    }

    /// Dispatches a web request: interactive `get`/`put` commands or the
    /// status page.
    fn handle_web(&mut self, req: &WebRequest) {
        let parts: Vec<&str> = req.path.trim_matches('/').split('/').collect();
        match parts.as_slice() {
            ["get", key] => {
                if let Ok(key) = key.parse::<u64>() {
                    let op_id = req.id | WEB_OP_BIT;
                    self.pending_ops.insert(op_id, req.id);
                    self.put_get_in.trigger(GetRequest {
                        id: op_id,
                        key: RingKey(key),
                    });
                    return;
                }
            }
            ["put", key, value] => {
                if let Ok(key) = key.parse::<u64>() {
                    let op_id = req.id | WEB_OP_BIT;
                    self.pending_ops.insert(op_id, req.id);
                    self.put_get_in.trigger(PutRequest {
                        id: op_id,
                        key: RingKey(key),
                        value: value.as_bytes().to_vec(),
                    });
                    return;
                }
            }
            _ => {}
        }
        // Status page.
        self.pending_web.push(PendingWeb {
            web_id: req.id,
            collected: Vec::new(),
            expected: 5,
        });
        self.status_in.trigger(StatusRequest { tag: req.id });
    }

    fn collect_status(&mut self, resp: &StatusResponse) {
        let Some(idx) = self.pending_web.iter().position(|p| p.web_id == resp.tag) else {
            return;
        };
        self.pending_web[idx].collected.push(resp.clone());
        if self.pending_web[idx].collected.len() < self.pending_web[idx].expected {
            return;
        }
        let pending = self.pending_web.swap_remove(idx);
        let mut components = BTreeMap::new();
        for status in pending.collected {
            components.insert(status.component, status.entries);
        }
        let mut body = format!("{{\"node\":\"{}\"", self.self_addr);
        for (component, entries) in components {
            body.push_str(&format!(",\"{component}\":{{"));
            for (j, (k, v)) in entries.iter().enumerate() {
                if j > 0 {
                    body.push(',');
                }
                body.push_str(&format!("\"{k}\":\"{v}\""));
            }
            body.push('}');
        }
        body.push('}');
        self.web.trigger(WebResponse {
            id: pending.web_id,
            status: 200,
            body,
        });
    }
}

impl ComponentDefinition for CatsNode {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "CatsNode"
    }
}
