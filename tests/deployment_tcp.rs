//! The deployment architecture of the paper's Figure 10: every CATS node
//! with its own real TCP transport (the NIO-framework substitute) and its
//! own thread timer, communicating over loopback sockets with full message
//! serialization through the binary codec — then serving linearizable
//! operations.

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kompics::cats::abd::{
    AbdConfig, GetRequest, GetResponse, OpFailed, PutGet, PutRequest, PutResponse,
};
use kompics::cats::key::RingKey;
use kompics::cats::node::{CatsConfig, CatsNode};
use kompics::cats::ring::RingConfig;
use kompics::core::channel::connect;
use kompics::core::component::Component;
use kompics::core::port::PortRef;
use kompics::network::{Address, MessageRegistry, Network, TcpConfig, TcpNetwork};
use kompics::prelude::*;
use kompics::protocols::cyclon::CyclonConfig;
use kompics::protocols::fd::FdConfig;
use kompics::timer::{ThreadTimer, Timer};
use parking_lot::Mutex;

/// Registry with every protocol's wire messages, as a deployment would
/// configure it.
fn full_registry() -> Arc<MessageRegistry> {
    let mut registry = MessageRegistry::new();
    kompics::protocols::fd::register_messages(&mut registry, 100).unwrap();
    kompics::protocols::bootstrap::register_messages(&mut registry, 200).unwrap();
    kompics::protocols::cyclon::register_messages(&mut registry, 300).unwrap();
    kompics::protocols::monitor::register_messages(&mut registry, 400).unwrap();
    kompics::cats::msgs::register_messages(&mut registry, 500).unwrap();
    Arc::new(registry)
}

fn fast_config() -> CatsConfig {
    CatsConfig {
        telemetry: None,
        replication: Some(3),
        ring: RingConfig {
            stabilize_period: Duration::from_millis(50),
            ..RingConfig::default()
        },
        fd: FdConfig {
            initial_delay: Duration::from_millis(300),
            delta: Duration::from_millis(150),
        },
        cyclon: CyclonConfig {
            period: Duration::from_millis(100),
            ..CyclonConfig::default()
        },
        abd: AbdConfig {
            op_timeout: Duration::from_millis(600),
            max_retries: 6,
            ..AbdConfig::default()
        },
    }
}

type Pending = Arc<Mutex<HashMap<u64, SyncSender<Option<Vec<u8>>>>>>;

/// Test client collecting responses from all nodes.
struct Client {
    ctx: ComponentContext,
    #[allow(dead_code)] // keeps the port pair alive
    put_get: RequiredPort<PutGet>,
    pending: Pending,
}
impl Client {
    fn new(pending: Pending) -> Self {
        let put_get: RequiredPort<PutGet> = RequiredPort::new();
        put_get.subscribe(|this: &mut Client, resp: &GetResponse| {
            if let Some(tx) = this.pending.lock().remove(&resp.id) {
                let _ = tx.send(resp.value.clone());
            }
        });
        put_get.subscribe(|this: &mut Client, resp: &PutResponse| {
            if let Some(tx) = this.pending.lock().remove(&resp.id) {
                let _ = tx.send(Some(Vec::new()));
            }
        });
        put_get.subscribe(|_this: &mut Client, fail: &OpFailed| {
            panic!("operation {} failed: {}", fail.id, fail.reason);
        });
        Client {
            ctx: ComponentContext::new(),
            put_get,
            pending,
        }
    }
}
impl ComponentDefinition for Client {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Client"
    }
}

struct DeployedNode {
    node: Component<CatsNode>,
    put_get: PortRef<PutGet>,
    addr: Address,
}

#[test]
fn cats_over_real_tcp_serves_linearizable_ops() {
    let system = KompicsSystem::new(Config::default().workers(4));
    let registry = full_registry();

    // Bind three transports first so every node knows every address.
    let mut bindings = Vec::new();
    for id in [100u64, 200, 300] {
        let (addr, listener) = TcpNetwork::bind(Address::local(0, id)).unwrap();
        bindings.push((addr, listener));
    }

    let pending: Pending = Arc::new(Mutex::new(HashMap::new()));
    let client = system.create({
        let p = pending.clone();
        move || Client::new(p)
    });
    system.start(&client);

    let mut nodes: Vec<DeployedNode> = Vec::new();
    for (addr, listener) in bindings {
        let tcp = system.create({
            let registry = Arc::clone(&registry);
            move || TcpNetwork::new(addr, listener, registry, TcpConfig::default())
        });
        let timer = system.create(ThreadTimer::new);
        let node = system.create(move || CatsNode::new(addr, fast_config()));
        connect(
            &tcp.provided_ref::<Network>().unwrap(),
            &node.required_ref::<Network>().unwrap(),
        )
        .unwrap();
        connect(
            &timer.provided_ref::<Timer>().unwrap(),
            &node.required_ref::<Timer>().unwrap(),
        )
        .unwrap();
        let put_get = node.provided_ref::<PutGet>().unwrap();
        connect(&put_get, &client.required_ref::<PutGet>().unwrap()).unwrap();
        system.start(&tcp);
        system.start(&timer);
        let seeds: Vec<Address> = nodes.iter().map(|n| n.addr).collect();
        CatsNode::join(&node, seeds);
        nodes.push(DeployedNode {
            node,
            put_get,
            addr,
        });
    }

    // Wait for convergence.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let ready = nodes.iter().all(|n| {
            n.node
                .on_definition(|d| {
                    d.is_joined().unwrap_or(false) && d.view_size().unwrap_or(0) >= 3
                })
                .unwrap_or(false)
        });
        if ready {
            break;
        }
        assert!(Instant::now() < deadline, "TCP cluster did not converge");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Put through node 0, get through node 2 — full serialization and TCP
    // round-trips underneath.
    let mut op_id = 1u64;
    let mut run_op = |node: &DeployedNode, op: &str, key: u64, value: Option<Vec<u8>>| {
        let id = op_id;
        op_id += 1;
        let (tx, rx) = sync_channel(1);
        pending.lock().insert(id, tx);
        match op {
            "put" => node
                .put_get
                .trigger(PutRequest {
                    id,
                    key: RingKey(key),
                    value: value.unwrap(),
                })
                .unwrap(),
            _ => node
                .put_get
                .trigger(GetRequest {
                    id,
                    key: RingKey(key),
                })
                .unwrap(),
        };
        rx.recv_timeout(Duration::from_secs(10))
            .expect("op response")
    };

    let value = vec![0xAB; 1024];
    assert!(run_op(&nodes[0], "put", 42, Some(value.clone())).is_some());
    assert_eq!(run_op(&nodes[2], "get", 42, None), Some(value));
    assert_eq!(
        run_op(&nodes[1], "get", 777, None),
        None,
        "unwritten key reads None"
    );

    // A burst of writes and reads across coordinators.
    for i in 0..20u64 {
        assert!(run_op(
            &nodes[(i % 3) as usize],
            "put",
            1000 + i,
            Some(vec![i as u8; 64])
        )
        .is_some());
    }
    for i in 0..20u64 {
        assert_eq!(
            run_op(&nodes[((i + 1) % 3) as usize], "get", 1000 + i, None),
            Some(vec![i as u8; 64]),
            "key {}",
            1000 + i
        );
    }
    system.shutdown();
}
