//! A resolved route is built once per wiring, not once per event: the first
//! trigger of an event type at a half allocates (it resolves and stores the
//! route), every later one allocates nothing — the event is shared, the
//! `WorkItem` goes into mailbox storage earlier events already grew. This
//! binary installs an allocator that counts the requests each thread makes,
//! so the test observes the allocations themselves.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use kompics_core::channel::connect;
use kompics_core::prelude::*;

thread_local! {
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down.
    let _ = REQUESTS.try_with(|requests| requests.set(requests.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// `const`-initialised thread-local `Cell` and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; all three are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn requests_during(f: impl FnOnce()) -> u64 {
    let before = REQUESTS.with(Cell::get);
    f();
    REQUESTS.with(Cell::get) - before
}

#[derive(Debug, Clone)]
struct Warm;
impl_event!(Warm);

#[derive(Debug, Clone)]
struct Probe;
impl_event!(Probe);

#[derive(Debug, Clone)]
struct Answer;
impl_event!(Answer);

port_type! {
    pub struct Pipe {
        indication: Answer;
        request: Warm, Probe;
    }
}

struct Server {
    ctx: ComponentContext,
    #[allow(dead_code)]
    pipe: ProvidedPort<Pipe>,
    served: u64,
}

impl Server {
    fn new() -> Server {
        let pipe = ProvidedPort::new();
        pipe.subscribe(|this: &mut Server, _: &Warm| this.served += 1);
        pipe.subscribe(|this: &mut Server, _: &Probe| this.served += 1);
        Server {
            ctx: ComponentContext::new(),
            pipe,
            served: 0,
        }
    }
}

impl ComponentDefinition for Server {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Server"
    }
}

struct Client {
    ctx: ComponentContext,
    #[allow(dead_code)]
    pipe: RequiredPort<Pipe>,
}

impl ComponentDefinition for Client {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "Client"
    }
}

#[test]
fn only_the_first_trigger_of_an_event_type_allocates() {
    const BATCH: u64 = 64;
    let (system, sched) = KompicsSystem::sequential(Config::default());
    let server = system.create(Server::new);
    let client = system.create(|| Client {
        ctx: ComponentContext::new(),
        pipe: RequiredPort::new(),
    });
    let required = client.required_ref::<Pipe>().unwrap();
    connect(&server.provided_ref::<Pipe>().unwrap(), &required).unwrap();
    system.start(&server);
    system.start(&client);
    // Requests leave the client through the inside half of its port, cross
    // the channel and enter the server: two port pairs and a channel.
    let out = required.pair_ref().expect("both halves alive");

    // Let the server's mailbox and the scheduler's queue grow to a batch.
    for _ in 0..BATCH {
        out.trigger(Warm).unwrap();
    }
    sched.run_until_quiescent();

    let probe: EventRef = Arc::new(Probe);
    let first = requests_during(|| {
        out.trigger_shared(Arc::clone(&probe)).unwrap();
    });
    assert!(first > 0, "resolving and storing a route allocates");
    let later = requests_during(|| {
        for _ in 1..BATCH {
            let feedback = out.trigger_shared(Arc::clone(&probe)).unwrap();
            assert_eq!(feedback.delivered, 1);
        }
    });
    assert_eq!(later, 0, "replaying a route allocates nothing");
    sched.run_until_quiescent();
    assert_eq!(server.on_definition(|s| s.served).unwrap(), 2 * BATCH);
    system.shutdown();
}
