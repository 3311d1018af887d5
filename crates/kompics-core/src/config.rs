//! Runtime configuration.

use crate::fault::FaultPolicy;

/// A deterministic, test-only worker stall: after the given worker has
/// executed `after_slices` execution slices, it sleeps for `millis`
/// milliseconds before continuing. The scheduler test suite uses planted
/// stalls to prove that protocol properties (linearizability, lane order,
/// no lost wakeups) do not depend on worker timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStall {
    /// Worker index (0-based) to stall.
    pub worker: usize,
    /// Stall once the worker has executed exactly this many slices.
    pub after_slices: u64,
    /// Stall duration in milliseconds.
    pub millis: u64,
}

/// Configuration of the sharded work-stealing scheduler: steal batching,
/// inbound-ring capacity, and planted worker stalls.
///
/// ```rust
/// use kompics_core::config::{Config, SchedulerSpec};
///
/// let config = Config::default()
///     .workers(8)
///     .scheduler(SchedulerSpec::default().steal_batch(4));
/// assert_eq!(config.scheduler_spec().steal_batch_size(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSpec {
    steal_batch: usize,
    inbound_capacity: usize,
    stalls: Vec<WorkerStall>,
}

impl Default for SchedulerSpec {
    fn default() -> Self {
        SchedulerSpec {
            steal_batch: Self::DEFAULT_STEAL_BATCH,
            inbound_capacity: 256,
            stalls: Vec::new(),
        }
    }
}

impl SchedulerSpec {
    /// Default maximum components taken per steal (the "batch" mode of the
    /// paper's E3 ablation; `steal_batch(1)` is the "single" mode).
    pub const DEFAULT_STEAL_BATCH: usize = 8;

    /// Creates the default spec (batch stealing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the maximum components a thief takes per steal (at least 1;
    /// `1` reproduces the paper's single-component-steal baseline).
    pub fn steal_batch(mut self, steal_batch: usize) -> Self {
        self.steal_batch = steal_batch.max(1);
        self
    }

    /// Sets the per-shard inbound handoff ring capacity (rounded up to a
    /// power of two; overflow falls back to the shard's queue lock).
    pub fn inbound_capacity(mut self, capacity: usize) -> Self {
        self.inbound_capacity = capacity.max(2);
        self
    }

    /// Plants a deterministic worker stall (see [`WorkerStall`]).
    pub fn stall_at(mut self, worker: usize, after_slices: u64, millis: u64) -> Self {
        self.stalls.push(WorkerStall {
            worker,
            after_slices,
            millis,
        });
        self
    }

    /// The maximum components taken per steal.
    pub fn steal_batch_size(&self) -> usize {
        self.steal_batch
    }

    /// The inbound handoff ring capacity per shard.
    pub fn ring_capacity(&self) -> usize {
        self.inbound_capacity
    }

    /// The planted worker stalls.
    pub fn stalls(&self) -> &[WorkerStall] {
        &self.stalls
    }
}

/// Configuration for a [`KompicsSystem`](crate::system::KompicsSystem).
///
/// ```rust
/// use kompics_core::config::Config;
///
/// let config = Config::default().workers(4).throughput(1);
/// assert_eq!(config.worker_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Config {
    workers: usize,
    throughput: usize,
    fault_policy: FaultPolicy,
    scheduler: SchedulerSpec,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            workers: 0,
            throughput: 25,
            fault_policy: FaultPolicy::default(),
            scheduler: SchedulerSpec::default(),
        }
    }
}

impl Config {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of scheduler worker threads. `0` (the default) means
    /// one per available CPU.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the maximum number of events one component executes per
    /// scheduling (the scheduler's fairness/throughput trade-off). The
    /// paper's model executes one event per scheduling; larger values
    /// amortize scheduling overhead.
    pub fn throughput(mut self, throughput: usize) -> Self {
        self.throughput = throughput.max(1);
        self
    }

    /// Sets what happens to faults no component handles.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Sets the scheduler configuration (steal batching, ring capacity,
    /// planted stalls). See [`SchedulerSpec`].
    pub fn scheduler(mut self, spec: SchedulerSpec) -> Self {
        self.scheduler = spec;
        self
    }

    /// The configured number of workers, resolving `0` to the number of
    /// available CPUs.
    pub fn worker_count(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }

    /// The events-per-scheduling throughput value.
    pub fn throughput_value(&self) -> usize {
        self.throughput
    }

    /// The configured fault policy.
    pub fn fault_policy_value(&self) -> FaultPolicy {
        self.fault_policy
    }

    /// The scheduler configuration.
    pub fn scheduler_spec(&self) -> &SchedulerSpec {
        &self.scheduler
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_resolves_workers() {
        let c = Config::default();
        assert!(c.worker_count() >= 1);
        assert_eq!(c.throughput_value(), 25);
        assert_eq!(
            c.scheduler_spec().steal_batch_size(),
            SchedulerSpec::DEFAULT_STEAL_BATCH
        );
    }

    #[test]
    fn throughput_is_at_least_one() {
        let c = Config::default().throughput(0);
        assert_eq!(c.throughput_value(), 1);
    }

    #[test]
    fn builder_chains() {
        let c = Config::new()
            .workers(2)
            .throughput(7)
            .fault_policy(FaultPolicy::Collect)
            .scheduler(SchedulerSpec::default().steal_batch(1));
        assert_eq!(c.worker_count(), 2);
        assert_eq!(c.throughput_value(), 7);
        assert_eq!(c.fault_policy_value(), FaultPolicy::Collect);
        assert_eq!(c.scheduler_spec().steal_batch_size(), 1);
    }

    #[test]
    fn scheduler_spec_builder() {
        let spec = SchedulerSpec::new()
            .steal_batch(0)
            .inbound_capacity(1)
            .stall_at(2, 100, 5);
        assert_eq!(spec.steal_batch_size(), 1, "batch clamps to >= 1");
        assert_eq!(spec.ring_capacity(), 2, "ring clamps to >= 2");
        assert_eq!(
            spec.stalls(),
            &[WorkerStall {
                worker: 2,
                after_slices: 100,
                millis: 5
            }]
        );
        let c = Config::default().scheduler(spec.clone());
        assert_eq!(c.scheduler_spec(), &spec);
    }
}
