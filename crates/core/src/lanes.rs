//! The one lane runtime behind both sharded modes.
//!
//! The bitmaps of one estimator ([`ShardedEstimator`](crate::ShardedEstimator))
//! and the queries of a catalog ([`ShardedCatalog`](crate::ShardedCatalog))
//! are independent, so either split runs on worker threads fed in stream
//! order and stays bit-exact. [`Lanes`] is the machinery both use: one
//! worker per [`Lane`], fed over one forward SPSC ring ([`crate::ring`]) of
//! [`RING_DEPTH`] messages, applied strictly in send order. A full ring
//! makes [`Lanes::send`] spin, bounding the backlog per lane. The worker
//! counts `ingest.idle_waits` when it has to block and lowers
//! `ingest.shardK.queue_depth`, which [`Lanes::send`] raised.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::metrics::MetricsHandle;
use crate::parallel::RING_DEPTH;
use crate::ring;

/// What one worker thread owns.
pub(crate) trait Lane: Send + 'static {
    /// The unit the router ships down the lane.
    type Batch: Send + 'static;

    /// Applies one batch, in the order the router sent it.
    fn apply(&mut self, batch: Self::Batch);

    /// Runs when a [`Lanes::publish`] request reaches the lane.
    fn publish(&mut self) {}
}

/// What the router sends down a lane.
enum Msg<B> {
    Batch(B),
    Publish,
    Barrier(SyncSender<()>),
}

/// `T` worker threads, each owning one [`Lane`].
#[derive(Debug)]
pub(crate) struct Lanes<L: Lane> {
    rings: Vec<ring::Producer<Msg<L::Batch>>>,
    workers: Vec<JoinHandle<L>>,
    metrics: MetricsHandle,
    /// One reusable ack channel for every [`barrier`](Self::barrier):
    /// workers ack on clones of the sender (a refcount bump, no heap),
    /// so quiesce points stay off the allocator.
    barrier_ack: (SyncSender<()>, Receiver<()>),
}

impl<L: Lane> Lanes<L> {
    /// Starts one worker thread per lane; worker counters go to `metrics`.
    pub(crate) fn spawn(lanes: Vec<L>, metrics: MetricsHandle) -> Self {
        let mut rings = Vec::with_capacity(lanes.len());
        let mut workers = Vec::with_capacity(lanes.len());
        for (k, mut lane) in lanes.into_iter().enumerate() {
            let (tx, rx) = ring::ring::<Msg<L::Batch>>(RING_DEPTH);
            rings.push(tx);
            let metrics = metrics.clone();
            workers.push(std::thread::spawn(move || {
                // idle_waits tells a router-bound pipeline (workers
                // starving) from a worker-bound one.
                while let Some(msg) = rx.try_pop().or_else(|| {
                    metrics.ingest.idle_waits.inc();
                    rx.pop()
                }) {
                    match msg {
                        Msg::Batch(batch) => {
                            metrics.ingest.lane(k).queue_depth.adjust(-1);
                            lane.apply(batch);
                        }
                        Msg::Publish => lane.publish(),
                        // FIFO lane: every message sent before the barrier
                        // has been applied once we get here.
                        Msg::Barrier(ack) => {
                            let _ = ack.send(());
                        }
                    }
                }
                lane
            }));
        }
        let barrier_ack = sync_channel(rings.len());
        Self {
            rings,
            workers,
            metrics,
            barrier_ack,
        }
    }

    /// Number of lanes.
    pub(crate) fn len(&self) -> usize {
        self.rings.len()
    }

    fn push(&self, k: usize, msg: Msg<L::Batch>) {
        self.rings[k]
            .push(msg)
            .unwrap_or_else(|_| panic!("lane worker exited early"));
    }

    /// Ships `batch` to lane `k`, blocking while its ring is full.
    pub(crate) fn send(&self, k: usize, batch: L::Batch) {
        self.metrics.ingest.lane(k).queue_depth.adjust(1);
        self.push(k, Msg::Batch(batch));
    }

    /// Asks every lane to [`publish`](Lane::publish) at its next message
    /// boundary, without waiting for it.
    pub(crate) fn publish(&self) {
        for k in 0..self.len() {
            self.push(k, Msg::Publish);
        }
    }

    /// Blocks until every lane has applied everything sent before it.
    pub(crate) fn barrier(&self) {
        for k in 0..self.len() {
            self.push(k, Msg::Barrier(self.barrier_ack.0.clone()));
        }
        for _ in 0..self.len() {
            self.barrier_ack.1.recv().expect("lane worker exited early");
        }
    }

    /// Closes every ring, lets each worker drain what is still queued,
    /// and returns the lanes in order; panics if a worker panicked.
    pub(crate) fn join(self) -> Vec<L> {
        drop(self.rings); // each worker drains, then its pop returns None
        self.workers
            .into_iter()
            .map(|worker| worker.join().expect("lane worker panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Sums its batches into `total`, optionally napping first so batches
    /// pile up in the ring, and panics on `u64::MAX`.
    struct Summer {
        seen: Vec<u64>,
        total: Arc<AtomicU64>,
        nap: Duration,
        publishes: u64,
    }

    impl Summer {
        fn new(total: &Arc<AtomicU64>, nap: Duration) -> Self {
            Self {
                seen: Vec::new(),
                total: Arc::clone(total),
                nap,
                publishes: 0,
            }
        }
    }

    impl Lane for Summer {
        type Batch = u64;

        fn apply(&mut self, batch: u64) {
            assert_ne!(batch, u64::MAX, "poisoned batch");
            std::thread::sleep(self.nap);
            self.seen.push(batch);
            self.total.fetch_add(batch, Ordering::Release);
        }

        fn publish(&mut self) {
            self.publishes += 1;
        }
    }

    #[test]
    fn barrier_returns_after_every_earlier_batch_is_applied() {
        let total = Arc::new(AtomicU64::new(0));
        let lanes = Lanes::spawn(
            (0..3)
                .map(|_| Summer::new(&total, Duration::from_millis(1)))
                .collect(),
            MetricsHandle::new(),
        );
        let mut sent = 0;
        for round in 1..=5u64 {
            for i in 0..20u64 {
                let batch = round * 100 + i;
                lanes.send((i % 3) as usize, batch);
                sent += batch;
            }
            lanes.barrier();
            assert_eq!(total.load(Ordering::Acquire), sent, "round {round}");
        }
        let done = lanes.join();
        assert_eq!(done.iter().map(|l| l.seen.len()).sum::<usize>(), 100);
    }

    #[test]
    fn join_applies_the_backlog_still_queued_when_the_rings_close() {
        let total = Arc::new(AtomicU64::new(0));
        let lanes = Lanes::spawn(
            (0..2)
                .map(|_| Summer::new(&total, Duration::from_millis(2)))
                .collect(),
            MetricsHandle::new(),
        );
        for batch in 0..40u64 {
            lanes.send((batch % 2) as usize, batch);
        }
        lanes.publish();
        let done = lanes.join();
        // Every batch arrives, in send order per lane, and the publish
        // request sent last is applied too.
        assert_eq!(done[0].seen, (0..40).step_by(2).collect::<Vec<_>>());
        assert_eq!(done[1].seen, (1..40).step_by(2).collect::<Vec<_>>());
        assert!(done.iter().all(|l| l.publishes == 1));
        assert_eq!(total.load(Ordering::Acquire), (0..40).sum::<u64>());
    }

    #[test]
    fn queue_depth_returns_to_zero_once_drained() {
        let total = Arc::new(AtomicU64::new(0));
        let metrics = MetricsHandle::new();
        let lanes = Lanes::spawn(vec![Summer::new(&total, Duration::ZERO)], metrics.clone());
        for batch in 0..10u64 {
            lanes.send(0, batch);
        }
        lanes.barrier();
        assert_eq!(metrics.ingest.lane(0).queue_depth.get(), 0);
        lanes.join();
    }

    #[test]
    #[should_panic(expected = "lane worker panicked")]
    fn a_panicking_lane_makes_join_panic() {
        let total = Arc::new(AtomicU64::new(0));
        let lanes = Lanes::spawn(
            (0..2)
                .map(|_| Summer::new(&total, Duration::ZERO))
                .collect(),
            MetricsHandle::new(),
        );
        lanes.send(0, 1);
        lanes.send(1, u64::MAX);
        lanes.join();
    }
}
