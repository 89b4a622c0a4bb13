//! Admission control over one session pool.
//!
//! Every connection's requests funnel into one bounded FIFO. A small team
//! of dispatch workers pops the queue one request at a time and runs it
//! through [`Session::infer`], which checks out one engine for that one
//! frame — a sensor frame in, one result out. A panic inside inference is
//! contained to its request, which gets a typed [`ErrorCode::Unavailable`]
//! error; the dispatcher moves on to the next request.
//!
//! Admission control is **shed-oldest**: when the queue is at
//! `queue_depth`, the *oldest* queued request is dropped to make room and
//! its client is told so with a typed [`ErrorCode::Shed`] error — never a
//! silent drop. Oldest-first matches the sensor-stream model (HgPCN's
//! end-to-end framing): the newest frame is the one worth answering; a
//! stale frame's answer is worthless to a client that has already sent
//! two more.

use crate::protocol::{ErrorCode, Frame, ServerStats};
use mesorasi_networks::{Inference, Session};
use mesorasi_pointcloud::PointCloud;
use mesorasi_tensor::Matrix;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Scheduler knobs; see the [module docs](self) for semantics.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Queued requests beyond which admission control sheds the oldest
    /// (default 64).
    pub queue_depth: usize,
    /// Dispatch worker threads (default 2). Each dispatch checks out one
    /// session engine, so more than `Session::workers` dispatchers just
    /// queue on engines.
    pub dispatchers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig { queue_depth: 64, dispatchers: 2 }
    }
}

/// One queued inference request: the sample plus the home connection's
/// outgoing-frame channel.
pub(crate) struct Job {
    pub id: u64,
    pub cloud: PointCloud,
    pub reply: mpsc::Sender<Frame>,
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    malformed: AtomicU64,
    batches: AtomicU64,
}

struct Shared {
    session: Arc<Session>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    open: AtomicBool,
    queue_depth: usize,
    counters: Counters,
}

/// The scheduler: a bounded queue plus dispatch workers. Created
/// by the server; exposed only through [`crate::server::Server`].
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    dispatchers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    pub(crate) fn start(session: Arc<Session>, config: SchedulerConfig) -> Scheduler {
        let shared = Arc::new(Shared {
            session,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            open: AtomicBool::new(true),
            queue_depth: config.queue_depth.max(1),
            counters: Counters::default(),
        });
        let dispatchers = (0..config.dispatchers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mesorasi-dispatch-{i}"))
                    .spawn(move || dispatch_loop(&shared))
                    .expect("spawn dispatcher")
            })
            .collect();
        Scheduler { shared, dispatchers: Mutex::new(dispatchers) }
    }

    /// Enqueues a request, shedding the oldest queued one on overflow.
    pub(crate) fn submit(&self, job: Job) {
        if !self.shared.open.load(Ordering::Acquire) {
            reject(&job, ErrorCode::Unavailable, "server is shutting down");
            return;
        }
        {
            let mut q = lock(&self.shared.queue);
            if q.len() >= self.shared.queue_depth {
                let oldest = q.pop_front().expect("depth >= 1 implies non-empty at cap");
                self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                reject(
                    &oldest,
                    ErrorCode::Shed,
                    "queue full: this (oldest) request was shed to admit a newer one",
                );
            }
            q.push_back(job);
        }
        self.shared.available.notify_one();
    }

    /// Counts one rejected-at-parse frame (the connection layer detected
    /// it; the scheduler only owns the counter).
    pub(crate) fn note_malformed(&self) {
        self.shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the server counters, including the session pool's
    /// NIT-cache traffic.
    pub(crate) fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        let cache = self.shared.session.cache_stats();
        ServerStats {
            served: c.served.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            malformed: c.malformed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            queue_depth: lock(&self.shared.queue).len() as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
        }
    }

    /// Stops accepting work, fails the backlog as `Unavailable`, and joins
    /// the dispatchers. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.shared.open.store(false, Ordering::Release);
        {
            let mut q = lock(&self.shared.queue);
            for job in q.drain(..) {
                reject(&job, ErrorCode::Unavailable, "server is shutting down");
            }
        }
        self.shared.available.notify_all();
        for d in lock(&self.dispatchers).drain(..) {
            let _ = d.join();
        }
    }
}

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn reject(job: &Job, code: ErrorCode, message: &str) {
    // A dead reply channel means the connection is gone; nothing to tell.
    let _ = job.reply.send(Frame::Error { id: job.id, code, message: message.into() });
}

/// Pops the queue's front job. Blocks while the queue is empty; returns
/// `None` at shutdown.
fn pop(shared: &Shared) -> Option<Job> {
    let q = lock(&shared.queue);
    let mut q = shared
        .available
        .wait_while(q, |q| q.is_empty() && shared.open.load(Ordering::Acquire))
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    q.pop_front()
}

/// Runs jobs one at a time, replying to each. Inference panics (poisoned
/// engines recover on the next checkout) are contained here so one bad
/// request cannot kill a dispatcher.
fn dispatch_loop(shared: &Shared) {
    while let Some(job) = pop(shared) {
        shared.counters.batches.fetch_add(1, Ordering::Relaxed);
        let session = &shared.session;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.infer(&job.cloud))) {
            Ok(inference) => {
                shared.counters.served.fetch_add(1, Ordering::Relaxed);
                let mats = inference_mats(inference);
                let _ = job.reply.send(Frame::Result { id: job.id, mats });
            }
            Err(_) => reject(&job, ErrorCode::Unavailable, "inference panicked on this request"),
        }
    }
}

/// Flattens a domain-typed result into wire matrices (session-output
/// order; see [`crate::protocol::Frame::Result`]).
fn inference_mats(inference: Inference) -> Vec<Matrix> {
    match inference {
        Inference::Classification(l) => vec![l.into_matrix()],
        Inference::Segmentation(s) => vec![s.into_matrix()],
        Inference::Detection(d) => vec![d.seg_logits().clone(), d.params().clone()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesorasi_core::Strategy;
    use mesorasi_networks::{Domain, NetForward, NetworkKind, PointCloudNetwork, SessionBuilder};
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    fn tiny_session() -> Arc<Session> {
        Arc::new(
            SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
                .classes(3)
                .workers(1)
                .build(),
        )
    }

    #[test]
    fn lone_requests_dispatch_without_waiting_for_a_batch() {
        let session = tiny_session();
        let n = session.network().input_points();
        let scheduler = Scheduler::start(session, SchedulerConfig::default());
        let (tx, rx) = mpsc::channel();
        scheduler.submit(Job { id: 5, cloud: sample_shape(ShapeClass::Chair, n, 1), reply: tx });
        match rx.recv_timeout(std::time::Duration::from_secs(30)).expect("reply arrives") {
            Frame::Result { id, mats } => {
                assert_eq!(id, 5);
                assert_eq!(mats.len(), 1);
            }
            other => panic!("expected a result, got {other:?}"),
        }
        let stats = scheduler.stats();
        assert_eq!((stats.served, stats.shed), (1, 0));
        scheduler.shutdown();
    }

    #[test]
    fn overflow_sheds_the_oldest_with_a_typed_error() {
        let session = tiny_session();
        let n = session.network().input_points();
        // One dispatcher, queue depth 2: stall the dispatcher with a first
        // job, then overfill the queue and watch the oldest queued job go.
        let scheduler =
            Scheduler::start(session, SchedulerConfig { queue_depth: 2, dispatchers: 1 });
        let (tx, rx) = mpsc::channel();
        for id in 0..8u64 {
            scheduler.submit(Job {
                id,
                cloud: sample_shape(ShapeClass::Chair, n, id),
                reply: tx.clone(),
            });
        }
        drop(tx);
        let mut shed_ids = Vec::new();
        let mut ok_ids = Vec::new();
        // Every request gets a typed outcome.
        for frame in replies(&rx, 8) {
            match frame {
                Frame::Error { id, code, message } => {
                    assert_eq!(code, ErrorCode::Shed, "id {id}: {message}");
                    assert!(!message.is_empty(), "shed errors must explain themselves");
                    shed_ids.push(id);
                }
                Frame::Result { id, .. } => ok_ids.push(id),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert!(!shed_ids.is_empty(), "overflow must shed");
        // Shed-oldest: every shed id is smaller than the newest admitted id.
        let newest_ok = ok_ids.iter().max().expect("some requests succeed");
        for shed in &shed_ids {
            assert!(shed < newest_ok, "shed {shed} is older than served {newest_ok}");
        }
        let stats = scheduler.stats();
        assert_eq!(stats.shed as usize, shed_ids.len());
        assert_eq!(stats.served as usize, ok_ids.len());
        scheduler.shutdown();
    }

    /// Collects `total` replies, failing on a silent hang.
    fn replies(rx: &mpsc::Receiver<Frame>, total: usize) -> Vec<Frame> {
        (0..total)
            .map(|_| rx.recv_timeout(std::time::Duration::from_secs(60)).expect("reply"))
            .collect()
    }

    #[test]
    fn one_dispatcher_answers_a_backlog_in_fifo_order_one_dispatch_each() {
        let session = tiny_session();
        let n = session.network().input_points();
        let scheduler =
            Scheduler::start(session, SchedulerConfig { queue_depth: 64, dispatchers: 1 });
        // The first dispatch compiles the plan (slow), so the rest queue
        // behind it: a same-shape backlog, answered one request at a time.
        let (tx, rx) = mpsc::channel();
        let total = 12u64;
        for id in 0..total {
            scheduler.submit(Job {
                id,
                cloud: sample_shape(ShapeClass::Cup, n, id),
                reply: tx.clone(),
            });
        }
        drop(tx);
        let ids: Vec<u64> = replies(&rx, total as usize)
            .into_iter()
            .map(|frame| match frame {
                Frame::Result { id, .. } => id,
                other => panic!("unexpected frame {other:?}"),
            })
            .collect();
        assert_eq!(ids, (0..total).collect::<Vec<_>>(), "FIFO order");
        let stats = scheduler.stats();
        assert_eq!((stats.batches, stats.served), (total, total));
        scheduler.shutdown();
    }

    /// Delegates to a real network but panics on an empty cloud.
    struct PanicsOnEmpty(Box<dyn PointCloudNetwork>);

    impl PointCloudNetwork for PanicsOnEmpty {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn input_points(&self) -> usize {
            self.0.input_points()
        }

        fn domain(&self) -> Domain {
            self.0.domain()
        }

        fn forward(
            &self,
            g: &mut mesorasi_nn::Graph,
            cloud: &PointCloud,
            strategy: Strategy,
            seed: u64,
        ) -> NetForward {
            assert!(!cloud.is_empty(), "injected failure on an empty cloud");
            self.0.forward(g, cloud, strategy, seed)
        }

        fn boxed_clone(&self) -> Box<dyn PointCloudNetwork> {
            Box::new(PanicsOnEmpty(self.0.boxed_clone()))
        }

        fn params_mut(&mut self) -> Vec<&mut mesorasi_nn::Param> {
            self.0.params_mut()
        }
    }

    #[test]
    fn a_panicking_request_gets_unavailable_and_the_dispatcher_serves_on() {
        let inner = NetworkKind::PointNetPPClassification
            .build_small(3, &mut mesorasi_pointcloud::seeded_rng(0));
        let n = inner.input_points();
        let session =
            Arc::new(SessionBuilder::from_network(PanicsOnEmpty(inner)).workers(1).build());
        let scheduler =
            Scheduler::start(session, SchedulerConfig { queue_depth: 64, dispatchers: 1 });
        let (tx, rx) = mpsc::channel();
        scheduler.submit(Job { id: 0, cloud: PointCloud::new(), reply: tx.clone() });
        scheduler.submit(Job { id: 1, cloud: sample_shape(ShapeClass::Chair, n, 1), reply: tx });
        let got = replies(&rx, 2);
        assert!(
            matches!(&got[0], Frame::Error { id: 0, code: ErrorCode::Unavailable, .. }),
            "expected Unavailable for the panicking request, got {:?}",
            got[0]
        );
        assert!(matches!(&got[1], Frame::Result { id: 1, .. }), "got {:?}", got[1]);
        let stats = scheduler.stats();
        assert_eq!((stats.batches, stats.served), (2, 1));
        scheduler.shutdown();
    }

    #[test]
    fn shutdown_rejects_late_submissions_as_unavailable() {
        let session = tiny_session();
        let n = session.network().input_points();
        let scheduler = Scheduler::start(session, SchedulerConfig::default());
        scheduler.shutdown();
        let (tx, rx) = mpsc::channel();
        scheduler.submit(Job { id: 1, cloud: sample_shape(ShapeClass::Chair, n, 1), reply: tx });
        match rx.recv().expect("typed rejection") {
            Frame::Error { code: ErrorCode::Unavailable, .. } => {}
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }
}
