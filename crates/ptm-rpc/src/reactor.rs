//! Bounded worker pool backing the reactor daemon.
//!
//! The event loop in [`crate::server`] owns every socket; CPU- and
//! storage-bound work (estimates, commits) is handed to this pool so a
//! slow disk or an expensive query never stalls the wire. Jobs go in over
//! a mutex-guarded queue that idle workers wait on by spin-then-park (see
//! below); completions come back through one mutex-guarded vector the
//! reactor drains each sweep, which keeps every socket write on the
//! event-loop thread. A job hands back as many completions as it has
//! parts to answer: one for a query, one per committed batch for an
//! upload job draining its connection's inbox ([`Sink`]).
//!
//! Since the overload-control work the pool is **class-aware**: each job
//! is submitted under a [`JobClass`] into that class's own bounded queue,
//! workers always drain the higher class first (query > upload), and a
//! full class queue rejects the submission immediately so
//! the caller can shed with a retry hint instead of letting latency grow
//! unbounded. Each dequeued job carries its measured queue sojourn, which
//! the server feeds into its CoDel-style `retry_after_ms` hint and uses to
//! drop doomed work (jobs whose wire deadline expired while queued).
//!
//! # Spin-then-park
//!
//! Handing a job to a worker parked on the condvar costs more than a
//! query answered from memory: the reactor makes a futex syscall, and on a
//! small VM the parked worker's vCPU has halted and must be woken. So at
//! most one idle worker at a time *spins*: for a constant window it polls
//! the class-queue depths, yielding the CPU between polls, before it
//! parks, and [`WorkerPool::submit`] claims it with one atomic swap
//! instead of a `notify_one`. The spinner stops on a claim, on any queued
//! job, on shutdown or at the window's end, and clears its registration
//! before its final locked pop, so no wake-up is lost. It yields instead
//! of busy-waiting because on two vCPUs a busy-waiting spinner and the
//! reactor hold both of them, and the clients whose next requests it waits
//! for go unscheduled.
//!
//! The class of the job a worker just ran decides whether it may spin.
//! The daemon answers every query from memory, so after a
//! [`JobClass::Query`] job the worker may spin; after a [`JobClass::Upload`]
//! job it parks at once, so uploads keep the condvar's FIFO rotation
//! across workers. An upload job ends only when its connection's inbox is
//! empty (or another job waits), so its worker has nothing of that
//! connection's to catch, and spinning for the next one costs the 2-vCPU
//! host the CPU that the reactor and the client need: in two 20-s `ingest`
//! pairs, a worker that spun after uploads made 64-record waves slower
//! (p50 0.361 → 0.440 ms and 0.358 → 0.457 ms).

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduling class of a submitted job, highest priority first.
///
/// Queries are latency-sensitive, and uploads are throughput work the RSU
/// fleet retries anyway — so that is the shed order, last first. (Ping and
/// stats never reach the pool: the reactor answers them inline.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobClass {
    /// Estimate queries.
    Query = 0,
    /// Upload ingest.
    Upload = 1,
}

/// Number of [`JobClass`] values (queue-array size).
pub(crate) const CLASS_COUNT: usize = 2;

impl JobClass {
    /// Lowercase name used in metric suffixes (`rpc.shed.by_class.*`).
    pub fn name(self) -> &'static str {
        match self {
            JobClass::Query => "query",
            JobClass::Upload => "upload",
        }
    }
}

/// A fixed-size pool of worker threads running jobs `J` that hand back
/// completions `C`.
///
/// `inflight()` counts jobs submitted that have not finished running,
/// letting the reactor spin hot while work is pending and sleep when the
/// daemon is idle. A job pushes its last completion before it finishes.
pub(crate) struct WorkerPool<J, C> {
    shared: Arc<PoolShared<J, C>>,
    handles: Vec<JoinHandle<()>>,
}

struct Queued<J> {
    job: J,
    enqueued: Instant,
}

struct PoolShared<J, C> {
    queues: Mutex<[VecDeque<Queued<J>>; CLASS_COUNT]>,
    caps: [usize; CLASS_COUNT],
    wake: Condvar,
    completions: Mutex<Vec<C>>,
    inflight: AtomicUsize,
    depths: [AtomicUsize; CLASS_COUNT],
    stop: AtomicBool,
    spin_window: Duration,
    /// The spinning worker's number (its index plus one), or 0 when no
    /// worker spins. A worker registers (0 to its number) under the queue
    /// lock; `submit` claims it by swapping in 0, and the spinner swaps in
    /// 0 itself when it stops unclaimed. The claiming swap (release) pairs
    /// with the spinner's loads and its clearing swap (acquire), so the
    /// spinner's locked pop sees the job pushed before the claim.
    spinner: AtomicUsize,
}

/// What a running job sees of its pool: the one ordered completion list,
/// into which it pushes each completion as soon as it has it, and the
/// class-queue depths.
pub(crate) struct Sink<'a, C> {
    completions: &'a Mutex<Vec<C>>,
    depths: &'a [AtomicUsize; CLASS_COUNT],
}

impl<C> Sink<'_, C> {
    /// Hands one completion to the reactor. Completions reach
    /// [`WorkerPool::drain_completions`] in the order they were pushed.
    pub fn complete(&self, completion: C) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(completion);
    }

    /// Whether any job waits in a class queue for a worker.
    pub fn others_waiting(&self) -> bool {
        self.depths.iter().any(|d| d.load(Ordering::Acquire) != 0)
    }
}

impl<J: Send + 'static, C: Send + 'static> WorkerPool<J, C> {
    /// Spawns `workers` threads (at least one) running `run` over submitted
    /// jobs. `caps` bounds each class queue (0 = unbounded); `run` receives
    /// each job together with the time it spent queued and the [`Sink`]
    /// its completions go to. A worker that has just run a
    /// [`JobClass::Query`] job spins for at most `spin_window` before it
    /// parks.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when a worker thread cannot be spawned.
    pub fn new<F>(
        workers: usize,
        name: &str,
        caps: [usize; CLASS_COUNT],
        spin_window: Duration,
        run: F,
    ) -> io::Result<Self>
    where
        F: Fn(J, Duration, &Sink<'_, C>) + Send + Sync + 'static,
    {
        let shared = Arc::new(PoolShared {
            queues: Mutex::new(std::array::from_fn(|_| VecDeque::new())),
            caps,
            wake: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
            depths: std::array::from_fn(|_| AtomicUsize::new(0)),
            stop: AtomicBool::new(false),
            spin_window,
            spinner: AtomicUsize::new(0),
        });
        let run = Arc::new(run);
        let count = workers.max(1);
        let mut handles = Vec::with_capacity(count);
        for index in 0..count {
            let shared = Arc::clone(&shared);
            let run = Arc::clone(&run);
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{index}"))
                .spawn(move || worker_loop(&shared, index + 1, run.as_ref()))?;
            handles.push(handle);
        }
        Ok(Self { shared, handles })
    }

    /// Enqueues one job under `class` and hands it to a worker: the
    /// spinning worker, if there is one, is claimed with one atomic swap
    /// (it sees the claim and pops the job); otherwise a parked worker is
    /// woken. The push happens under the queue lock before the swap, and a
    /// spinner clears its registration before its own locked pop, so the
    /// job is never left queued with every worker parked.
    ///
    /// # Errors
    ///
    /// Returns the job back when that class's queue is at capacity — the
    /// admission-control rejection; the caller sheds it with a hint
    /// instead of queueing doomed work.
    pub fn submit(&self, class: JobClass, job: J) -> Result<(), J> {
        let mut queues = self
            .shared
            .queues
            // ptm-analyze: allow(reactor-blocking): bounded push under the queue mutex; workers hold it only to pop a job, never across execution
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let queue = &mut queues[class as usize];
        let cap = self.shared.caps[class as usize];
        if cap != 0 && queue.len() >= cap {
            return Err(job);
        }
        queue.push_back(Queued {
            job,
            enqueued: Instant::now(),
        });
        self.shared.depths[class as usize].fetch_add(1, Ordering::AcqRel);
        self.shared.inflight.fetch_add(1, Ordering::AcqRel);
        drop(queues);
        if self.shared.spinner.swap(0, Ordering::AcqRel) == 0 {
            self.shared.wake.notify_one();
        }
        Ok(())
    }

    /// Moves every pending completion into `out` (in the order workers
    /// pushed them) without blocking on in-progress jobs.
    pub fn drain_completions(&self, out: &mut Vec<C>) {
        let mut done = self
            .shared
            .completions
            // ptm-analyze: allow(reactor-blocking): bounded vec move under the completions mutex; workers hold it only to push a finished job
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        out.append(&mut done);
    }

    /// Jobs submitted whose completions have not yet been produced.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Acquire)
    }

    /// Jobs currently waiting in each class queue (not yet dequeued).
    pub fn depths(&self) -> [usize; CLASS_COUNT] {
        std::array::from_fn(|i| self.shared.depths[i].load(Ordering::Acquire))
    }

    /// Signals every worker to exit once the queues drain and joins them.
    pub fn shutdown_and_join(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            // A worker that panicked already contained the panic in its
            // job runner; a join error here has nothing left to report.
            let _ = handle.join();
        }
        // Jobs still queued when the workers exited never ran: settle the
        // gauges so a shutdown racing queued work cannot leak them.
        let mut queues = self
            .shared
            .queues
            // ptm-analyze: allow(reactor-blocking): shutdown path — workers have already exited, so nothing contends the queue mutex
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (class, queue) in queues.iter_mut().enumerate() {
            let abandoned = queue.len();
            queue.clear();
            self.shared.depths[class].fetch_sub(abandoned, Ordering::AcqRel);
            self.shared.inflight.fetch_sub(abandoned, Ordering::AcqRel);
        }
    }
}

// ptm-analyze: worker-entry
fn worker_loop<J, C>(
    shared: &PoolShared<J, C>,
    me: usize,
    run: &(dyn Fn(J, Duration, &Sink<'_, C>) + Send + Sync),
) {
    let sink = Sink {
        completions: &shared.completions,
        depths: &shared.depths,
    };
    // Whether the last job was a query: only then may this worker spin.
    let mut may_spin = false;
    loop {
        let queued = {
            let mut queues = shared.queues.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                // Strict priority: queries first, uploads last.
                if let Some(hit) = (0..CLASS_COUNT)
                    .find_map(|class| queues[class].pop_front().map(|queued| (queued, class)))
                {
                    break Some(hit);
                }
                if shared.stop.load(Ordering::Acquire) {
                    break None;
                }
                // Registering under the queue lock orders it against
                // `submit`'s push: a job pushed after this point claims
                // the spinner. One spin per job, then park.
                if may_spin
                    && shared
                        .spinner
                        .compare_exchange(0, me, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    drop(queues);
                    spin(shared, me);
                    may_spin = false;
                    queues = shared.queues.lock().unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                queues = shared
                    .wake
                    .wait(queues)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((Queued { job, enqueued }, class)) = queued else {
            return;
        };
        shared.depths[class].fetch_sub(1, Ordering::AcqRel);
        let sojourn = enqueued.elapsed();
        // Job runners contain their own panics (the daemon answers
        // Error{Internal} and closes only the affected connection); this
        // guard is the last resort that keeps the worker thread alive and
        // the inflight count accurate even if that containment slips.
        let _ = catch_unwind(AssertUnwindSafe(|| run(job, sojourn, &sink)));
        may_spin = class == JobClass::Query as usize;
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Spins as the registered spinner `me` until `submit` claims it, a job
/// is queued, the pool stops or the spin window ends, then clears its
/// registration unless a `submit` already claimed it. The caller's locked
/// pop follows either way, and a claiming `submit` pushed its job before
/// its swap, so that pop cannot miss it.
fn spin<J, C>(shared: &PoolShared<J, C>, me: usize) {
    let queued = || shared.depths.iter().any(|d| d.load(Ordering::Acquire) != 0);
    let start = Instant::now();
    while shared.spinner.load(Ordering::Acquire) == me
        && !queued()
        && !shared.stop.load(Ordering::Acquire)
        && start.elapsed() < shared.spin_window
    {
        std::thread::yield_now();
    }
    let claimed = shared
        .spinner
        .compare_exchange(me, 0, Ordering::AcqRel, Ordering::Acquire)
        .is_err();
    if claimed || queued() {
        ptm_obs::counter!("rpc.pool.spin.caught").inc();
    } else {
        ptm_obs::counter!("rpc.pool.spin.expired").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPEN: [usize; CLASS_COUNT] = [0, 0];
    /// A window no test outlasts: a spinner stays registered until it is
    /// claimed or the pool stops, so a test can watch it deterministically.
    const LONG_SPIN: Duration = Duration::from_secs(60);

    /// A pool whose every job pushes one completion: `f` of the job.
    fn pool_of<C: Send + 'static>(
        workers: usize,
        name: &str,
        caps: [usize; CLASS_COUNT],
        spin_window: Duration,
        f: impl Fn(u32) -> C + Send + Sync + 'static,
    ) -> io::Result<WorkerPool<u32, C>> {
        WorkerPool::new(
            workers,
            name,
            caps,
            spin_window,
            move |job, _queued, sink| {
                sink.complete(f(job));
            },
        )
    }

    fn drain_until<C: Send + 'static>(pool: &WorkerPool<u32, C>, want: usize) -> Vec<C> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut out = Vec::new();
        while out.len() < want {
            pool.drain_completions(&mut out);
            assert!(
                Instant::now() < deadline,
                "pool never produced {want} completions"
            );
            std::thread::yield_now();
        }
        out
    }

    /// Waits until every submitted job has completed; a completion is
    /// pushed just before its worker decrements `inflight`.
    fn settle<C: Send + 'static>(pool: &WorkerPool<u32, C>) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.inflight() != 0 {
            assert!(Instant::now() < deadline, "inflight never settled");
            std::thread::yield_now();
        }
    }

    /// Runs one query job and waits until its worker registers as the
    /// spinner.
    fn register_spinner(pool: &WorkerPool<u32, u32>) {
        pool.submit(JobClass::Query, 0).expect("unbounded");
        assert_eq!(drain_until(pool, 1), vec![0]);
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.shared.spinner.load(Ordering::Acquire) == 0 {
            assert!(
                Instant::now() < deadline,
                "no worker registered as the spinner"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn jobs_round_trip_and_inflight_drains() {
        let pool =
            pool_of(3, "test-pool", OPEN, Duration::ZERO, |job: u32| job * 2).expect("spawn");
        for job in 0..16u32 {
            pool.submit(JobClass::Upload, job).expect("unbounded");
        }
        let mut out = drain_until(&pool, 16);
        out.sort_unstable();
        assert_eq!(out, (0..16).map(|j| j * 2).collect::<Vec<_>>());
        assert_eq!(pool.inflight(), 0);
        assert_eq!(pool.depths(), [0, 0]);
        pool.shutdown_and_join();
    }

    #[test]
    fn a_job_hands_back_several_completions_in_order() {
        let pool = WorkerPool::new(
            2,
            "test-multi",
            OPEN,
            Duration::ZERO,
            |job: u32, _, sink| {
                for part in 0..4 {
                    sink.complete((job, part));
                }
            },
        )
        .expect("spawn");
        for job in 0..8u32 {
            pool.submit(JobClass::Upload, job).expect("unbounded");
        }
        let out = drain_until(&pool, 32);
        for job in 0..8u32 {
            let parts: Vec<u32> = out.iter().filter(|c| c.0 == job).map(|c| c.1).collect();
            assert_eq!(parts, [0, 1, 2, 3], "job {job}: {out:?}");
        }
        settle(&pool);
        pool.shutdown_and_join();
    }

    #[test]
    fn a_running_job_sees_whether_others_wait() {
        // Job 0 holds the lone worker until job 1 is queued, then reports;
        // job 1 runs with nothing behind it.
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().expect("gate");
        let pool = {
            let gate = Arc::clone(&gate);
            WorkerPool::new(
                1,
                "test-others",
                OPEN,
                Duration::ZERO,
                move |job: u32, _, sink| {
                    if job == 0 {
                        drop(gate.lock().unwrap_or_else(PoisonError::into_inner));
                    }
                    sink.complete((job, sink.others_waiting()));
                },
            )
            .expect("spawn")
        };
        pool.submit(JobClass::Upload, 0).expect("occupies worker");
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.depths()[JobClass::Upload as usize] != 0 {
            assert!(Instant::now() < deadline, "worker never picked up job");
            std::thread::yield_now();
        }
        pool.submit(JobClass::Query, 1).expect("queued");
        drop(held);
        assert_eq!(drain_until(&pool, 2), vec![(0, true), (1, false)]);
        pool.shutdown_and_join();
    }

    #[test]
    fn panicking_job_keeps_workers_alive_and_gauges_exact() {
        let pool = pool_of(1, "test-panic", OPEN, Duration::ZERO, |job: u32| {
            assert!(job != 7, "injected panic");
            job
        })
        .expect("spawn");
        pool.submit(JobClass::Query, 7).expect("submit");
        pool.submit(JobClass::Query, 8).expect("submit");
        let out = drain_until(&pool, 1);
        assert_eq!(out, vec![8]);
        // The panicked job must not leak the inflight gauge or its class
        // depth (regression: gauges return to zero after a panic).
        assert_eq!(pool.inflight(), 0);
        assert_eq!(pool.depths(), [0, 0]);
        pool.shutdown_and_join();
    }

    #[test]
    fn zero_worker_request_still_gets_one_thread() {
        let pool = pool_of(0, "test-min", OPEN, Duration::ZERO, |job: u32| job + 1).expect("spawn");
        pool.submit(JobClass::Query, 41).expect("submit");
        assert_eq!(drain_until(&pool, 1), vec![42]);
        pool.shutdown_and_join();
    }

    #[test]
    fn full_class_queue_rejects_without_touching_other_classes() {
        // No workers draining: park the single worker on a long job first.
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().expect("gate");
        let pool = {
            let gate = Arc::clone(&gate);
            pool_of(1, "test-cap", [1, 2], Duration::ZERO, move |job: u32| {
                drop(gate.lock().unwrap_or_else(PoisonError::into_inner));
                job
            })
            .expect("spawn")
        };
        // First job occupies the worker (blocked on the gate); wait until
        // it has been dequeued so the queues below fill deterministically.
        pool.submit(JobClass::Upload, 0).expect("occupies worker");
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.depths()[JobClass::Upload as usize] != 0 {
            assert!(Instant::now() < deadline, "worker never picked up job");
            std::thread::yield_now();
        }
        pool.submit(JobClass::Upload, 1).expect("upload slot 1");
        pool.submit(JobClass::Upload, 2).expect("upload slot 2");
        assert_eq!(
            pool.submit(JobClass::Upload, 3),
            Err(3),
            "upload queue at cap rejects"
        );
        // The query class keeps its own headroom.
        pool.submit(JobClass::Query, 10).expect("query admitted");
        assert_eq!(pool.submit(JobClass::Query, 11), Err(11));
        assert_eq!(pool.depths(), [1, 2]);
        drop(held);
        let _ = drain_until(&pool, 4);
        assert_eq!(pool.depths(), [0, 0]);
        assert_eq!(pool.inflight(), 0);
        pool.shutdown_and_join();
    }

    #[test]
    fn query_class_drains_before_queued_uploads() {
        // One worker, blocked; then queue uploads before a query job.
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().expect("gate");
        let pool = {
            let gate = Arc::clone(&gate);
            pool_of(1, "test-prio", OPEN, Duration::ZERO, move |job: u32| {
                if job == 0 {
                    drop(gate.lock().unwrap_or_else(PoisonError::into_inner));
                }
                job
            })
            .expect("spawn")
        };
        pool.submit(JobClass::Upload, 0).expect("occupies worker");
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.depths()[JobClass::Upload as usize] != 0 {
            assert!(Instant::now() < deadline, "worker never picked up job");
            std::thread::yield_now();
        }
        for job in [1, 2, 3] {
            pool.submit(JobClass::Upload, job).expect("queued upload");
        }
        pool.submit(JobClass::Query, 99).expect("queued query");
        drop(held);
        let out = drain_until(&pool, 5);
        // The query job ran before every upload that was queued with it.
        let query_at = out.iter().position(|&j| j == 99).expect("query ran");
        let first_upload = out.iter().position(|&j| j == 1).expect("upload ran");
        assert!(
            query_at < first_upload,
            "query must preempt queued uploads: {out:?}"
        );
        pool.shutdown_and_join();
    }

    #[test]
    fn shutdown_racing_queued_jobs_settles_gauges() {
        let gate = Arc::new(AtomicBool::new(false));
        let pool = {
            let gate = Arc::clone(&gate);
            pool_of(1, "test-race", OPEN, Duration::ZERO, move |job: u32| {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                job
            })
            .expect("spawn")
        };
        pool.submit(JobClass::Upload, 0).expect("occupies worker");
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.depths()[JobClass::Upload as usize] != 0 {
            assert!(Instant::now() < deadline, "worker never picked up job");
            std::thread::yield_now();
        }
        for job in [1, 2, 3, 4] {
            pool.submit(JobClass::Upload, job).expect("queued");
        }
        // Shut down while four jobs are still queued. The running job gets
        // to finish (the gate opens below), the queued ones are abandoned —
        // and the gauges must land on zero either way.
        let shared = Arc::clone(&pool.shared);
        let release = std::thread::spawn({
            let gate = Arc::clone(&gate);
            move || {
                std::thread::sleep(Duration::from_millis(50));
                gate.store(true, Ordering::Release);
            }
        });
        pool.shutdown_and_join();
        release.join().expect("release thread");
        assert_eq!(shared.inflight.load(Ordering::Acquire), 0);
        for depth in &shared.depths {
            assert_eq!(depth.load(Ordering::Acquire), 0);
        }
    }

    #[test]
    fn parking_jobs_rotate_across_every_worker() {
        // Upload jobs must never leave a spinner behind: each worker parks,
        // and the condvar hands the next job to the longest-parked worker,
        // so sequential uploads spread over all of them. A worker that spun
        // after an upload would take them all.
        const WORKERS: usize = 4;
        let pool = pool_of(WORKERS, "test-fifo", OPEN, LONG_SPIN, |_job: u32| {
            std::thread::current().name().map(str::to_owned)
        })
        .expect("spawn");
        let mut ran_on = Vec::new();
        for job in 0..WORKERS as u32 {
            settle(&pool);
            // Long enough for the last worker to park, and watched: a
            // spinner registered now would catch the next job.
            let watch = Instant::now();
            while watch.elapsed() < Duration::from_millis(20) {
                assert_eq!(
                    pool.shared.spinner.load(Ordering::Acquire),
                    0,
                    "a worker spun after an upload job"
                );
                std::thread::yield_now();
            }
            pool.submit(JobClass::Upload, job).expect("unbounded");
            ran_on.extend(drain_until(&pool, 1));
        }
        let mut workers = ran_on.clone();
        workers.sort();
        workers.dedup();
        assert_eq!(
            workers.len(),
            WORKERS,
            "sequential jobs must rotate across every worker: {ran_on:?}"
        );
        pool.shutdown_and_join();
    }

    #[test]
    fn burst_against_a_spinner_completes_and_settles() {
        const BURST: u32 = 200;
        let pool = pool_of(2, "test-burst", OPEN, LONG_SPIN, |job: u32| job).expect("spawn");
        register_spinner(&pool);
        // Submits a few microseconds apart: most claim a spinner (the one
        // registered above, then each worker that just finished), some
        // find it already claimed and wake the parked worker instead.
        for job in 1..=BURST {
            let gap = Instant::now();
            while gap.elapsed() < Duration::from_micros(20) {
                std::hint::spin_loop();
            }
            pool.submit(JobClass::Query, job).expect("unbounded");
        }
        let mut out = drain_until(&pool, BURST as usize);
        out.sort_unstable();
        assert_eq!(out, (1..=BURST).collect::<Vec<_>>());
        settle(&pool);
        assert_eq!(pool.depths(), [0, 0]);
        pool.shutdown_and_join();
    }

    #[test]
    fn shutdown_while_a_worker_spins_returns_promptly() {
        let pool = pool_of(2, "test-spin-stop", OPEN, LONG_SPIN, |job: u32| job).expect("spawn");
        register_spinner(&pool);
        // The window outlasts the test bound, so only `stop` ends this spin.
        let started = Instant::now();
        pool.shutdown_and_join();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown hung behind a spinning worker"
        );
    }

    #[test]
    fn an_expired_spin_leaves_the_next_job_a_wake_up() {
        // The window ends with no job: the worker clears its registration
        // before it parks, so the next submit wakes it instead of claiming
        // a spinner that is gone (which would strand the job).
        let window = Duration::from_millis(200);
        let pool = pool_of(1, "test-expire", OPEN, window, |job: u32| job).expect("spawn");
        register_spinner(&pool);
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.shared.spinner.load(Ordering::Acquire) != 0 {
            assert!(Instant::now() < deadline, "the spin never ended");
            std::thread::yield_now();
        }
        pool.submit(JobClass::Query, 1).expect("unbounded");
        assert_eq!(drain_until(&pool, 1), vec![1]);
        pool.shutdown_and_join();
    }
}
