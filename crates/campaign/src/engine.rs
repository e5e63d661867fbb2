//! The campaign execution engine: a dependency-free pool of worker threads
//! draining an indexed job queue, with results re-assembled (and reduced)
//! in job-index order.
//!
//! # Determinism contract
//!
//! For a fixed job list and campaign seed the produced [`CampaignOutcome`]
//! is **bit-identical for every thread count and every scheduling order**:
//!
//! - each job's RNG seed is [`crate::seed::job_seed`]`(campaign_seed,
//!   index)` — a pure function of campaign seed and job index, never of
//!   the executing thread or of other jobs;
//! - workers never share mutable state; a job sees only its own input and
//!   its [`JobCtx`];
//! - results come back tagged with their job index and are stored into a
//!   per-index slot, so reduction always folds them in index order — the
//!   same order the serial path produces.
//!
//! Only the wall-clock in [`CampaignStats`] depends on the machine.
//!
//! The same split governs tracing: when a [`lcosc_trace::Trace`] is
//! attached via [`Campaign::trace`], the engine emits one
//! [`TraceEvent::CampaignJob`] (index + seed — deterministic) and one
//! [`TraceEvent::CampaignJobTiming`] (wall-clock — machine-dependent) per
//! job, always **from the coordinator thread in job-index order** after
//! the results are assembled, so the golden event stream is identical for
//! every thread count.

use crate::seed::job_seed;
use lcosc_trace::{Trace, TraceEvent};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Per-job context handed to the worker closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCtx {
    /// Index of the job in the campaign's job list.
    pub index: usize,
    /// Deterministic RNG seed for this job (`job_seed(campaign_seed, index)`).
    pub seed: u64,
}

/// Execution statistics of one campaign run. Timing is machine-dependent;
/// everything else is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStats {
    /// Campaign label (used in reports).
    pub name: String,
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads used (1 = serial in-line execution).
    pub threads: usize,
    /// Wall-clock time of the whole campaign.
    pub wall: Duration,
}

/// Results plus statistics of a completed campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome<R> {
    /// One result per job, in job-index order.
    pub results: Vec<R>,
    /// Execution statistics.
    pub stats: CampaignStats,
}

/// Builder for a parallel campaign over a list of independent jobs.
///
/// ```
/// use lcosc_campaign::Campaign;
///
/// let squares = Campaign::new("squares", (0u64..100).collect())
///     .seed(42)
///     .threads(4)
///     .run(|_ctx, &x| x * x);
/// assert_eq!(squares.results[7], 49);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign<J> {
    name: String,
    jobs: Vec<J>,
    threads: usize,
    seed: u64,
    trace: Trace,
}

impl<J: Sync> Campaign<J> {
    /// Creates a campaign named `name` over `jobs`. Defaults: 1 thread
    /// (serial), seed 0, tracing off.
    pub fn new(name: impl Into<String>, jobs: Vec<J>) -> Self {
        Campaign {
            name: name.into(),
            jobs,
            threads: 1,
            seed: 0,
            trace: Trace::off(),
        }
    }

    /// Attaches a trace handle. Per-job [`TraceEvent::CampaignJob`] and
    /// [`TraceEvent::CampaignJobTiming`] events are emitted in job-index
    /// order from the coordinator thread once the run completes.
    #[must_use]
    pub fn trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the worker-thread count. `0` means "all available cores";
    /// `1` (the default) executes jobs in-line on the calling thread.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        self
    }

    /// Sets the campaign seed from which every job seed is derived.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Executes every job and returns the results in job-index order.
    ///
    /// `worker` must be a pure function of `(ctx, job)` for the
    /// determinism contract to hold; the engine guarantees the rest.
    pub fn run<R, F>(self, worker: F) -> CampaignOutcome<R>
    where
        R: Send,
        F: Fn(JobCtx, &J) -> R + Sync,
    {
        let start = Instant::now();
        let n = self.jobs.len();
        let threads = self.threads.min(n.max(1));
        let (results, walls) = if threads <= 1 {
            // Serial fast path: no pool, no channel — identical to a plain
            // loop (and to what the workspace did before this crate).
            let mut walls = Vec::with_capacity(n);
            let results = self
                .jobs
                .iter()
                .enumerate()
                .map(|(i, job)| {
                    let t0 = Instant::now();
                    let r = worker(
                        JobCtx {
                            index: i,
                            seed: job_seed(self.seed, i as u64),
                        },
                        job,
                    );
                    walls.push(t0.elapsed().as_nanos());
                    r
                })
                .collect();
            (results, walls)
        } else {
            run_pool(&self.jobs, self.seed, threads, &worker)
        };
        // Trace emission happens here, on the coordinator thread, after
        // every slot is filled — index order by construction, regardless
        // of which worker finished when.
        for (i, wall_ns) in walls.into_iter().enumerate() {
            let index = i as u64;
            let seed = job_seed(self.seed, index);
            self.trace.emit(|| TraceEvent::CampaignJob { index, seed });
            self.trace
                .emit(|| TraceEvent::CampaignJobTiming { index, wall_ns });
        }
        CampaignOutcome {
            results,
            stats: CampaignStats {
                name: self.name,
                jobs: n,
                threads,
                wall: start.elapsed(),
            },
        }
    }

    /// Executes every job, then folds the results **in job-index order**
    /// with `reduce` starting from `init`.
    ///
    /// Because the fold order is the job order (never the completion
    /// order), non-commutative reductions — float accumulation, "first
    /// failure wins" — still give thread-count-invariant answers.
    pub fn run_reduce<R, A, F, G>(self, worker: F, init: A, mut reduce: G) -> (A, CampaignStats)
    where
        R: Send,
        F: Fn(JobCtx, &J) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        let outcome = self.run(worker);
        let mut acc = init;
        for r in outcome.results {
            acc = reduce(acc, r);
        }
        (acc, outcome.stats)
    }

    /// Executes fallible jobs; on failure returns the error of the
    /// *lowest-indexed* failing job (deterministic regardless of which
    /// failure was observed first in wall-clock time).
    ///
    /// # Errors
    ///
    /// Returns the first (by job index) worker error.
    pub fn try_run<R, E, F>(self, worker: F) -> Result<CampaignOutcome<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(JobCtx, &J) -> Result<R, E> + Sync,
    {
        let outcome = self.run(worker);
        let stats = outcome.stats;
        let mut results = Vec::with_capacity(outcome.results.len());
        for r in outcome.results {
            results.push(r?);
        }
        Ok(CampaignOutcome { results, stats })
    }
}

/// The parallel path: `threads` scoped workers drain an atomic job counter
/// and send `(index, wall_ns, result)` triples back over a channel; the
/// calling thread stores each into its slot. Returns results and per-job
/// wall-clock durations, both in job-index order.
fn run_pool<J, R, F>(jobs: &[J], seed: u64, threads: usize, worker: &F) -> (Vec<R>, Vec<u128>)
where
    J: Sync,
    R: Send,
    F: Fn(JobCtx, &J) -> R + Sync,
{
    let n = jobs.len();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(R, u128)>> = (0..n).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, u128, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || {
                loop {
                    // Claim the next unclaimed job; the counter is the whole
                    // scheduler, so an idle worker "steals" whatever a busy
                    // one has not yet claimed.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let ctx = JobCtx {
                        index: i,
                        seed: job_seed(seed, i as u64),
                    };
                    let t0 = Instant::now();
                    let result = worker(ctx, &jobs[i]);
                    if tx.send((i, t0.elapsed().as_nanos(), result)).is_err() {
                        break; // receiver gone: abandon quietly
                    }
                }
            });
        }
        drop(tx);
        for (i, wall_ns, result) in rx {
            slots[i] = Some((result, wall_ns));
        }
    });
    let mut results = Vec::with_capacity(n);
    let mut walls = Vec::with_capacity(n);
    for s in slots {
        let (r, w) = s.expect("pool delivered every job result");
        results.push(r);
        walls.push(w);
    }
    (results, walls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let jobs: Vec<u64> = (0..257).collect();
        let serial = Campaign::new("t", jobs.clone())
            .seed(9)
            .run(|ctx, &j| (ctx.seed ^ j, ctx.index));
        for threads in [2, 3, 8] {
            let par = Campaign::new("t", jobs.clone())
                .seed(9)
                .threads(threads)
                .run(|ctx, &j| (ctx.seed ^ j, ctx.index));
            assert_eq!(serial.results, par.results, "threads = {threads}");
        }
    }

    #[test]
    fn reduce_folds_in_job_order() {
        // A non-commutative reduction (string concat) must match serial.
        let jobs: Vec<usize> = (0..64).collect();
        let fold = |acc: String, s: String| acc + &s;
        let (serial, _) = Campaign::new("t", jobs.clone()).run_reduce(
            |_, j| format!("{j},"),
            String::new(),
            fold,
        );
        let (par, stats) = Campaign::new("t", jobs).threads(8).run_reduce(
            |_, j| format!("{j},"),
            String::new(),
            fold,
        );
        assert_eq!(serial, par);
        assert_eq!(stats.threads, 8);
        assert_eq!(stats.jobs, 64);
    }

    #[test]
    fn try_run_reports_lowest_indexed_error() {
        let jobs: Vec<usize> = (0..100).collect();
        let res: Result<CampaignOutcome<usize>, usize> = Campaign::new("t", jobs)
            .threads(4)
            .try_run(|ctx, &j| if j % 30 == 7 { Err(ctx.index) } else { Ok(j) });
        assert_eq!(res.err(), Some(7));
    }

    #[test]
    fn traced_campaign_golden_events_are_thread_invariant() {
        use lcosc_trace::MemorySink;
        use std::sync::Arc;
        let run = |threads: usize| {
            let sink = Arc::new(MemorySink::new());
            Campaign::new("t", (0u64..33).collect())
                .seed(5)
                .threads(threads)
                .trace(Trace::new(sink.clone()))
                .run(|ctx, &j| ctx.seed ^ j);
            sink.snapshot()
        };
        let serial: Vec<TraceEvent> = run(1).into_iter().filter(TraceEvent::is_golden).collect();
        assert_eq!(serial.len(), 33, "one golden CampaignJob event per job");
        for threads in [2, 8] {
            let all = run(threads);
            assert_eq!(all.len(), 66, "job + timing event per job");
            let golden: Vec<TraceEvent> = all.into_iter().filter(TraceEvent::is_golden).collect();
            assert_eq!(golden, serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_campaign_is_fine() {
        let out = Campaign::new("t", Vec::<u8>::new())
            .threads(8)
            .run(|_, _| 1);
        assert!(out.results.is_empty());
        assert_eq!(out.stats.jobs, 0);
    }

    #[test]
    fn threads_zero_means_available_cores() {
        let c = Campaign::new("t", vec![(); 4]).threads(0);
        assert!(c.threads >= 1);
    }

    #[test]
    fn single_job_runs_once() {
        let out = Campaign::new("t", vec![5u32]).threads(8).run(|ctx, &j| {
            assert_eq!(ctx.index, 0);
            j * 2
        });
        assert_eq!(out.results, vec![10]);
        // Thread count is clamped to the job count.
        assert_eq!(out.stats.threads, 1);
    }
}
