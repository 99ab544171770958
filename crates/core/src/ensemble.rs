//! Deterministic parallel ensembles of simulations.
//!
//! Verifying the paper's statistical claims (the Lemma 2 drift bound,
//! Theorem 7's pseudopolynomial convergence) means running thousands of
//! independent replicas of the same simulation. [`Ensemble`] is the
//! subsystem for that: it runs `trials` replicas of a [`Simulation`] across
//! a pool of scoped threads, deriving the replica seeds with
//! [`congames_sampling::split_seed`], and returns the outcomes **in trial
//! order** — the result is bit-identical for any thread count, because each
//! replica's randomness depends only on `(base_seed, trial_index)` and
//! never on scheduling.
//!
//! Two batch shapes are offered. [`Ensemble::run`] / [`Ensemble::run_with`]
//! materialize one value per replica; [`Ensemble::run_reduced`] streams
//! every replica's observed output into a [`Reducer`] so a 10⁵-trial sweep
//! reduces online in memory independent of the trial count — same
//! bit-identical-across-thread-counts guarantee, via a reduction tree that
//! is a function of the trial count alone.
//!
//! Every sweep — [`Ensemble::run`]/[`Ensemble::run_with`] (which collect
//! into the `Vec` reducer), [`Ensemble::run_reduced`] and one shard of a
//! distributed sweep, [`Ensemble::run_reduced_shard`], one thread or many
//! — goes through one block scheduler. It produces the
//! [`REDUCE_BLOCK`]-trial block partials of a block range and hands them,
//! in block order, to a *sink*: the materializing paths and `run_reduced`
//! merge each partial into the accumulator, the shard's sink keeps it as a
//! leaf. Workers claim one block at a time, and what each trial returns is
//! the only part that differs between the entry points. Each worker keeps
//! one [`Simulation`] for its lifetime and rewinds it to the start for
//! every trial it runs, so trial turnover copies the start instead of
//! rebuilding it and allocates nothing; a reduced sweep without a round
//! hook also evaluates the stop conditions at the start once and gives
//! that verdict to round 0 of every trial. On failure the scheduler keeps
//! the lowest failing trial and skips only the trials above it, so the
//! error or panic reported is that trial's whatever the thread count or
//! shard split.
//!
//! All batch entry points share one empty-input contract: zero trials
//! yield an empty result (for the reducer path, the untouched identity
//! reduction) rather than panicking.

use congames_model::{potential, CongestionGame, State};
use congames_sampling::{DrawStream, RngMode};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

use crate::engine::{validate_start, EngineKind, Simulation};
use crate::error::DynamicsError;
use crate::hook::RoundHook;
use crate::observe::Observer;
use crate::protocol::Protocol;
use crate::reduce::Reducer;
use crate::stopping::{stop_reason, RunOutcome, StopReason, StopSpec};
use crate::trajectory::RecordConfig;

/// Trials per reduction block in [`Ensemble::run_reduced`]. The block
/// structure is a function of the trial count alone — never of the thread
/// count, schedule, or shard split — which is what makes reduced results
/// bit-identical across thread counts, and what lets a multi-process
/// sharded sweep ([`Ensemble::run_reduced_shard`] + `congames merge`)
/// replay the same reduction tree and land on the same bits.
pub const REDUCE_BLOCK: usize = 32;

/// A batch of independent simulation replicas: one game, protocol, and
/// start state, run `trials` times with per-trial seeds derived from a
/// base seed, optionally across threads.
///
/// Replica `i` always receives the stream
/// `DrawStream::for_trial(rng_mode, base_seed, i)` — in xoshiro mode the
/// historical `SmallRng::seed_from_u64(split_seed(base_seed, i))` stream,
/// in counter mode the Philox stream keyed by the base seed and addressed
/// by `(trial, round, site, index)` — and a fresh copy of the start state,
/// so the returned outcomes are **bit-identical regardless of the thread
/// count** and reproducible across runs.
///
/// # Example
///
/// ```
/// use congames_dynamics::{Ensemble, ImitationProtocol, StopSpec};
/// use congames_model::{Affine, CongestionGame, State};
///
/// let game = CongestionGame::singleton(
///     vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()],
///     100,
/// )?;
/// let start = State::from_counts(&game, vec![90, 10])?;
/// let outcomes = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)?
///     .trials(8)
///     .base_seed(42)
///     .threads(4)
///     .run(&StopSpec::max_rounds(50))?;
/// assert_eq!(outcomes.len(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Ensemble<'g> {
    game: &'g CongestionGame,
    protocol: Protocol,
    /// The validated start, with its latency cache and support index
    /// built once, and its potential: every replica rewinds to these.
    start: State,
    start_potential: f64,
    engine: EngineKind,
    record: RecordConfig,
    trials: usize,
    base_seed: u64,
    threads: usize,
    rng_mode: RngMode,
    /// Builds one fresh [`RoundHook`] per replica, so every trial replays
    /// the same event schedule against its own simulation. `None` for
    /// stationary ensembles.
    round_hook: Option<std::sync::Arc<dyn Fn() -> Box<dyn RoundHook> + Send + Sync>>,
}

impl std::fmt::Debug for Ensemble<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ensemble")
            .field("game", &self.game)
            .field("protocol", &self.protocol)
            .field("start", &self.start)
            .field("start_potential", &self.start_potential)
            .field("engine", &self.engine)
            .field("record", &self.record)
            .field("trials", &self.trials)
            .field("base_seed", &self.base_seed)
            .field("threads", &self.threads)
            .field("rng_mode", &self.rng_mode)
            .field("round_hook", &self.round_hook.as_ref().map(|_| "<factory>"))
            .finish()
    }
}

impl<'g> Ensemble<'g> {
    /// Create an ensemble of simulations of `protocol` on `game` starting
    /// from `start`, with 1 trial, base seed 0, [`Ensemble::default_threads`]
    /// threads, the default engine, and no recording.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`Simulation::new`] would: mismatched state, or a
    /// virtual-agent protocol/state disagreement. Validation happens here,
    /// once, instead of surfacing from every replica — as do the start's
    /// latency cache, support index and potential, which every replica
    /// copies when it rewinds.
    pub fn new(
        game: &'g CongestionGame,
        protocol: Protocol,
        mut start: State,
    ) -> Result<Self, DynamicsError> {
        validate_start(game, &protocol, &start)?;
        start.ensure_latency_cache(game);
        start.ensure_support_index(game);
        let start_potential = potential(game, &start);
        Ok(Ensemble {
            game,
            protocol,
            start,
            start_potential,
            engine: EngineKind::default(),
            record: RecordConfig::disabled(),
            trials: 1,
            base_seed: 0,
            threads: Self::default_threads(),
            rng_mode: RngMode::Xoshiro,
            round_hook: None,
        })
    }

    /// A conservative thread count for trial parallelism: the machine's
    /// available parallelism, capped at 8.
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map(|p| p.get().min(8)).unwrap_or(4)
    }

    /// Select the round engine for every replica.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Configure trajectory recording for every replica.
    pub fn recording(mut self, record: RecordConfig) -> Self {
        self.record = record;
        self
    }

    /// Set the number of replicas.
    ///
    /// Zero is allowed and uniform across the batch APIs: [`Ensemble::run`]
    /// and [`Ensemble::run_with`] return an empty `Vec`, and
    /// [`Ensemble::run_reduced`] returns the untouched reducer (the
    /// *identity reduction*) — the same contract as
    /// `congames_analysis::run_trials` with zero trials.
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Set the base seed replica seeds derive from.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Select the RNG backend every replica draws from (default:
    /// [`RngMode::Xoshiro`], the historical sequential stream).
    pub fn rng_mode(mut self, mode: RngMode) -> Self {
        self.rng_mode = mode;
        self
    }

    /// Attach a nonstationary scenario: `factory` builds one fresh
    /// [`RoundHook`] per replica (hooks are stateful cursors, so they
    /// cannot be shared), and every replica — including every shard of a
    /// sharded sweep — replays the same event schedule. Hooks are RNG-free
    /// by contract, so all the ensemble's bit-identity guarantees (thread
    /// counts, shard/merge, both RNG backends) carry over unchanged.
    pub fn with_round_hook(
        mut self,
        factory: impl Fn() -> Box<dyn RoundHook> + Send + Sync + 'static,
    ) -> Self {
        self.round_hook = Some(std::sync::Arc::new(factory));
        self
    }

    /// A no-op, kept only so existing callers still build: every sweep
    /// runs on [`Simulation`], which the removed replica-lane kernel
    /// matched byte for byte, so results are the same with or without it.
    /// `_width` is ignored.
    pub fn lane_width(self, _width: usize) -> Self {
        self
    }

    /// Run `trials` one at a time on the worker's replica `sim` through
    /// `one`, and fold each result into `partial` in trial order, skipping
    /// the trials above the lowest failing trial so far (`failed`); `at` is
    /// the running trial.
    ///
    /// Before every trial the replica is rewound to the start (built with
    /// the engine and recording on the worker's first trial) and armed
    /// with a fresh hook from the factory, if any — the only place a
    /// replica is built or reset.
    fn run_trials<R: Reducer>(
        &self,
        sim: &mut Option<Simulation<'g>>,
        trials: Range<usize>,
        failed: &AtomicUsize,
        at: &mut usize,
        partial: &mut R,
        one: &impl Fn(&mut Simulation<'g>, usize) -> Result<R::Item, DynamicsError>,
    ) -> Result<(), DynamicsError> {
        for trial in trials {
            if trial > failed.load(Ordering::Relaxed) {
                break;
            }
            *at = trial;
            let sim = match sim {
                Some(sim) => {
                    sim.rewind(&self.start, self.start_potential);
                    sim
                }
                None => sim.insert(
                    Simulation::new(self.game, self.protocol, self.start.clone())?
                        .with_engine(self.engine)
                        .with_recording(self.record),
                ),
            };
            if let Some(factory) = &self.round_hook {
                sim.attach_hook(factory());
            }
            partial.absorb(one(sim, trial)?);
        }
        Ok(())
    }

    /// Set the worker-thread budget (clamped to at least 1). The results
    /// are identical for every choice; only wall-clock time changes.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The replica stream for `trial` — the single constructor all run
    /// paths use (`run_with`, `run_reduced`, sharded runs).
    fn trial_stream(&self, trial: usize) -> DrawStream {
        DrawStream::for_trial(self.rng_mode, self.base_seed, trial as u64)
    }

    /// Run every replica until `stop` fires; outcomes in trial order.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest trial index) replica error, if any.
    pub fn run(&self, stop: &StopSpec) -> Result<Vec<RunOutcome>, DynamicsError> {
        self.run_with(stop, |_, outcome| outcome)
    }

    /// Run every replica and map `(finished simulation, outcome)` through
    /// `f` — use this to extract final-state statistics without cloning
    /// whole trajectories. Results are in trial order.
    ///
    /// Replicas run on the block scheduler of [`Ensemble::run_reduced`],
    /// collected into the `Vec` reducer; the parallel unit is one
    /// [`REDUCE_BLOCK`]-trial block.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest trial index) replica error, if any;
    /// trials above it are skipped. A panicking replica or `f` re-raises
    /// the lowest failing trial's payload.
    pub fn run_with<T: Send>(
        &self,
        stop: &StopSpec,
        f: impl Fn(&Simulation<'_>, RunOutcome) -> T + Sync,
    ) -> Result<Vec<T>, DynamicsError> {
        let mut out = Vec::new();
        let blocks = 0..self.trials.div_ceil(REDUCE_BLOCK);
        let one = |sim: &mut Simulation<'_>, trial: usize| {
            let outcome = sim.run(stop, &mut self.trial_stream(trial))?;
            Ok(f(sim, outcome))
        };
        self.reduce_blocks(blocks, Vec::new, one, |partial| out.merge(partial))?;
        Ok(out)
    }

    /// The reduced sweeps over `blocks`: each trial streams its run into
    /// the observer `observer_factory` builds for it.
    fn reduce_observed<O, R>(
        &self,
        blocks: Range<usize>,
        stop: &StopSpec,
        observer_factory: &(impl Fn(usize) -> O + Sync),
        prototype: &R,
        sink: impl FnMut(R) + Send,
    ) -> Result<(), DynamicsError>
    where
        O: Observer,
        R: Reducer<Item = O::Output> + Send + Sync,
    {
        // The verdict at the start, shared by every trial of a hook-free
        // sweep: `one` runs on a replica just rewound to round 0.
        let start_verdict = OnceLock::<Option<StopReason>>::new();
        let one = |sim: &mut Simulation<'_>, trial: usize| {
            let verdict = match self.round_hook {
                Some(_) => None,
                None => Some(*start_verdict.get_or_init(|| stop_reason(stop, sim))),
            };
            let mut observer = observer_factory(trial);
            let mut rng = self.trial_stream(trial);
            let summary = sim.run_observed_from(stop, verdict, &mut rng, &mut observer)?;
            Ok(observer.finish(&summary))
        };
        self.reduce_blocks(blocks, || prototype.identity(), one, sink)
    }

    /// The block scheduler behind every sweep: produce the partial of each
    /// [`REDUCE_BLOCK`]-trial block in `blocks` and hand the partials to
    /// `sink` in block order.
    ///
    /// Workers claim one block at a time. A block's partial starts from
    /// `identity()` and absorbs, in trial order, what `one(sim, trial)`
    /// returns for each of its trials (see [`Ensemble::run_trials`]).
    /// `sim` is the worker's own replica, kept across its blocks and
    /// dropped when a block panics (a replica unwound mid-trial may hold
    /// taken buffers), so the next block rebuilds it.
    /// A worker that finishes the next block in order hands its partial
    /// straight to `sink`, then drains the parked partials whose turn has
    /// come; a partial finished out of order is parked. A block is claimed
    /// only within a reorder window of the last delivered block, so live
    /// partials stay `O(threads)`. A worker that would claim past the
    /// window parks on a condition variable. A worker that delivers a block
    /// or records a failure wakes the parked ones, but only when the count
    /// of parked workers is non-zero, so a sweep that never reaches the
    /// window's edge (always the case with one thread) makes no wake-up
    /// call. With one thread the same worker body runs on the calling
    /// thread.
    ///
    /// Failures: the sweep keeps the lowest failing trial — a replica
    /// error, or a panic in a trial, the reducer or `sink` (charged to the
    /// running trial, or to its block's first trial) — and workers skip
    /// only trials above it. The error returned or payload re-raised is
    /// therefore the lowest failing trial's for every thread count and
    /// block range. A failed block never reaches `sink`.
    fn reduce_blocks<R: Reducer + Send>(
        &self,
        blocks: Range<usize>,
        identity: impl Fn() -> R + Sync,
        one: impl Fn(&mut Simulation<'g>, usize) -> Result<R::Item, DynamicsError> + Sync,
        sink: impl FnMut(R) + Send,
    ) -> Result<(), DynamicsError> {
        let threads = self.threads.min(blocks.len());
        // Reorder window, in blocks: block `b` is claimed only once block
        // `b − window` has been delivered.
        let window = threads * 2;
        let failed = AtomicUsize::new(usize::MAX);
        let pipeline = Mutex::new(Pipeline {
            claimed: blocks.start,
            delivered: blocks.start,
            pending: BTreeMap::new(),
            sink,
            failure: None,
            waiting: 0,
        });
        let cv = Condvar::new();
        let worker = || {
            let mut sim = None;
            loop {
                let b = {
                    let mut p = pipeline.lock().unwrap_or_else(PoisonError::into_inner);
                    loop {
                        let b = p.claimed;
                        if b == blocks.end || b * REDUCE_BLOCK > failed.load(Ordering::Relaxed) {
                            return;
                        }
                        if b - p.delivered < window {
                            p.claimed += 1;
                            break b;
                        }
                        p.waiting += 1;
                        p = cv.wait(p).unwrap_or_else(PoisonError::into_inner);
                        p.waiting -= 1;
                    }
                };
                let mut at = b * REDUCE_BLOCK;
                // Even `identity()` runs under the catch: a worker that dies
                // without reporting would leave window waiters asleep forever.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut partial = identity();
                    let trials = b * REDUCE_BLOCK..((b + 1) * REDUCE_BLOCK).min(self.trials);
                    self.run_trials(&mut sim, trials, &failed, &mut at, &mut partial, &one)
                        .map(|()| partial)
                }));
                let mut p = pipeline.lock().unwrap_or_else(PoisonError::into_inner);
                match result {
                    Ok(Ok(partial)) => p.deliver(b, partial, &failed),
                    Ok(Err(e)) => p.fail(&failed, at, Failure::Error(e)),
                    Err(payload) => {
                        sim = None;
                        p.fail(&failed, at, Failure::Panic(payload));
                    }
                }
                // Delivery progress unblocks window waiters; a failure must
                // wake them too so they can exit. Waiters count themselves
                // under the lock before they park, so none can be missed.
                let wake = p.waiting > 0;
                drop(p);
                if wake {
                    cv.notify_all();
                }
            }
        };
        if threads <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(worker);
                }
            });
        }
        match pipeline.into_inner().unwrap_or_else(PoisonError::into_inner).failure {
            None => Ok(()),
            Some((_, Failure::Error(e))) => Err(e),
            Some((_, Failure::Panic(payload))) => resume_unwind(payload),
        }
    }

    /// Run every replica and fold the per-trial observer outputs into
    /// `reducer` **online** — the memory-bounded path for large sweeps: no
    /// per-trial `Trajectory`, outcome `Vec`, or any other
    /// `O(trials · rounds)` collection is ever materialized. Live memory is
    /// `O(threads · (observer + reducer partial))`; for the stock
    /// [`RecordSeries`](crate::RecordSeries) →
    /// [`PerRoundStats`](crate::PerRoundStats) pipeline that is
    /// `O(threads · recorded_rounds)`, independent of the trial count.
    ///
    /// `observer_factory(trial)` builds the per-trial observer (give the
    /// ensemble a [`RecordConfig`] via [`Ensemble::recording`] if the
    /// observer wants per-round records; summary-only observers such as
    /// [`FinalSummary`](crate::FinalSummary) need no recording at all).
    ///
    /// # Determinism
    ///
    /// Trials are partitioned into fixed-size consecutive blocks
    /// ([`REDUCE_BLOCK`] trials); each block partial starts from
    /// `reducer.identity()`, absorbs its trials in trial order, and the
    /// partials are merged into the accumulator **in block order**. The
    /// reduction tree therefore depends only on the trial count, so the
    /// returned reducer is **bit-identical for every thread count**.
    /// Workers claim blocks dynamically, each partial is merged when its
    /// block's turn comes up (one finished ahead of its turn is parked),
    /// and a bounded reorder window (a small multiple of the thread count)
    /// keeps pending partials — and hence memory — bounded even when early
    /// blocks run long. [`Ensemble::run_reduced_shard`] runs the same
    /// scheduler over one shard's blocks.
    ///
    /// Without a round hook, every trial's round 0 is the same start under
    /// the same `stop`, so the sweep evaluates the stop conditions there
    /// once, on the first replica to reach round 0, and every trial takes
    /// that verdict. With a round hook an event may change round 0, so
    /// every trial evaluates its own. Either way each trial sees the
    /// verdict a fresh run from the start reaches, so every result is
    /// bit-identical to evaluating each trial afresh.
    ///
    /// With zero trials the reducer is returned untouched (the identity
    /// reduction; see [`Ensemble::trials`]).
    ///
    /// # Errors
    ///
    /// A failing replica stops the sweep early: workers skip every trial
    /// above the lowest failing trial seen so far, and that trial's error
    /// is returned. A panicking replica, observer or reducer is handled the
    /// same way, and the original payload of the lowest failing trial is
    /// re-raised. The reported failure is the same for every thread count
    /// and shard split.
    ///
    /// # Example
    ///
    /// ```
    /// use congames_dynamics::{
    ///     ConvergenceHistogram, Ensemble, FinalSummary, ImitationProtocol, StopCondition,
    ///     StopReason, StopSpec,
    /// };
    /// use congames_model::{Affine, CongestionGame, State};
    ///
    /// let game = CongestionGame::singleton(
    ///     vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()],
    ///     100,
    /// )?;
    /// let start = State::from_counts(&game, vec![80, 20])?;
    /// let stop =
    ///     StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(5_000)]);
    /// let histogram = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)?
    ///     .trials(64)
    ///     .base_seed(7)
    ///     .run_reduced(&stop, |_trial| FinalSummary, ConvergenceHistogram::new())?;
    /// assert_eq!(histogram.total(), 64);
    /// assert!(histogram.reason(StopReason::ImitationStable).count() > 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_reduced<O, R>(
        &self,
        stop: &StopSpec,
        observer_factory: impl Fn(usize) -> O + Sync,
        reducer: R,
    ) -> Result<R, DynamicsError>
    where
        O: Observer,
        R: Reducer<Item = O::Output> + Send + Sync,
    {
        let mut acc = reducer;
        let prototype = acc.identity();
        let blocks = 0..self.trials.div_ceil(REDUCE_BLOCK);
        self.reduce_observed(blocks, stop, &observer_factory, &prototype, |p| acc.merge(p))?;
        Ok(acc)
    }

    /// The reduction blocks shard `shard` of `num_shards` covers (see
    /// [`Ensemble::shard_trials`]).
    fn shard_blocks(&self, shard: usize, num_shards: usize) -> Range<usize> {
        assert!(num_shards > 0, "need at least one shard");
        assert!(shard < num_shards, "shard index {shard} out of range for {num_shards} shards");
        let blocks = self.trials.div_ceil(REDUCE_BLOCK);
        shard * blocks / num_shards..(shard + 1) * blocks / num_shards
    }

    /// The global trial range shard `shard` of `num_shards` covers.
    ///
    /// Shard boundaries are **block-aligned**: the sweep's
    /// `trials.div_ceil(REDUCE_BLOCK)` reduction blocks (see
    /// [`REDUCE_BLOCK`]) are split as evenly as possible, shard `s`
    /// getting blocks `[s·B/K, (s+1)·B/K)`. Alignment matters because the
    /// unit a sharded sweep ships to the merger is the block partial —
    /// splitting a block across shards would change the reduction tree and
    /// therefore the merged bits. A shard may cover zero trials when there
    /// are more shards than blocks; that is fine (its partial file simply
    /// carries no blocks).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or `shard >= num_shards`.
    pub fn shard_trials(&self, shard: usize, num_shards: usize) -> Range<usize> {
        let blocks = self.shard_blocks(shard, num_shards);
        (blocks.start * REDUCE_BLOCK).min(self.trials)..(blocks.end * REDUCE_BLOCK).min(self.trials)
    }

    /// Run only shard `shard` of `num_shards` and return its reduction-tree
    /// **leaves**: one partial per [`REDUCE_BLOCK`]-trial block, in block
    /// order — exactly the partials [`Ensemble::run_reduced`] would have
    /// produced for those blocks in a single-process sweep, from the same
    /// block scheduler.
    ///
    /// Per-trial seeds still derive from `split_seed(base_seed, trial)`
    /// with **global** trial indices, so the shard split cannot change any
    /// trial's stream. A merger that concatenates every shard's leaves in
    /// shard order and folds them with
    /// [`merge_partials`](crate::merge_partials) replays the single
    /// process's left-deep merge chain and is therefore **bit-identical**
    /// to `run_reduced` for any shard count — the leaves are returned
    /// unmerged precisely because floating-point merges (Welford/Chan) are
    /// not bitwise associative, so pre-merging per shard would change the
    /// final bits. Live memory is `O(shard blocks)` partials.
    ///
    /// # Errors
    ///
    /// As [`Ensemble::run_reduced`]: the lowest failing trial's error.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or `shard >= num_shards`; replica or
    /// reducer panics re-raise the lowest failing trial's payload, as in
    /// [`Ensemble::run_reduced`].
    pub fn run_reduced_shard<O, R>(
        &self,
        shard: usize,
        num_shards: usize,
        stop: &StopSpec,
        observer_factory: impl Fn(usize) -> O + Sync,
        reducer: &R,
    ) -> Result<Vec<R>, DynamicsError>
    where
        O: Observer,
        R: Reducer<Item = O::Output> + Send + Sync,
    {
        let blocks = self.shard_blocks(shard, num_shards);
        let mut leaves = Vec::with_capacity(blocks.len());
        self.reduce_observed(blocks, stop, &observer_factory, reducer, |leaf| leaves.push(leaf))?;
        Ok(leaves)
    }
}

/// What stopped a reduced sweep at its lowest failing trial.
enum Failure {
    Error(DynamicsError),
    Panic(Box<dyn std::any::Any + Send + 'static>),
}

/// The in-order delivery state [`Ensemble::reduce_blocks`] workers share.
struct Pipeline<R, S> {
    /// The block the next claim takes.
    claimed: usize,
    /// The block `sink` receives next.
    delivered: usize,
    /// Finished partials waiting for their delivery slot.
    pending: BTreeMap<usize, R>,
    sink: S,
    /// The lowest failing trial and what went wrong there.
    failure: Option<(usize, Failure)>,
    /// Workers parked on the condition variable.
    waiting: usize,
}

impl<R, S: FnMut(R)> Pipeline<R, S> {
    /// Keep `failure` if `trial` is the lowest failing trial so far.
    fn fail(&mut self, failed: &AtomicUsize, trial: usize, failure: Failure) {
        if trial < failed.fetch_min(trial, Ordering::Relaxed) {
            self.failure = Some((trial, failure));
        }
    }

    /// Take block `b`'s finished partial: park it if an earlier block is
    /// still outstanding, otherwise hand it to the sink, followed by every
    /// parked partial whose slot has come up. A panicking sink fails the
    /// sweep at its block's first trial.
    fn deliver(&mut self, b: usize, partial: R, failed: &AtomicUsize) {
        if b != self.delivered {
            self.pending.insert(b, partial);
            return;
        }
        let mut next = Some(partial);
        while let Some(partial) = next {
            let sink = &mut self.sink;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| sink(partial))) {
                self.fail(failed, self.delivered * REDUCE_BLOCK, Failure::Panic(payload));
                return;
            }
            self.delivered += 1;
            next = self.pending.remove(&self.delivered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ImitationProtocol;
    use crate::stopping::{StopCondition, StopReason};
    use congames_model::Affine;

    fn two_links(n: u64) -> CongestionGame {
        CongestionGame::singleton(vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()], n)
            .unwrap()
    }

    #[test]
    fn ensemble_is_thread_count_invariant() {
        let game = two_links(200);
        let start = State::from_counts(&game, vec![150, 50]).unwrap();
        let stop =
            StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(2_000)]);
        let run = |threads: usize| {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .unwrap()
                .trials(12)
                .base_seed(99)
                .threads(threads)
                .run_with(&stop, |sim, out| {
                    (out.rounds, out.potential.to_bits(), sim.state().counts().to_vec())
                })
                .unwrap()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
        assert!(one.iter().all(|(r, _, _)| *r < 2_000));
    }

    #[test]
    fn ensemble_validates_eagerly() {
        let game = two_links(4);
        let other = two_links(6);
        let bad = State::from_counts(&other, vec![3, 3]).unwrap();
        assert!(Ensemble::new(&game, ImitationProtocol::paper_default().into(), bad).is_err());
    }

    #[test]
    fn run_reduced_is_thread_count_invariant_and_matches_trial_order() {
        use crate::observe::FinalSummary;
        use crate::reduce::{MapItem, ScalarStats};
        use crate::stopping::RunSummary;
        let game = two_links(120);
        let start = State::from_counts(&game, vec![90, 30]).unwrap();
        let stop = StopSpec::max_rounds(20);
        // 70 trials = 3 reduction blocks, so the merge path is exercised.
        let run = |threads: usize| {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .unwrap()
                .trials(70)
                .base_seed(5)
                .threads(threads)
                .run_reduced(
                    &stop,
                    |_trial| FinalSummary,
                    MapItem::new(|s: RunSummary| s.potential, ScalarStats::new()),
                )
                .unwrap()
                .into_inner()
        };
        let one = run(1);
        assert_eq!(one, run(2), "2 threads changed the reduction");
        assert_eq!(one, run(8), "8 threads changed the reduction");
        assert_eq!(one.count(), 70);
        // The collecting reducer preserves trial order exactly.
        let collected: Vec<u64> =
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .unwrap()
                .trials(70)
                .base_seed(5)
                .threads(4)
                .run_reduced(
                    &stop,
                    |_trial| FinalSummary,
                    MapItem::new(|s: RunSummary| s.rounds, Vec::new()),
                )
                .unwrap()
                .into_inner();
        let reference: Vec<u64> =
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .unwrap()
                .trials(70)
                .base_seed(5)
                .run_with(&stop, |_, out| out.rounds)
                .unwrap();
        assert_eq!(collected, reference);
    }

    #[test]
    fn run_reduced_zero_trials_is_the_identity_reduction() {
        use crate::observe::FinalSummary;
        use crate::reduce::ConvergenceHistogram;
        let game = two_links(10);
        let start = State::from_counts(&game, vec![5, 5]).unwrap();
        let out = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
            .unwrap()
            .trials(0)
            .run_reduced(
                &StopSpec::max_rounds(5),
                |_trial| FinalSummary,
                ConvergenceHistogram::new(),
            )
            .unwrap();
        assert_eq!(out.total(), 0);
        // The materializing APIs agree: zero trials → empty Vec.
        assert!(Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)
            .unwrap()
            .trials(0)
            .run(&StopSpec::max_rounds(5))
            .unwrap()
            .is_empty());
    }

    /// Two trials panic in the observer factory; the payload re-raised is
    /// always the lower trial's — for every thread count and RNG backend,
    /// and through the sharded entry point — even when a worker reaches the
    /// higher trial first.
    #[test]
    fn run_reduced_propagates_original_panic() {
        use crate::observe::FinalSummary;
        use crate::reduce::ConvergenceHistogram;
        let game = two_links(20);
        let start = State::from_counts(&game, vec![15, 5]).unwrap();
        let stop = StopSpec::max_rounds(5);
        let factory = |trial: usize| {
            match trial {
                7 => panic!("observer factory exploded at trial 7"),
                41 => panic!("observer factory exploded at trial 41"),
                _ => {}
            }
            FinalSummary
        };
        let message = |payload: Box<dyn std::any::Any + Send>| match payload.downcast::<&str>() {
            Ok(s) => s.to_string(),
            Err(payload) => *payload.downcast::<String>().expect("a string payload"),
        };
        for mode in [RngMode::Xoshiro, RngMode::Counter] {
            for threads in [1, 2, 8] {
                let e =
                    Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                        .unwrap()
                        .trials(80)
                        .threads(threads)
                        .rng_mode(mode);
                let reduced = catch_unwind(AssertUnwindSafe(|| {
                    e.run_reduced(&stop, factory, ConvergenceHistogram::new())
                }))
                .expect_err("run_reduced must re-raise the panic");
                let sharded = catch_unwind(AssertUnwindSafe(|| {
                    e.run_reduced_shard(0, 1, &stop, factory, &ConvergenceHistogram::new())
                }))
                .expect_err("run_reduced_shard must re-raise the panic");
                for payload in [reduced, sharded] {
                    assert_eq!(
                        message(payload),
                        "observer factory exploded at trial 7",
                        "{mode:?} threads={threads}"
                    );
                }
            }
        }
    }

    /// A reducer that panics inside `absorb` (here: a `MapItem` projection)
    /// must neither hang the in-order merge pipeline nor surface as the
    /// scope's generic panic — the original payload is re-raised.
    #[test]
    #[should_panic(expected = "absorb exploded")]
    fn run_reduced_propagates_reducer_panics() {
        use crate::observe::FinalSummary;
        use crate::reduce::{MapItem, Welford};
        use crate::stopping::RunSummary;
        let game = two_links(20);
        let start = State::from_counts(&game, vec![15, 5]).unwrap();
        let _ = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)
            .unwrap()
            .trials(80)
            .threads(4)
            .run_reduced(
                &StopSpec::max_rounds(5),
                |_trial| FinalSummary,
                MapItem::new(
                    |s: RunSummary| {
                        if s.rounds <= 5 {
                            panic!("absorb exploded");
                        }
                        s.potential
                    },
                    Welford::new(),
                ),
            );
    }

    #[test]
    fn sharded_leaves_merge_bit_identical_to_run_reduced() {
        use crate::observe::FinalSummary;
        use crate::reduce::{merge_partials, MapItem, ScalarStats};
        use crate::stopping::RunSummary;
        let game = two_links(120);
        let start = State::from_counts(&game, vec![90, 30]).unwrap();
        let stop = StopSpec::max_rounds(20);
        let reducer = || MapItem::new(|s: RunSummary| s.potential, ScalarStats::new());
        for mode in [RngMode::Xoshiro, RngMode::Counter] {
            let ensemble = |threads: usize| {
                Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                    .unwrap()
                    .trials(70)
                    .base_seed(5)
                    .threads(threads)
                    .rng_mode(mode)
            };
            let single = ensemble(1)
                .run_reduced(&stop, |_trial| FinalSummary, reducer())
                .unwrap()
                .into_inner();
            // 70 trials = 3 blocks; split them over every shard count that
            // exercises empty shards, one-block shards, and multi-block
            // shards, at every thread count.
            for threads in [1, 2, 8] {
                for num_shards in [1usize, 2, 3, 5] {
                    let mut leaves = Vec::new();
                    let mut covered = 0;
                    for shard in 0..num_shards {
                        let e = ensemble(threads);
                        let range = e.shard_trials(shard, num_shards);
                        assert_eq!(range.start, covered, "shard ranges must be contiguous");
                        covered = range.end;
                        leaves.extend(
                            e.run_reduced_shard(
                                shard,
                                num_shards,
                                &stop,
                                |_trial| FinalSummary,
                                &reducer(),
                            )
                            .unwrap(),
                        );
                    }
                    assert_eq!(covered, 70);
                    let merged = merge_partials(reducer(), leaves).into_inner();
                    assert_eq!(
                        merged, single,
                        "{mode:?}: {num_shards} shards at {threads} threads changed the bits"
                    );
                }
            }
        }
    }

    #[test]
    fn run_reduced_survives_non_finite_samples() {
        use crate::observe::FinalSummary;
        use crate::reduce::{MapItem, ScalarStats};
        use crate::stopping::RunSummary;
        let game = two_links(40);
        let start = State::from_counts(&game, vec![30, 10]).unwrap();
        // Inject a NaN "latency" for one trial of a multi-block sweep: the
        // sweep must complete and report the bad sample instead of aborting.
        let stats = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)
            .unwrap()
            .trials(40)
            .threads(4)
            .run_reduced(
                &StopSpec::max_rounds(5),
                |_trial| FinalSummary,
                MapItem::new(
                    |s: RunSummary| if s.rounds == 5 { s.potential } else { f64::NAN },
                    ScalarStats::new(),
                ),
            )
            .unwrap()
            .into_inner();
        assert_eq!(stats.count() + stats.non_finite(), 40);
    }

    #[test]
    fn ensemble_outcomes_carry_stop_reasons() {
        let game = two_links(50);
        let start = State::from_counts(&game, vec![25, 25]).unwrap();
        let outcomes = Ensemble::new(&game, ImitationProtocol::paper_default().into(), start)
            .unwrap()
            .trials(3)
            .run(&StopSpec::new(vec![StopCondition::ImitationStable]))
            .unwrap();
        assert!(outcomes.iter().all(|o| o.reason == StopReason::ImitationStable && o.rounds == 0));
    }
}
