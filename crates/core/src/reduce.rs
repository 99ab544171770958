//! Online (streaming) reduction of ensemble outputs.
//!
//! The paper's statistical claims — Lemma 2's expected potential drop per
//! round, Theorem 7's pseudopolynomial convergence time — are verified by
//! averaging over thousands of independent replicas. A 10⁵-trial sweep must
//! therefore reduce **online**: per-trial outputs are absorbed into small
//! accumulators as they finish and never materialize as an
//! `O(trials · rounds)` collection.
//!
//! [`Reducer`] is the fold: `identity()` spawns an empty accumulator,
//! `absorb(item)` folds one trial's output in, and `merge(other)` combines
//! two accumulators. `Ensemble::run_reduced` partitions trials into
//! fixed-size consecutive blocks, reduces each block by absorbing its
//! trials in order, and merges the block partials **in block order** — a
//! reduction tree that depends only on the trial count, never on the
//! thread count or schedule, so the result is bit-identical for 1, 2, or
//! 8 worker threads.
//!
//! Stock reducers:
//!
//! * [`Welford`] — numerically stable streaming mean/variance (merged with
//!   Chan's parallel formula).
//! * [`MinMax`] — envelope of the extremes.
//! * [`QuantileSketch`] — a counted, log-bucketed quantile summary with
//!   bounded relative error and *exact* (integer) merges; no reservoir,
//!   no stored samples. Non-finite samples are tallied, not fatal:
//!   quantiles are taken over the finite mass.
//! * [`ScalarStats`] — the three above bundled for one `f64` stream.
//! * [`PerRoundStats`] — per-round-index [`Welford`] + [`MinMax`] over the
//!   [`RoundRecord`] fields, the streamed replacement for averaging a pile
//!   of trajectories.
//! * [`ConvergenceHistogram`] — convergence-round histograms keyed by
//!   [`StopReason`].
//! * [`MapItem`] — adapts a reducer over `U` to items of type `T` via a
//!   projection `T → U`.
//! * A pair `(A, B)` of reducers — one item stream reduced by both.
//! * `Vec<T>` — the materializing fallback that collects every item in
//!   trial order (`Ensemble::run_with` collects with it). It is
//!   in-process only: it has no wire encoding.
//!
//! # Wire format & versioning
//!
//! Every stock reducer partial, and `MapItem` and the pair over such
//! reducers, also has a
//! **stable, versioned wire encoding** via the
//! [`WireReduce`](crate::wire::WireReduce) extension trait in
//! [`crate::wire`], so partials can be written by one process and merged
//! by another — the cross-process aggregation path `Ensemble::
//! run_reduced_shard` and the `congames shard`/`congames merge` CLI build
//! on. Because floating-point merges (Welford/Chan) are not bitwise
//! associative, the unit shipped over the wire is the **reduction-tree
//! leaf** — one partial per fixed 32-trial block — and the merger replays
//! [`merge_partials`] in global block order, reproducing the
//! single-process [`Ensemble::run_reduced`](crate::Ensemble::run_reduced)
//! result bit for bit. See the [`crate::wire`] module docs for the frame
//! layout, checksum, and versioning rules.

use std::collections::BTreeMap;

use crate::stopping::{RunSummary, StopReason};
use crate::trajectory::RoundRecord;

/// A streaming, mergeable accumulator (a monoid fold over trial outputs).
///
/// `identity()` must return an accumulator that absorbs items exactly like
/// a fresh one; `merge` must combine two accumulators as if their items
/// had been absorbed into one (floating-point reducers may round
/// differently between `absorb` chains and `merge` trees — that is fine,
/// because `Ensemble::run_reduced` fixes the tree shape independent of the
/// thread count, so any given reduction is still bit-reproducible).
///
/// # Example
///
/// ```
/// use congames_dynamics::{Reducer, Welford};
///
/// let mut a = Welford::new();
/// a.absorb(1.0);
/// a.absorb(2.0);
/// let mut b = a.identity(); // empty accumulator of the same shape
/// b.absorb(6.0);
/// a.merge(b);
/// assert_eq!(a.count(), 3);
/// assert!((a.mean() - 3.0).abs() < 1e-12);
/// ```
pub trait Reducer: Sized {
    /// The per-trial output type this reducer folds over.
    type Item;

    /// A fresh, empty accumulator with the same configuration as `self`.
    fn identity(&self) -> Self;

    /// Fold one trial output into the accumulator.
    fn absorb(&mut self, item: Self::Item);

    /// Combine another accumulator (absorbed from a *later* consecutive
    /// range of trials) into this one.
    fn merge(&mut self, other: Self);
}

/// Merge `partials` into `acc` one by one, **in iteration order** (a
/// left-deep merge chain).
///
/// This is exactly the merge sequence `Ensemble::run_reduced` applies to
/// its block partials, so feeding the same leaves in the same order —
/// whether they came from this process or were decoded from shard files —
/// reproduces the single-process reduction bit for bit. Merging into a
/// fresh identity accumulator is a bitwise no-op for every stock reducer
/// (`Welford` copies, envelopes take the other side, integer tallies add
/// to zero), which is what lets a merger start from `identity()` and still
/// match a `run_reduced` that started from the same.
pub fn merge_partials<R: Reducer>(mut acc: R, partials: impl IntoIterator<Item = R>) -> R {
    for partial in partials {
        acc.merge(partial);
    }
    acc
}

/// The materializing fallback: collects every item, preserving trial
/// order (block partials are merged in trial order). In-process only: it
/// has no wire encoding.
impl<T> Reducer for Vec<T> {
    type Item = T;

    fn identity(&self) -> Self {
        Vec::new()
    }

    fn absorb(&mut self, item: T) {
        self.push(item);
    }

    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

/// Reduce one item stream with two reducers at once.
impl<T: Clone, A: Reducer<Item = T>, B: Reducer<Item = T>> Reducer for (A, B) {
    type Item = T;

    fn identity(&self) -> Self {
        (self.0.identity(), self.1.identity())
    }

    fn absorb(&mut self, item: T) {
        self.0.absorb(item.clone());
        self.1.absorb(item);
    }

    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
    }
}

/// Adapt a reducer over `U` to a stream of `T` via a projection `T → U`.
///
/// # Example
///
/// ```
/// use congames_dynamics::{MapItem, Reducer, RunSummary, Welford};
///
/// // Average convergence rounds straight off `RunSummary` items.
/// let mut rounds = MapItem::new(|s: RunSummary| s.rounds as f64, Welford::new());
/// # let summary = RunSummary {
/// #     reason: congames_dynamics::StopReason::MaxRounds, rounds: 12, potential: 0.0,
/// # };
/// rounds.absorb(summary);
/// assert_eq!(rounds.inner().mean(), 12.0);
/// ```
pub struct MapItem<T, F, R> {
    f: F,
    inner: R,
    /// `fn(T)` keeps the marker `Send + Sync` whatever `T` is.
    _item: std::marker::PhantomData<fn(T)>,
}

impl<T, F, R> MapItem<T, F, R> {
    /// Reduce `f(item)` with `inner`.
    pub fn new(f: F, inner: R) -> Self {
        MapItem { f, inner, _item: std::marker::PhantomData }
    }

    /// The wrapped reducer.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// The projection, for rebuilding a `MapItem` around a wire-decoded
    /// inner reducer (the projection itself is configuration, not data —
    /// it never rides the wire).
    pub(crate) fn project_fn(&self) -> &F {
        &self.f
    }

    /// Unwrap the inner reducer.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<T, F, R: std::fmt::Debug> std::fmt::Debug for MapItem<T, F, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapItem").field("inner", &self.inner).finish_non_exhaustive()
    }
}

/// Equality compares the wrapped reducer state only — the projection is
/// code, not data (and two `MapItem`s of the same type share it anyway).
impl<T, F, R: PartialEq> PartialEq for MapItem<T, F, R> {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
    }
}

impl<T, F: Clone, R: Clone> Clone for MapItem<T, F, R> {
    fn clone(&self) -> Self {
        MapItem { f: self.f.clone(), inner: self.inner.clone(), _item: std::marker::PhantomData }
    }
}

impl<T, F: Fn(T) -> R::Item + Clone, R: Reducer> Reducer for MapItem<T, F, R> {
    type Item = T;

    fn identity(&self) -> Self {
        MapItem { f: self.f.clone(), inner: self.inner.identity(), _item: std::marker::PhantomData }
    }

    fn absorb(&mut self, item: T) {
        self.inner.absorb((self.f)(item));
    }

    fn merge(&mut self, other: Self) {
        self.inner.merge(other.inner);
    }
}

/// Streaming mean and variance (Welford's algorithm; merged with Chan's
/// parallel formula).
///
/// The statistics of an empty accumulator are `NaN`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of absorbed samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Bessel-corrected sample variance (`NaN` when empty, 0 for a
    /// singleton).
    pub fn variance(&self) -> f64 {
        match self.count {
            0 => f64::NAN,
            1 => 0.0,
            n => self.m2 / (n - 1) as f64,
        }
    }

    /// Sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn sem(&self) -> f64 {
        self.sd() / (self.count as f64).sqrt()
    }

    /// Normal-approximation 95% confidence half-width for the mean.
    pub fn ci95(&self) -> f64 {
        1.96 * self.sem()
    }

    /// Absorb one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// The raw accumulator state `(count, mean, m2)` — the exact fields
    /// the wire encoding serializes.
    pub(crate) fn raw_parts(&self) -> (u64, f64, f64) {
        (self.count, self.mean, self.m2)
    }

    /// Rebuild an accumulator from wire-decoded raw parts.
    pub(crate) fn from_raw_parts(count: u64, mean: f64, m2: f64) -> Self {
        Welford { count, mean, m2 }
    }

    /// Merge another accumulator (Chan et al.'s pairwise update).
    pub fn merge_with(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let (n1, n2) = (self.count as f64, other.count as f64);
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * (n2 / total);
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

impl Reducer for Welford {
    type Item = f64;

    fn identity(&self) -> Self {
        Welford::new()
    }

    fn absorb(&mut self, item: f64) {
        self.push(item);
    }

    fn merge(&mut self, other: Self) {
        self.merge_with(&other);
    }
}

/// Streaming min/max envelope. Empty accumulators report `+∞`/`−∞`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMax {
    min: f64,
    max: f64,
}

impl Default for MinMax {
    fn default() -> Self {
        MinMax { min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl MinMax {
    /// An empty envelope.
    pub fn new() -> Self {
        Self::default()
    }

    /// Smallest absorbed value (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest absorbed value (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Whether nothing was absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// Absorb one sample.
    pub fn push(&mut self, x: f64) {
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Rebuild an envelope from wire-decoded bounds.
    pub(crate) fn from_raw_parts(min: f64, max: f64) -> Self {
        MinMax { min, max }
    }
}

impl Reducer for MinMax {
    type Item = f64;

    fn identity(&self) -> Self {
        MinMax::new()
    }

    fn absorb(&mut self, item: f64) {
        self.push(item);
    }

    fn merge(&mut self, other: Self) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A counted, log-bucketed streaming quantile summary (DDSketch-style).
///
/// Values are counted in geometric buckets of relative width `α`
/// (default 1%): bucket `i` covers `(γ^(i−1), γ^i]` with
/// `γ = (1+α)/(1−α)`, with mirrored buckets for negative values and an
/// exact bucket for zero. A reported quantile is therefore within relative
/// error `α` of the true sample quantile. Memory is `O(log(max/min)/α)` —
/// independent of the sample count — and **merges are exact** (integer
/// bucket additions), so merging is truly associative, unlike reservoir
/// sampling (which this replaces) or floating-point moment merges.
///
/// Non-finite samples (`NaN`, `±∞`) never abort a sweep: they are counted
/// in a dedicated, merge-compatible [`non_finite`](QuantileSketch::non_finite)
/// tally and excluded from the buckets, the envelope, and the finite
/// [`count`](QuantileSketch::count), so quantiles are always taken over
/// the finite mass.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    /// `ln γ`, precomputed.
    ln_gamma: f64,
    count: u64,
    zero: u64,
    /// Samples rejected for being `NaN` or infinite.
    non_finite: u64,
    /// Counts of positive values, keyed by `⌈ln(x)/ln γ⌉`.
    pos: BTreeMap<i32, u64>,
    /// Counts of negative values, keyed by `⌈ln(−x)/ln γ⌉`.
    neg: BTreeMap<i32, u64>,
    envelope: MinMax,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new(0.01)
    }
}

impl QuantileSketch {
    /// A sketch with relative accuracy `alpha` (`0 < alpha < 1`).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "relative accuracy must be in (0, 1)");
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            ln_gamma: gamma.ln(),
            count: 0,
            zero: 0,
            non_finite: 0,
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            envelope: MinMax::new(),
        }
    }

    /// The configured relative accuracy.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of absorbed **finite** samples (the mass quantiles are taken
    /// over). Non-finite samples are tallied separately in
    /// [`non_finite`](QuantileSketch::non_finite).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of absorbed non-finite (`NaN` or `±∞`) samples. One bad
    /// latency in a 10⁵-trial sweep must not abort the run: such samples
    /// are counted here (the field merges exactly, like the buckets) and
    /// excluded from the quantile mass and the envelope.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Exact smallest absorbed value (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.envelope.min()
    }

    /// Exact largest absorbed value (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.envelope.max()
    }

    fn bucket(&self, magnitude: f64) -> i32 {
        // ⌈ln(x)/ln γ⌉, clamped to i32; subnormals land in deep negative
        // buckets, which the BTreeMap handles like any other key.
        (magnitude.ln() / self.ln_gamma).ceil().clamp(i32::MIN as f64, i32::MAX as f64) as i32
    }

    fn bucket_value(&self, index: i32) -> f64 {
        // Midpoint (harmonic-ish) representative of (γ^(i−1), γ^i]:
        // 2γ^i / (γ + 1) is within α of every value in the bucket.
        let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
        2.0 * (self.ln_gamma * index as f64).exp() / (gamma + 1.0)
    }

    /// Absorb one sample. Non-finite values are counted in
    /// [`non_finite`](QuantileSketch::non_finite) and otherwise ignored —
    /// quantiles stay defined over the finite mass.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        self.envelope.push(x);
        if x == 0.0 {
            self.zero += 1;
        } else if x > 0.0 {
            *self.pos.entry(self.bucket(x)).or_insert(0) += 1;
        } else {
            *self.neg.entry(self.bucket(-x)).or_insert(0) += 1;
        }
    }

    /// The `q`-quantile for `q ∈ [0, 1]` (`NaN` when empty), within
    /// relative error [`alpha`](QuantileSketch::alpha) of the exact sample
    /// quantile; the result is clamped into `[min, max]`. The boundary
    /// quantiles are exact: `quantile(0.0)` is [`min`](QuantileSketch::min)
    /// and `quantile(1.0)` is [`max`](QuantileSketch::max) — the envelope
    /// tracks them precisely, so no bucket representative is ever returned
    /// for the extremes.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return f64::NAN;
        }
        // Serve the extremes from the exact envelope: rank 0 walks into
        // the minimum's *bucket* (a representative up to α off, and for a
        // lone negative bucket the clamp may even answer with max), and
        // the top rank can fall through to `max()` only when the largest
        // sample is positive.
        if q == 0.0 {
            return self.min();
        }
        if q == 1.0 {
            return self.max();
        }
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        // Ascending value order: most-negative first (descending |x|
        // bucket index), then zero, then positives ascending.
        for (&i, &c) in self.neg.iter().rev() {
            seen += c;
            if seen > rank {
                return self.clamp(-self.bucket_value(i));
            }
        }
        seen += self.zero;
        if seen > rank {
            return 0.0f64.clamp(self.min(), self.max());
        }
        for (&i, &c) in self.pos.iter() {
            seen += c;
            if seen > rank {
                return self.clamp(self.bucket_value(i));
            }
        }
        self.max()
    }

    /// Median shorthand.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    fn clamp(&self, v: f64) -> f64 {
        v.clamp(self.min(), self.max())
    }

    /// The raw sketch state the wire encoding serializes: counts, the
    /// non-finite tally, the (sorted) bucket maps, and the envelope.
    #[allow(clippy::type_complexity)]
    pub(crate) fn raw_parts(
        &self,
    ) -> (u64, u64, u64, &BTreeMap<i32, u64>, &BTreeMap<i32, u64>, &MinMax) {
        (self.count, self.zero, self.non_finite, &self.pos, &self.neg, &self.envelope)
    }

    /// Rebuild a sketch from wire-decoded raw parts. `alpha` must already
    /// be validated into `(0, 1)` by the decoder.
    pub(crate) fn from_raw_parts(
        alpha: f64,
        count: u64,
        zero: u64,
        non_finite: u64,
        pos: BTreeMap<i32, u64>,
        neg: BTreeMap<i32, u64>,
        envelope: MinMax,
    ) -> Self {
        let mut s = QuantileSketch::new(alpha);
        s.count = count;
        s.zero = zero;
        s.non_finite = non_finite;
        s.pos = pos;
        s.neg = neg;
        s.envelope = envelope;
        s
    }
}

impl Reducer for QuantileSketch {
    type Item = f64;

    fn identity(&self) -> Self {
        QuantileSketch::new(self.alpha)
    }

    fn absorb(&mut self, item: f64) {
        self.push(item);
    }

    /// # Panics
    ///
    /// Panics if the sketches were configured with different accuracies.
    fn merge(&mut self, other: Self) {
        assert!(self.alpha == other.alpha, "cannot merge quantile sketches of different accuracy");
        self.count += other.count;
        self.zero += other.zero;
        self.non_finite += other.non_finite;
        for (i, c) in other.pos {
            *self.pos.entry(i).or_insert(0) += c;
        }
        for (i, c) in other.neg {
            *self.neg.entry(i).or_insert(0) += c;
        }
        self.envelope.merge(other.envelope);
    }
}

/// [`Welford`], [`MinMax`], and a [`QuantileSketch`] bundled for one `f64`
/// stream — everything a scalar ensemble statistic needs, in `O(1)` memory
/// per statistic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalarStats {
    moments: Welford,
    /// The sketch also owns the exact min/max envelope.
    sketch: QuantileSketch,
}

impl ScalarStats {
    /// An empty accumulator with the default 1% quantile accuracy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of absorbed **finite** samples; non-finite samples are
    /// tallied in [`non_finite`](ScalarStats::non_finite) instead.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Number of absorbed non-finite (`NaN` or `±∞`) samples. They are
    /// excluded from every statistic (a single `NaN` would otherwise
    /// poison the mean of a 10⁵-trial sweep) and surfaced here so callers
    /// can report them.
    pub fn non_finite(&self) -> u64 {
        self.sketch.non_finite()
    }

    /// Sample mean over the finite samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Bessel-corrected sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.moments.sd()
    }

    /// Normal-approximation 95% confidence half-width for the mean.
    pub fn ci95(&self) -> f64 {
        self.moments.ci95()
    }

    /// Exact minimum (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.sketch.min()
    }

    /// Exact maximum (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.sketch.max()
    }

    /// Approximate `q`-quantile (see [`QuantileSketch::quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        self.sketch.quantile(q)
    }

    /// The underlying moment accumulator.
    pub fn moments(&self) -> &Welford {
        &self.moments
    }

    /// The underlying quantile sketch (which also owns the envelope).
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Rebuild the bundle from wire-decoded components.
    pub(crate) fn from_raw_parts(moments: Welford, sketch: QuantileSketch) -> Self {
        ScalarStats { moments, sketch }
    }
}

impl Reducer for ScalarStats {
    type Item = f64;

    fn identity(&self) -> Self {
        ScalarStats { moments: Welford::new(), sketch: self.sketch.identity() }
    }

    fn absorb(&mut self, item: f64) {
        // The sketch counts a non-finite item in its `non_finite` tally;
        // keep the moments in lockstep with the finite mass so `mean`
        // stays meaningful (and `count` consistent) whatever arrives.
        if item.is_finite() {
            self.moments.push(item);
        }
        self.sketch.push(item);
    }

    fn merge(&mut self, other: Self) {
        self.moments.merge(other.moments);
        self.sketch.merge(other.sketch);
    }
}

/// Ensemble statistics of one recorded round index: a [`Welford`] per
/// [`RoundRecord`] field plus min/max envelopes for the headline fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundIndexStats {
    /// The round numbers that landed at this index (all identical when
    /// every trial records on a common cadence from round 0).
    pub round: Welford,
    /// Rosenthal potential `Φ`.
    pub potential: Welford,
    /// Average latency `L_av`.
    pub l_av: Welford,
    /// Average ex-post latency `L+_av`.
    pub l_av_plus: Welford,
    /// Maximum latency of a used strategy.
    pub max_latency: Welford,
    /// Players migrating in the round ending here.
    pub migrations: Welford,
    /// Number of strategies in use.
    pub support: Welford,
    /// Unsatisfied fraction; only trials that recorded it count.
    pub unsatisfied_fraction: Welford,
    /// Potential envelope across trials.
    pub potential_env: MinMax,
    /// Average-latency envelope across trials.
    pub l_av_env: MinMax,
    /// Migration-count envelope across trials.
    pub migrations_env: MinMax,
}

impl RoundIndexStats {
    fn push(&mut self, r: &RoundRecord) {
        self.round.push(r.round as f64);
        self.potential.push(r.potential);
        self.l_av.push(r.l_av);
        self.l_av_plus.push(r.l_av_plus);
        self.max_latency.push(r.max_latency);
        self.migrations.push(r.migrations as f64);
        self.support.push(r.support as f64);
        if let Some(u) = r.unsatisfied_fraction {
            self.unsatisfied_fraction.push(u);
        }
        self.potential_env.push(r.potential);
        self.l_av_env.push(r.l_av);
        self.migrations_env.push(r.migrations as f64);
    }

    fn merge_with(&mut self, other: Self) {
        self.round.merge(other.round);
        self.potential.merge(other.potential);
        self.l_av.merge(other.l_av);
        self.l_av_plus.merge(other.l_av_plus);
        self.max_latency.merge(other.max_latency);
        self.migrations.merge(other.migrations);
        self.support.merge(other.support);
        self.unsatisfied_fraction.merge(other.unsatisfied_fraction);
        self.potential_env.merge(other.potential_env);
        self.l_av_env.merge(other.l_av_env);
        self.migrations_env.merge(other.migrations_env);
    }
}

/// Per-round-index ensemble statistics: the streamed replacement for
/// "collect every trajectory, then average".
///
/// Each absorbed item is one trial's recorded series (the output of a
/// [`RecordSeries`](crate::RecordSeries) observer); record `i` of every
/// trial lands in [`RoundIndexStats`] `i`. Trials that stop early simply
/// contribute to fewer indices — the per-index [`Welford::count`] says how
/// many trials reached that index. Indices align across trials when all
/// trials record on the same cadence from the same starting round (the
/// ensemble default). Caveat for `every > 1`: each trial's forced
/// stop-round record lands at its series' *last* index, so any index an
/// early-stopping trial ends at mixes that trial's stop round with other
/// trials' cadence round. Filter off-cadence records before absorbing
/// (e.g. via [`MapItem`] with `records.retain(|r| r.round % every == 0)`,
/// as the CLI's `--reduce mean` does) when every index must average one
/// exact round; [`RoundIndexStats::round`] exposes the blend otherwise.
///
/// Memory is `O(recorded_rounds)`, independent of the trial count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerRoundStats {
    rounds: Vec<RoundIndexStats>,
    trials: u64,
}

impl PerRoundStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of absorbed trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of round indices seen (the longest trial's record count).
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no trial was absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The statistics of every round index, in order.
    pub fn rounds(&self) -> &[RoundIndexStats] {
        &self.rounds
    }

    /// The statistics of round index `i`.
    pub fn get(&self, i: usize) -> Option<&RoundIndexStats> {
        self.rounds.get(i)
    }

    /// Rebuild the table from wire-decoded per-index statistics.
    pub(crate) fn from_raw_parts(trials: u64, rounds: Vec<RoundIndexStats>) -> Self {
        PerRoundStats { rounds, trials }
    }
}

impl Reducer for PerRoundStats {
    type Item = Vec<RoundRecord>;

    fn identity(&self) -> Self {
        PerRoundStats::new()
    }

    fn absorb(&mut self, item: Vec<RoundRecord>) {
        self.trials += 1;
        if self.rounds.len() < item.len() {
            self.rounds.resize(item.len(), RoundIndexStats::default());
        }
        for (slot, record) in self.rounds.iter_mut().zip(&item) {
            slot.push(record);
        }
    }

    fn merge(&mut self, other: Self) {
        self.trials += other.trials;
        if self.rounds.len() < other.rounds.len() {
            self.rounds.resize(other.rounds.len(), RoundIndexStats::default());
        }
        for (slot, theirs) in self.rounds.iter_mut().zip(other.rounds) {
            slot.merge_with(theirs);
        }
    }
}

/// Every [`StopReason`], in the order [`ConvergenceHistogram`] reports
/// them.
pub const STOP_REASONS: [StopReason; 5] = [
    StopReason::MaxRounds,
    StopReason::ImitationStable,
    StopReason::ApproxEquilibrium,
    StopReason::NashEquilibrium,
    StopReason::PotentialReached,
];

fn reason_slot(reason: StopReason) -> usize {
    match reason {
        StopReason::MaxRounds => 0,
        StopReason::ImitationStable => 1,
        StopReason::ApproxEquilibrium => 2,
        StopReason::NashEquilibrium => 3,
        StopReason::PotentialReached => 4,
    }
}

/// Convergence-round statistics of the trials that stopped for one
/// [`StopReason`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReasonStats {
    /// Moments of the convergence round.
    pub rounds: Welford,
    /// Exact round envelope.
    pub envelope: MinMax,
    /// Power-of-two histogram: bucket 0 counts runs stopping at round 0,
    /// bucket `k ≥ 1` counts rounds in `[2^(k−1), 2^k)`.
    buckets: Vec<u64>,
}

impl ReasonStats {
    fn push(&mut self, rounds: u64) {
        self.rounds.push(rounds as f64);
        self.envelope.push(rounds as f64);
        let bucket = if rounds == 0 { 0 } else { 64 - rounds.leading_zeros() as usize };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    fn merge_with(&mut self, other: Self) {
        self.rounds.merge(other.rounds);
        self.envelope.merge(other.envelope);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            *mine += theirs;
        }
    }

    /// Trials that stopped for this reason.
    pub fn count(&self) -> u64 {
        self.rounds.count()
    }

    /// The power-of-two bucket counts (see [`ReasonStats::bucket_range`]).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuild per-reason statistics from wire-decoded components.
    pub(crate) fn from_raw_parts(rounds: Welford, envelope: MinMax, buckets: Vec<u64>) -> Self {
        ReasonStats { rounds, envelope, buckets }
    }

    /// The half-open round range `[lo, hi)` that bucket `k` counts. The
    /// top bucket (`k = 64`) saturates its upper bound at `u64::MAX`
    /// instead of overflowing the shift, and is the one bucket that also
    /// counts `hi` itself: it covers every round ≥ 2⁶³ inclusive.
    pub fn bucket_range(k: usize) -> (u64, u64) {
        match k {
            0 => (0, 1),
            1..=63 => (1 << (k - 1), 1 << k),
            _ => (1u64 << 63, u64::MAX),
        }
    }
}

/// Histogram of convergence rounds keyed by [`StopReason`] — which
/// conditions fired across an ensemble, and after how many rounds.
///
/// Absorbs [`RunSummary`] items (pair it with the
/// [`FinalSummary`](crate::FinalSummary) observer; recording can stay
/// disabled). All merges are exact, so this reducer is associative to the
/// bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceHistogram {
    per_reason: [ReasonStats; 5],
}

impl ConvergenceHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of absorbed trials.
    pub fn total(&self) -> u64 {
        self.per_reason.iter().map(ReasonStats::count).sum()
    }

    /// The statistics of one stop reason.
    pub fn reason(&self, reason: StopReason) -> &ReasonStats {
        &self.per_reason[reason_slot(reason)]
    }

    /// Iterate the non-empty `(reason, stats)` groups in
    /// [`STOP_REASONS`] order.
    pub fn observed(&self) -> impl Iterator<Item = (StopReason, &ReasonStats)> {
        STOP_REASONS
            .into_iter()
            .map(|r| (r, &self.per_reason[reason_slot(r)]))
            .filter(|(_, s)| s.count() > 0)
    }

    /// The per-reason slots in [`STOP_REASONS`] order (the wire layout).
    pub(crate) fn raw_parts(&self) -> &[ReasonStats; 5] {
        &self.per_reason
    }

    /// Rebuild a histogram from wire-decoded per-reason statistics.
    pub(crate) fn from_raw_parts(per_reason: [ReasonStats; 5]) -> Self {
        ConvergenceHistogram { per_reason }
    }
}

impl Reducer for ConvergenceHistogram {
    type Item = RunSummary;

    fn identity(&self) -> Self {
        ConvergenceHistogram::new()
    }

    fn absorb(&mut self, item: RunSummary) {
        self.per_reason[reason_slot(item.reason)].push(item.rounds);
    }

    fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.per_reason.iter_mut().zip(other.per_reason) {
            mine.merge_with(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: u64, potential: f64, migrations: u64) -> RoundRecord {
        RoundRecord {
            round,
            potential,
            l_av: potential / 10.0,
            l_av_plus: potential / 9.0,
            max_latency: potential,
            migrations,
            support: 2,
            unsatisfied_fraction: Some(0.5),
            shock: false,
        }
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_singleton() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert!(w.variance().is_nan());
        let mut w = Welford::new();
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.ci95(), 0.0);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut seq = Welford::new();
        for &x in &xs {
            seq.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-12);
        assert!((a.variance() - seq.variance()).abs() < 1e-9);
        // Merging an empty side is the identity, bit for bit.
        let mut c = seq;
        c.merge(Welford::new());
        assert_eq!(c, seq);
        let mut d = Welford::new();
        d.merge(seq);
        assert_eq!(d, seq);
    }

    #[test]
    fn minmax_envelope() {
        let mut m = MinMax::new();
        assert!(m.is_empty());
        m.push(3.0);
        m.push(-1.0);
        let mut other = MinMax::new();
        other.push(7.0);
        m.merge(other);
        assert_eq!((m.min(), m.max()), (-1.0, 7.0));
    }

    #[test]
    fn quantile_sketch_bounded_relative_error() {
        let mut s = QuantileSketch::new(0.01);
        let n = 10_000;
        for i in 1..=n {
            s.push(i as f64);
        }
        assert_eq!(s.count(), n);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let exact = 1.0 + q * (n - 1) as f64;
            let got = s.quantile(q);
            assert!(
                (got - exact).abs() <= 0.011 * exact + 1.0,
                "q={q}: sketch {got} vs exact {exact}"
            );
        }
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), n as f64);
    }

    #[test]
    fn quantile_sketch_handles_signs_and_zero() {
        let mut s = QuantileSketch::default();
        for x in [-100.0, -1.0, 0.0, 0.0, 1.0, 100.0] {
            s.push(x);
        }
        assert!(s.quantile(0.0) <= -99.0);
        assert_eq!(s.median().abs(), 0.0);
        assert!(s.quantile(1.0) >= 99.0);
    }

    /// The boundary quantiles are exact, not bucket representatives: the
    /// envelope tracks min/max precisely, so `quantile(0.0)`/`quantile(1.0)`
    /// must return them bit for bit — for any sign mix.
    #[test]
    fn quantile_sketch_boundaries_are_exact_min_and_max() {
        let mut mixed = QuantileSketch::default();
        for x in [-37.5, -2.25, 0.0, 1.125, 96.0625] {
            mixed.push(x);
        }
        assert_eq!(mixed.quantile(0.0), -37.5);
        assert_eq!(mixed.quantile(1.0), 96.0625);
        // A single sample: both boundaries are that sample exactly.
        let mut one = QuantileSketch::default();
        one.push(-3.75);
        assert_eq!((one.quantile(0.0), one.quantile(1.0)), (-3.75, -3.75));
    }

    /// All-negative samples: the top quantile must be the (negative)
    /// maximum, not a positive-bucket fallthrough, and the bottom must be
    /// the exact minimum rather than its bucket's representative.
    #[test]
    fn quantile_sketch_all_negative_samples() {
        let mut s = QuantileSketch::default();
        for x in [-80.0, -40.0, -20.0, -10.0] {
            s.push(x);
        }
        assert_eq!(s.quantile(0.0), -80.0);
        assert_eq!(s.quantile(1.0), -10.0);
        let med = s.median();
        assert!(med < 0.0, "median of all-negative samples is negative, got {med}");
        assert!((-45.0..=-35.0).contains(&med), "median near -40, got {med}");
    }

    /// All-zero samples: every quantile is exactly 0.0 (the zero bucket is
    /// exact and the envelope is [0, 0]).
    #[test]
    fn quantile_sketch_all_zero_samples() {
        let mut s = QuantileSketch::default();
        for _ in 0..5 {
            s.push(0.0);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(s.quantile(q), 0.0, "q={q}");
        }
    }

    /// One NaN latency in a huge sweep must not abort the run (the sketch
    /// used to `assert!(x.is_finite())`): non-finite samples land in a
    /// dedicated merge-compatible tally and quantiles stay defined over
    /// the finite mass.
    #[test]
    fn quantile_sketch_tallies_non_finite_instead_of_panicking() {
        let mut s = QuantileSketch::default();
        for x in [1.0, f64::NAN, 2.0, f64::INFINITY, 3.0, f64::NEG_INFINITY] {
            s.push(x);
        }
        assert_eq!(s.count(), 3, "count is the finite mass");
        assert_eq!(s.non_finite(), 3);
        assert_eq!((s.min(), s.max()), (1.0, 3.0), "envelope ignores non-finite samples");
        let q = s.median();
        assert!(q.is_finite() && (q - 2.0).abs() <= 0.03, "median over finite mass, got {q}");
        // The tally merges exactly, like the integer buckets.
        let mut other = QuantileSketch::default();
        other.push(f64::NAN);
        other.push(4.0);
        s.merge(other);
        assert_eq!((s.count(), s.non_finite()), (4, 4));
    }

    #[test]
    fn scalar_stats_keeps_moments_over_the_finite_mass() {
        let mut s = ScalarStats::new();
        for x in [1.0, f64::NAN, 3.0] {
            s.absorb(x);
        }
        assert_eq!(s.count(), 2);
        assert_eq!(s.non_finite(), 1);
        assert!((s.mean() - 2.0).abs() < 1e-12, "one NaN must not poison the mean");
        assert_eq!((s.min(), s.max()), (1.0, 3.0));
    }

    #[test]
    fn quantile_sketch_merge_is_exact() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let mut whole = QuantileSketch::default();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = QuantileSketch::default();
        let mut right = QuantileSketch::default();
        for &x in &xs[..200] {
            left.push(x);
        }
        for &x in &xs[200..] {
            right.push(x);
        }
        left.merge(right);
        assert_eq!(left, whole, "sketch merges must be exact");
    }

    #[test]
    fn scalar_stats_bundle() {
        let mut s = ScalarStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.absorb(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!((s.min(), s.max()), (1.0, 4.0));
        assert!((s.quantile(0.5) - 2.5).abs() < 1.0);
    }

    #[test]
    fn per_round_stats_aligns_indices() {
        let mut p = PerRoundStats::new();
        p.absorb(vec![rec(0, 10.0, 0), rec(1, 8.0, 4)]);
        p.absorb(vec![rec(0, 12.0, 0)]); // early stop: index 1 missing
        assert_eq!(p.trials(), 2);
        assert_eq!(p.len(), 2);
        let r0 = p.get(0).unwrap();
        assert_eq!(r0.potential.count(), 2);
        assert!((r0.potential.mean() - 11.0).abs() < 1e-12);
        assert_eq!((r0.potential_env.min(), r0.potential_env.max()), (10.0, 12.0));
        let r1 = p.get(1).unwrap();
        assert_eq!(r1.potential.count(), 1);
        assert_eq!(r1.migrations.mean(), 4.0);
    }

    #[test]
    fn per_round_stats_merge_extends() {
        let mut a = PerRoundStats::new();
        a.absorb(vec![rec(0, 10.0, 0)]);
        let mut b = PerRoundStats::new();
        b.absorb(vec![rec(0, 20.0, 0), rec(1, 15.0, 3)]);
        a.merge(b);
        assert_eq!(a.trials(), 2);
        assert_eq!(a.len(), 2);
        assert!((a.get(0).unwrap().potential.mean() - 15.0).abs() < 1e-12);
        assert_eq!(a.get(1).unwrap().potential.count(), 1);
    }

    #[test]
    fn convergence_histogram_buckets() {
        let mut h = ConvergenceHistogram::new();
        for rounds in [0u64, 1, 2, 3, 900] {
            h.absorb(RunSummary { reason: StopReason::ImitationStable, rounds, potential: 0.0 });
        }
        h.absorb(RunSummary { reason: StopReason::MaxRounds, rounds: 1000, potential: 0.0 });
        assert_eq!(h.total(), 6);
        let s = h.reason(StopReason::ImitationStable);
        assert_eq!(s.count(), 5);
        assert_eq!(s.buckets()[0], 1); // round 0
        assert_eq!(s.buckets()[1], 1); // round 1
        assert_eq!(s.buckets()[2], 2); // rounds 2–3
        assert_eq!(s.buckets()[10], 1); // 900 ∈ [512, 1024)
        assert_eq!(ReasonStats::bucket_range(10), (512, 1024));
        // The top bucket saturates instead of overflowing the shift.
        assert_eq!(ReasonStats::bucket_range(64), (1 << 63, u64::MAX));
        assert_eq!(h.observed().count(), 2);
        let mut other = ConvergenceHistogram::new();
        other.absorb(RunSummary { reason: StopReason::MaxRounds, rounds: 7, potential: 0.0 });
        h.merge(other);
        assert_eq!(h.reason(StopReason::MaxRounds).count(), 2);
    }

    #[test]
    fn vec_and_tuple_and_map_reducers_compose() {
        let mut v: Vec<u32> = Vec::new().identity();
        v.absorb(1);
        v.merge(vec![2, 3]);
        assert_eq!(v, vec![1, 2, 3]);

        let mut pair = (Welford::new(), MinMax::new());
        pair.absorb(2.0);
        pair.absorb(4.0);
        let mut other = pair.identity();
        other.absorb(9.0);
        pair.merge(other);
        assert_eq!(pair.0.count(), 3);
        assert_eq!(pair.1.max(), 9.0);

        let mut mapped = MapItem::new(|s: RunSummary| s.rounds as f64, Welford::new());
        mapped.absorb(RunSummary { reason: StopReason::MaxRounds, rounds: 10, potential: 0.0 });
        let mut part = mapped.identity();
        part.absorb(RunSummary { reason: StopReason::MaxRounds, rounds: 20, potential: 0.0 });
        mapped.merge(part);
        assert_eq!(mapped.inner().count(), 2);
        assert!((mapped.into_inner().mean() - 15.0).abs() < 1e-12);
    }
}
