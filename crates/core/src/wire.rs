//! Versioned wire encoding for reducer partials — the cross-process leg
//! of [`Ensemble::run_reduced`](crate::Ensemble::run_reduced).
//!
//! A distributed sweep shards its trials across processes; each shard
//! reduces its slice online and ships the resulting partials to a merger.
//! For the merged result to be **byte-identical** to a single-process
//! `run_reduced`, two things must survive the trip:
//!
//! 1. **Bits.** Every `f64` travels as its IEEE-754 bit pattern
//!    ([`f64::to_bits`], little-endian), never through decimal text, so
//!    `encode → decode` is the identity on every accumulator.
//! 2. **The merge tree.** Floating-point merges (Welford/Chan) are *not*
//!    bitwise associative, so a shard cannot pre-merge its blocks into one
//!    partial without changing the final bits. The unit on the wire is
//!    therefore the **reduction-tree leaf**: one partial per fixed
//!    [`REDUCE_BLOCK`](crate::REDUCE_BLOCK)-trial block, exactly the
//!    leaves `run_reduced` produces. The merger replays
//!    [`merge_partials`](crate::merge_partials) over all shards' leaves in
//!    global block order — the same left-deep chain the single process
//!    walks — and lands on the same bits.
//!
//! # Frame layout (version 3)
//!
//! A shard file is:
//!
//! ```text
//! magic        8 bytes  b"CGSHARD\0"
//! version      u32      WIRE_VERSION (readers reject anything else)
//! base_seed    u64      the sweep's base seed (per-trial seeds derive
//!                       from split_seed(base_seed, trial))
//! trials       u64      total trials of the *whole* sweep
//! trial_lo/hi  u64 ×2   this shard's half-open global trial range
//! shard        u32      this shard's index
//! num_shards   u32      total shard count
//! rng_mode     u8       RngMode::code() — the backend every trial drew
//!                       from (0 = xoshiro, 1 = counter); shards of one
//!                       merge must agree
//! reducer_id   string   stable reducer identifier incl. configuration
//! config       string   free-form run-configuration digest
//! checksum     u64      FNV-1a 64 over the payload bytes
//! payload_len  u64
//! payload:     u32 block count, then per block: u32 frame length +
//!              frame bytes (one encoded reducer partial)
//! ```
//!
//! Strings are `u64` length + UTF-8 bytes; all integers little-endian.
//! Every multi-element field is length-prefixed, so a truncated file fails
//! with a precise [`WireError::Truncated`] instead of misparsing, and a
//! flipped payload byte fails the checksum before any partial is decoded.
//!
//! # Payloads
//!
//! A frame carries one partial of a [`WireReduce`] reducer: [`Welford`],
//! [`MinMax`], [`QuantileSketch`], [`ScalarStats`], [`PerRoundStats`],
//! [`ConvergenceHistogram`], a [`MapItem`] over one of them, or a pair of
//! such reducers. The CLI writes three of these shapes: `--reduce mean` is
//! `MapItem` over `PerRoundStats`, `--reduce quantiles` a pair of
//! `MapItem`s over `ScalarStats`, and `--reduce convergence` a
//! `ConvergenceHistogram`. The materializing `Vec<T>` reducer has no
//! encoding, so no shard file carries raw per-trial items.
//!
//! # Versioning rules
//!
//! [`WIRE_VERSION`] bumps whenever any encoding in this module changes
//! shape or meaning (including any [`WireReduce::wire_id`] payload
//! layout). Readers reject other versions outright — partials are
//! short-lived transport between equal-version processes, not an archival
//! format, so no cross-version migration is attempted. The `reducer_id`
//! carries statistical configuration (e.g. the sketch accuracy `α`), so
//! merging partials reduced under different configurations is rejected
//! up front with [`WireError::ReducerMismatch`].

use std::collections::BTreeMap;

use congames_sampling::RngMode;

use crate::reduce::{
    ConvergenceHistogram, MapItem, MinMax, PerRoundStats, QuantileSketch, ReasonStats, Reducer,
    RoundIndexStats, ScalarStats, Welford,
};

/// Version tag written into (and required from) every shard file.
/// Version 2 added the `rng_mode` header byte; version 3 added the
/// per-record `shock` flag (nonstationary scenarios).
pub const WIRE_VERSION: u32 = 3;

/// Magic bytes opening every shard file.
pub const MAGIC: [u8; 8] = *b"CGSHARD\0";

/// Why a shard file (or a partial inside one) was rejected. Every variant
/// renders a precise, distinct message — a corrupt byte, a truncated
/// download, a wrong-seed mix-up, and a version skew all look different.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The buffer ended in the middle of the named field.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The file does not open with [`MAGIC`].
    BadMagic,
    /// The file was written by a different (incompatible) format version.
    UnsupportedVersion {
        /// The version tag found in the file.
        found: u32,
    },
    /// The payload hash does not match the header checksum.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload actually read.
        computed: u64,
    },
    /// The file carries partials of a different reducer (or the same
    /// reducer under a different statistical configuration).
    ReducerMismatch {
        /// The merger's reducer id.
        expected: String,
        /// The id found in the file.
        found: String,
    },
    /// Shard files disagree on the base seed — they come from different
    /// sweeps, and merging them would silently blend unrelated streams.
    SeedMismatch {
        /// Seed of the first file.
        expected: u64,
        /// Seed of the offending file.
        found: u64,
    },
    /// A shard file was produced with a different run configuration.
    ConfigMismatch {
        /// The offending shard index.
        shard: u32,
    },
    /// Shard files were produced under different RNG backends — their
    /// trials drew from unrelated streams, so merging them would not
    /// reproduce any single-process sweep.
    RngModeMismatch {
        /// The offending shard index.
        shard: u32,
        /// Mode of the first file.
        expected: RngMode,
        /// Mode of the offending file.
        found: RngMode,
    },
    /// Bytes remained after the declared end of the file.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A structurally invalid field (bad UTF-8, an out-of-range tag, a
    /// frame that decoded to the wrong length, …).
    Malformed {
        /// What was malformed.
        context: &'static str,
    },
    /// The shard files do not line up into one contiguous, in-order
    /// cover of the sweep's trial range.
    ShardSequence {
        /// Precise description of the first inconsistency.
        detail: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { context } => {
                write!(f, "truncated shard data while reading {context}")
            }
            WireError::BadMagic => write!(f, "not a congames shard file (bad magic)"),
            WireError::UnsupportedVersion { found } => write!(
                f,
                "unsupported shard format version {found} (this build reads version \
                 {WIRE_VERSION})"
            ),
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "payload checksum mismatch: header says {stored:#018x} but the payload hashes \
                 to {computed:#018x} (corrupt or tampered shard file)"
            ),
            WireError::ReducerMismatch { expected, found } => {
                write!(f, "reducer mismatch: merging `{expected}` but the file carries `{found}`")
            }
            WireError::SeedMismatch { expected, found } => write!(
                f,
                "base-seed mismatch: merging a sweep with seed {expected} but the file was \
                 produced with seed {found}"
            ),
            WireError::ConfigMismatch { shard } => write!(
                f,
                "shard {shard} was produced with a different run configuration than the first \
                 shard file"
            ),
            WireError::RngModeMismatch { shard, expected, found } => write!(
                f,
                "rng-mode mismatch: shard {shard} was produced under `--rng {found}` but the \
                 first shard file used `--rng {expected}`"
            ),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the shard payload")
            }
            WireError::Malformed { context } => write!(f, "malformed shard data: {context}"),
            WireError::ShardSequence { detail } => write!(f, "invalid shard sequence: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Byte-level primitives
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    // Bits, not decimals: the round trip must be the identity.
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over an encoded buffer. Every read names what
/// it was reading, so truncation errors are precise.
#[derive(Debug)]
pub struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireCursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The absolute read position.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().expect("8 bytes")))
    }

    fn i32(&mut self, context: &'static str) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// A `u64` length that must also fit `usize` and the remaining buffer
    /// (so a corrupt length cannot drive a huge allocation).
    fn len(&mut self, context: &'static str) -> Result<usize, WireError> {
        let n = self.u64(context)?;
        let n = usize::try_from(n).map_err(|_| WireError::Malformed { context })?;
        if n > self.remaining() {
            return Err(WireError::Truncated { context });
        }
        Ok(n)
    }

    fn str(&mut self, context: &'static str) -> Result<String, WireError> {
        let n = self.len(context)?;
        let bytes = self.take(n, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed { context })
    }
}

/// FNV-1a 64-bit: tiny, dependency-free, and plenty to catch the flipped
/// bytes and short reads this format defends against (it is corruption
/// detection, not cryptographic integrity).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// WireReduce: the extension trait
// ---------------------------------------------------------------------------

/// A [`Reducer`] whose partials have a stable wire encoding.
///
/// `encode_partial → decode_partial` must be the identity on the
/// accumulator, bit for bit — every `f64` travels as its bit pattern.
/// `decode_partial` takes `self` as the **configuration prototype**: wire
/// payloads carry data (counts, moments, buckets), while configuration
/// that cannot ride the wire (a `MapItem` projection) or must agree with
/// the merger (a sketch's `α`) comes from the prototype, which is
/// typically `reducer.identity()` on the merging side.
pub trait WireReduce: Reducer {
    /// Stable identifier of this reducer's payload shape, including any
    /// statistical configuration. Mismatched ids are rejected before any
    /// payload is decoded.
    fn wire_id(&self) -> String;

    /// Append this partial's payload to `out`.
    fn encode_partial(&self, out: &mut Vec<u8>);

    /// Decode one partial, using `self` as the configuration prototype.
    fn decode_partial(&self, cur: &mut WireCursor<'_>) -> Result<Self, WireError>;
}

impl WireReduce for Welford {
    fn wire_id(&self) -> String {
        "welford".into()
    }

    fn encode_partial(&self, out: &mut Vec<u8>) {
        let (count, mean, m2) = self.raw_parts();
        put_u64(out, count);
        put_f64(out, mean);
        put_f64(out, m2);
    }

    fn decode_partial(&self, cur: &mut WireCursor<'_>) -> Result<Self, WireError> {
        let count = cur.u64("welford count")?;
        let mean = cur.f64("welford mean")?;
        let m2 = cur.f64("welford m2")?;
        Ok(Welford::from_raw_parts(count, mean, m2))
    }
}

impl WireReduce for MinMax {
    fn wire_id(&self) -> String {
        "minmax".into()
    }

    fn encode_partial(&self, out: &mut Vec<u8>) {
        put_f64(out, self.min());
        put_f64(out, self.max());
    }

    fn decode_partial(&self, cur: &mut WireCursor<'_>) -> Result<Self, WireError> {
        let min = cur.f64("minmax min")?;
        let max = cur.f64("minmax max")?;
        Ok(MinMax::from_raw_parts(min, max))
    }
}

fn encode_bucket_map(out: &mut Vec<u8>, map: &BTreeMap<i32, u64>) {
    put_u64(out, map.len() as u64);
    for (&k, &c) in map {
        put_i32(out, k);
        put_u64(out, c);
    }
}

fn decode_bucket_map(cur: &mut WireCursor<'_>) -> Result<BTreeMap<i32, u64>, WireError> {
    let n = cur.u64("sketch bucket count")?;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let k = cur.i32("sketch bucket key")?;
        let c = cur.u64("sketch bucket tally")?;
        if map.insert(k, c).is_some() {
            return Err(WireError::Malformed { context: "duplicate sketch bucket key" });
        }
    }
    Ok(map)
}

impl WireReduce for QuantileSketch {
    fn wire_id(&self) -> String {
        // α is statistical configuration: partials sketched at different
        // accuracies must not merge, so it is part of the identity.
        format!("qsketch(alpha={})", self.alpha())
    }

    fn encode_partial(&self, out: &mut Vec<u8>) {
        let (count, zero, non_finite, pos, neg, envelope) = self.raw_parts();
        put_f64(out, self.alpha());
        put_u64(out, count);
        put_u64(out, zero);
        put_u64(out, non_finite);
        encode_bucket_map(out, pos);
        encode_bucket_map(out, neg);
        envelope.encode_partial(out);
    }

    fn decode_partial(&self, cur: &mut WireCursor<'_>) -> Result<Self, WireError> {
        let alpha = cur.f64("sketch alpha")?;
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(WireError::Malformed { context: "sketch alpha outside (0, 1)" });
        }
        if alpha.to_bits() != self.alpha().to_bits() {
            return Err(WireError::ReducerMismatch {
                expected: self.wire_id(),
                found: format!("qsketch(alpha={alpha})"),
            });
        }
        let count = cur.u64("sketch count")?;
        let zero = cur.u64("sketch zero tally")?;
        let non_finite = cur.u64("sketch non-finite tally")?;
        let pos = decode_bucket_map(cur)?;
        let neg = decode_bucket_map(cur)?;
        let envelope = MinMax::new().decode_partial(cur)?;
        Ok(QuantileSketch::from_raw_parts(alpha, count, zero, non_finite, pos, neg, envelope))
    }
}

impl WireReduce for ScalarStats {
    fn wire_id(&self) -> String {
        format!("scalar-stats[{}]", self.sketch().wire_id())
    }

    fn encode_partial(&self, out: &mut Vec<u8>) {
        self.moments().encode_partial(out);
        self.sketch().encode_partial(out);
    }

    fn decode_partial(&self, cur: &mut WireCursor<'_>) -> Result<Self, WireError> {
        let moments = self.moments().decode_partial(cur)?;
        let sketch = self.sketch().decode_partial(cur)?;
        Ok(ScalarStats::from_raw_parts(moments, sketch))
    }
}

fn encode_round_index_stats(out: &mut Vec<u8>, s: &RoundIndexStats) {
    s.round.encode_partial(out);
    s.potential.encode_partial(out);
    s.l_av.encode_partial(out);
    s.l_av_plus.encode_partial(out);
    s.max_latency.encode_partial(out);
    s.migrations.encode_partial(out);
    s.support.encode_partial(out);
    s.unsatisfied_fraction.encode_partial(out);
    s.potential_env.encode_partial(out);
    s.l_av_env.encode_partial(out);
    s.migrations_env.encode_partial(out);
}

fn decode_round_index_stats(cur: &mut WireCursor<'_>) -> Result<RoundIndexStats, WireError> {
    let w = Welford::new();
    let m = MinMax::new();
    Ok(RoundIndexStats {
        round: w.decode_partial(cur)?,
        potential: w.decode_partial(cur)?,
        l_av: w.decode_partial(cur)?,
        l_av_plus: w.decode_partial(cur)?,
        max_latency: w.decode_partial(cur)?,
        migrations: w.decode_partial(cur)?,
        support: w.decode_partial(cur)?,
        unsatisfied_fraction: w.decode_partial(cur)?,
        potential_env: m.decode_partial(cur)?,
        l_av_env: m.decode_partial(cur)?,
        migrations_env: m.decode_partial(cur)?,
    })
}

impl WireReduce for PerRoundStats {
    fn wire_id(&self) -> String {
        "per-round-stats".into()
    }

    fn encode_partial(&self, out: &mut Vec<u8>) {
        put_u64(out, self.trials());
        put_u64(out, self.rounds().len() as u64);
        for s in self.rounds() {
            encode_round_index_stats(out, s);
        }
    }

    fn decode_partial(&self, cur: &mut WireCursor<'_>) -> Result<Self, WireError> {
        let trials = cur.u64("per-round trials")?;
        let n = cur.u64("per-round index count")?;
        // Each index is ≥ 8 Welfords + 3 envelopes = 216 bytes: bound the
        // allocation by what the buffer can actually hold.
        if n > (cur.remaining() / 216) as u64 {
            return Err(WireError::Truncated { context: "per-round index table" });
        }
        let mut rounds = Vec::with_capacity(n as usize);
        for _ in 0..n {
            rounds.push(decode_round_index_stats(cur)?);
        }
        Ok(PerRoundStats::from_raw_parts(trials, rounds))
    }
}

fn encode_reason_stats(out: &mut Vec<u8>, s: &ReasonStats) {
    s.rounds.encode_partial(out);
    s.envelope.encode_partial(out);
    put_u64(out, s.buckets().len() as u64);
    for &b in s.buckets() {
        put_u64(out, b);
    }
}

fn decode_reason_stats(cur: &mut WireCursor<'_>) -> Result<ReasonStats, WireError> {
    let rounds = Welford::new().decode_partial(cur)?;
    let envelope = MinMax::new().decode_partial(cur)?;
    let n = cur.u64("histogram bucket count")?;
    if n > 65 {
        // Power-of-two buckets over u64 rounds: at most 65 exist.
        return Err(WireError::Malformed { context: "histogram bucket count exceeds 65" });
    }
    let mut buckets = Vec::with_capacity(n as usize);
    for _ in 0..n {
        buckets.push(cur.u64("histogram bucket")?);
    }
    Ok(ReasonStats::from_raw_parts(rounds, envelope, buckets))
}

impl WireReduce for ConvergenceHistogram {
    fn wire_id(&self) -> String {
        "convergence-histogram".into()
    }

    fn encode_partial(&self, out: &mut Vec<u8>) {
        for s in self.raw_parts() {
            encode_reason_stats(out, s);
        }
    }

    fn decode_partial(&self, cur: &mut WireCursor<'_>) -> Result<Self, WireError> {
        let mut slots: [ReasonStats; 5] = Default::default();
        for slot in &mut slots {
            *slot = decode_reason_stats(cur)?;
        }
        Ok(ConvergenceHistogram::from_raw_parts(slots))
    }
}

impl<T, F: Fn(T) -> R::Item + Clone, R: WireReduce> WireReduce for MapItem<T, F, R> {
    fn wire_id(&self) -> String {
        // The projection is code, not data: two processes agree on it by
        // running the same configuration (enforced via the shard header's
        // config digest), not via the payload.
        format!("map({})", self.inner().wire_id())
    }

    fn encode_partial(&self, out: &mut Vec<u8>) {
        self.inner().encode_partial(out);
    }

    fn decode_partial(&self, cur: &mut WireCursor<'_>) -> Result<Self, WireError> {
        let inner = self.inner().decode_partial(cur)?;
        Ok(MapItem::new(self.project_fn().clone(), inner))
    }
}

impl<T: Clone, A, B> WireReduce for (A, B)
where
    A: WireReduce<Item = T>,
    B: WireReduce<Item = T>,
{
    fn wire_id(&self) -> String {
        format!("pair({},{})", self.0.wire_id(), self.1.wire_id())
    }

    fn encode_partial(&self, out: &mut Vec<u8>) {
        self.0.encode_partial(out);
        self.1.encode_partial(out);
    }

    fn decode_partial(&self, cur: &mut WireCursor<'_>) -> Result<Self, WireError> {
        Ok((self.0.decode_partial(cur)?, self.1.decode_partial(cur)?))
    }
}

// ---------------------------------------------------------------------------
// Shard files
// ---------------------------------------------------------------------------

/// The self-describing header of one shard's partial file: everything the
/// merger validates before any payload is decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHeader {
    /// Base seed of the sweep; per-trial seeds derive from
    /// `split_seed(base_seed, trial)`, so equal seeds mean equal streams.
    pub base_seed: u64,
    /// Total trials of the whole sweep (not just this shard).
    pub trials: u64,
    /// First global trial index this shard covers.
    pub trial_lo: u64,
    /// One past the last global trial index this shard covers.
    pub trial_hi: u64,
    /// This shard's index.
    pub shard: u32,
    /// Total number of shards in the sweep.
    pub num_shards: u32,
    /// RNG backend every trial of the sweep drew from.
    pub rng_mode: RngMode,
    /// [`WireReduce::wire_id`] of the reducer the payload carries.
    pub reducer_id: String,
    /// Free-form digest of the run configuration (game, protocol, stop
    /// rule, …). Merging requires byte-equal configs across shards.
    pub config: String,
}

/// Encode a complete shard file: header plus `blocks` — this shard's
/// reduction-tree leaves **in block order** (see the module docs for why
/// leaves, not a pre-merged partial, are what travels).
pub fn encode_shard_file<R: WireReduce>(header: &ShardHeader, blocks: &[R]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u32(&mut payload, blocks.len() as u32);
    let mut frame = Vec::new();
    for block in blocks {
        frame.clear();
        block.encode_partial(&mut frame);
        put_u32(&mut payload, frame.len() as u32);
        payload.extend_from_slice(&frame);
    }
    let mut out = Vec::with_capacity(payload.len() + 128);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, WIRE_VERSION);
    put_u64(&mut out, header.base_seed);
    put_u64(&mut out, header.trials);
    put_u64(&mut out, header.trial_lo);
    put_u64(&mut out, header.trial_hi);
    put_u32(&mut out, header.shard);
    put_u32(&mut out, header.num_shards);
    out.push(header.rng_mode.code());
    put_str(&mut out, &header.reducer_id);
    put_str(&mut out, &header.config);
    put_u64(&mut out, fnv1a64(&payload));
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Decode only the header of a shard file (no payload validation): how a
/// merger discovers which reducer a file carries before it can build the
/// matching prototype for [`decode_shard_file`].
pub fn decode_shard_header(bytes: &[u8]) -> Result<ShardHeader, WireError> {
    let mut cur = WireCursor::new(bytes);
    let magic = cur.take(8, "magic")?;
    if magic != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = cur.u32("format version")?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let base_seed = cur.u64("base seed")?;
    let trials = cur.u64("trial count")?;
    let trial_lo = cur.u64("trial range start")?;
    let trial_hi = cur.u64("trial range end")?;
    let shard = cur.u32("shard index")?;
    let num_shards = cur.u32("shard count")?;
    let rng_mode = RngMode::from_code(cur.u8("rng mode")?)
        .ok_or(WireError::Malformed { context: "unknown rng-mode code" })?;
    let reducer_id = cur.str("reducer id")?;
    let config = cur.str("config digest")?;
    if trial_lo > trial_hi || trial_hi > trials {
        return Err(WireError::Malformed { context: "shard trial range outside the sweep" });
    }
    Ok(ShardHeader {
        base_seed,
        trials,
        trial_lo,
        trial_hi,
        shard,
        num_shards,
        rng_mode,
        reducer_id,
        config,
    })
}

/// Decode and fully validate one shard file against the merger's reducer
/// `prototype`: magic, version, reducer id, payload checksum, and exact
/// frame lengths all have to line up, or a precise [`WireError`] says
/// which one did not.
pub fn decode_shard_file<R: WireReduce>(
    prototype: &R,
    bytes: &[u8],
) -> Result<(ShardHeader, Vec<R>), WireError> {
    let header = decode_shard_header(bytes)?;
    if header.reducer_id != prototype.wire_id() {
        return Err(WireError::ReducerMismatch {
            expected: prototype.wire_id(),
            found: header.reducer_id,
        });
    }
    // Re-walk to the payload: the header decoder consumed an unknown
    // number of string bytes, so reparse positionally.
    let mut cur = WireCursor::new(bytes);
    cur.take(8 + 4 + 8 * 4 + 4 + 4 + 1, "header")?;
    let _ = cur.str("reducer id")?;
    let _ = cur.str("config digest")?;
    let stored = cur.u64("payload checksum")?;
    let payload_len = cur.len("payload length")?;
    let payload_at = cur.position();
    let payload = cur.take(payload_len, "payload")?;
    if cur.remaining() > 0 {
        return Err(WireError::TrailingBytes { extra: cur.remaining() });
    }
    let computed = fnv1a64(payload);
    if computed != stored {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    let mut cur = WireCursor::new(bytes);
    cur.take(payload_at, "header")?;
    let blocks = cur.u32("block count")?;
    // The count is untrusted (FNV is no MAC: a forged payload can carry a
    // valid checksum). Every block needs at least its 4-byte frame length,
    // so bound the allocation by what the payload can actually hold.
    if blocks as usize > cur.remaining() / 4 {
        return Err(WireError::Truncated { context: "block table" });
    }
    let mut out = Vec::with_capacity(blocks as usize);
    for _ in 0..blocks {
        let frame_len = cur.u32("frame length")? as usize;
        let frame_end = cur.position() + frame_len;
        if frame_len > cur.remaining() {
            return Err(WireError::Truncated { context: "block frame" });
        }
        let partial = prototype.decode_partial(&mut cur)?;
        if cur.position() != frame_end {
            return Err(WireError::Malformed { context: "block frame length mismatch" });
        }
        out.push(partial);
    }
    if cur.position() != payload_at + payload_len {
        return Err(WireError::TrailingBytes { extra: payload_at + payload_len - cur.position() });
    }
    Ok((header, out))
}

/// Validate that `headers` (in the order the merger will replay them) form
/// one complete, in-order, same-sweep cover of `[0, trials)`: same seed,
/// same config, same reducer, shard `i` in file `i`, and contiguous trial
/// ranges. Returns the first inconsistency as a precise error.
pub fn validate_shard_sequence(headers: &[ShardHeader]) -> Result<(), WireError> {
    let Some(first) = headers.first() else {
        return Err(WireError::ShardSequence { detail: "no shard files given".into() });
    };
    if headers.len() != first.num_shards as usize {
        return Err(WireError::ShardSequence {
            detail: format!(
                "sweep was split into {} shards but {} file(s) were given",
                first.num_shards,
                headers.len()
            ),
        });
    }
    let mut expected_lo = 0u64;
    for (i, h) in headers.iter().enumerate() {
        if h.base_seed != first.base_seed {
            return Err(WireError::SeedMismatch { expected: first.base_seed, found: h.base_seed });
        }
        if h.rng_mode != first.rng_mode {
            return Err(WireError::RngModeMismatch {
                shard: h.shard,
                expected: first.rng_mode,
                found: h.rng_mode,
            });
        }
        if h.config != first.config {
            return Err(WireError::ConfigMismatch { shard: h.shard });
        }
        if h.reducer_id != first.reducer_id {
            return Err(WireError::ReducerMismatch {
                expected: first.reducer_id.clone(),
                found: h.reducer_id.clone(),
            });
        }
        if h.trials != first.trials || h.num_shards != first.num_shards {
            return Err(WireError::ShardSequence {
                detail: format!(
                    "file {i} describes a sweep of {} trials over {} shards, expected {} over {}",
                    h.trials, h.num_shards, first.trials, first.num_shards
                ),
            });
        }
        if h.shard != i as u32 {
            return Err(WireError::ShardSequence {
                detail: format!("file {i} carries shard {} — merge in shard order", h.shard),
            });
        }
        if h.trial_lo != expected_lo {
            return Err(WireError::ShardSequence {
                detail: format!(
                    "shard {} starts at trial {} but the previous shard ended at {}",
                    h.shard, h.trial_lo, expected_lo
                ),
            });
        }
        expected_lo = h.trial_hi;
    }
    if expected_lo != first.trials {
        return Err(WireError::ShardSequence {
            detail: format!(
                "shards cover trials up to {} of {} — a shard file is missing",
                expected_lo, first.trials
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> ShardHeader {
        ShardHeader {
            base_seed: 42,
            trials: 96,
            trial_lo: 0,
            trial_hi: 32,
            shard: 0,
            num_shards: 3,
            rng_mode: RngMode::Xoshiro,
            reducer_id: "welford".into(),
            config: "links=1,2;players=10".into(),
        }
    }

    fn sample_welford(xs: &[f64]) -> Welford {
        let mut w = Welford::new();
        for &x in xs {
            w.push(x);
        }
        w
    }

    #[test]
    fn welford_round_trips_bitwise() {
        let w = sample_welford(&[1.5, -2.25, 1e300, 3.0]);
        let mut buf = Vec::new();
        w.encode_partial(&mut buf);
        let got = Welford::new().decode_partial(&mut WireCursor::new(&buf)).unwrap();
        assert_eq!(got, w);
    }

    #[test]
    fn empty_envelope_round_trips_infinities() {
        let m = MinMax::new();
        let mut buf = Vec::new();
        m.encode_partial(&mut buf);
        let got = MinMax::new().decode_partial(&mut WireCursor::new(&buf)).unwrap();
        assert_eq!(got, m, "±∞ must survive the bit-level round trip");
    }

    #[test]
    fn shard_file_round_trips() {
        let blocks = vec![sample_welford(&[1.0, 2.0]), sample_welford(&[5.0])];
        let bytes = encode_shard_file(&sample_header(), &blocks);
        let (header, got) = decode_shard_file(&Welford::new(), &bytes).unwrap();
        assert_eq!(header, sample_header());
        assert_eq!(got, blocks);
    }

    #[test]
    fn header_peek_does_not_need_a_prototype() {
        let bytes = encode_shard_file(&sample_header(), &[sample_welford(&[1.0])]);
        assert_eq!(decode_shard_header(&bytes).unwrap(), sample_header());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_shard_file(&sample_header(), &[sample_welford(&[1.0])]);
        bytes[0] = b'X';
        assert_eq!(decode_shard_header(&bytes), Err(WireError::BadMagic));
    }

    #[test]
    fn wrong_version_is_rejected_with_the_found_version() {
        let mut bytes = encode_shard_file(&sample_header(), &[sample_welford(&[1.0])]);
        bytes[8] = 99;
        let err = decode_shard_header(&bytes).unwrap_err();
        assert_eq!(err, WireError::UnsupportedVersion { found: 99 });
        assert!(err.to_string().contains("version 99"));
    }

    #[test]
    fn truncation_names_the_missing_field() {
        let bytes = encode_shard_file(&sample_header(), &[sample_welford(&[1.0])]);
        let err = decode_shard_file(&Welford::new(), &bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err, WireError::Truncated { context: "payload length" });
        assert!(err.to_string().contains("truncated"));
        // Cutting into the header names the header field instead.
        let err = decode_shard_header(&bytes[..20]).unwrap_err();
        assert_eq!(err, WireError::Truncated { context: "trial count" });
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let mut bytes = encode_shard_file(&sample_header(), &[sample_welford(&[1.0, 2.0])]);
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        let err = decode_shard_file(&Welford::new(), &bytes).unwrap_err();
        assert!(matches!(err, WireError::ChecksumMismatch { .. }), "{err}");
        assert!(err.to_string().contains("checksum"));
    }

    /// Rewrite a shard file's payload in place and re-seal its checksum,
    /// as a forger would: the result passes every integrity check, so only
    /// the structural decoder stands between it and the merger.
    fn reseal(bytes: &mut [u8], edit: impl FnOnce(&mut [u8])) {
        let header = decode_shard_header(bytes).unwrap();
        let at = 8 + 4 + 8 * 4 + 4 + 4 + 1 + 8 + header.reducer_id.len() + 8 + header.config.len();
        let payload_at = at + 16;
        edit(&mut bytes[payload_at..]);
        let sum = fnv1a64(&bytes[payload_at..]);
        bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn forged_block_count_is_a_precise_error_not_an_abort() {
        let mut bytes = encode_shard_file(&sample_header(), &[sample_welford(&[1.0])]);
        reseal(&mut bytes, |payload| payload[..4].copy_from_slice(&u32::MAX.to_le_bytes()));
        let err = decode_shard_file(&Welford::new(), &bytes).unwrap_err();
        assert_eq!(err, WireError::Truncated { context: "block table" });
        // A count the payload could hold, but does not, fails on the
        // missing frame instead.
        let mut bytes = encode_shard_file(&sample_header(), &[sample_welford(&[1.0])]);
        reseal(&mut bytes, |payload| payload[..4].copy_from_slice(&2u32.to_le_bytes()));
        let err = decode_shard_file(&Welford::new(), &bytes).unwrap_err();
        assert_eq!(err, WireError::Truncated { context: "frame length" });
    }

    #[test]
    fn reducer_mismatch_names_both_sides() {
        let bytes = encode_shard_file(&sample_header(), &[sample_welford(&[1.0])]);
        let err = decode_shard_file(&MinMax::new(), &bytes).unwrap_err();
        assert_eq!(
            err,
            WireError::ReducerMismatch { expected: "minmax".into(), found: "welford".into() }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_shard_file(&sample_header(), &[sample_welford(&[1.0])]);
        bytes.extend_from_slice(b"junk");
        let err = decode_shard_file(&Welford::new(), &bytes).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes { extra: 4 });
    }

    #[test]
    fn shard_sequence_validation_is_precise() {
        let mut headers: Vec<ShardHeader> = (0..3)
            .map(|s| ShardHeader {
                shard: s,
                trial_lo: u64::from(s) * 32,
                trial_hi: u64::from(s + 1) * 32,
                ..sample_header()
            })
            .collect();
        assert_eq!(validate_shard_sequence(&headers), Ok(()));

        let mut wrong_seed = headers.clone();
        wrong_seed[1].base_seed = 7;
        assert_eq!(
            validate_shard_sequence(&wrong_seed),
            Err(WireError::SeedMismatch { expected: 42, found: 7 })
        );

        let mut out_of_order = headers.clone();
        out_of_order.swap(0, 1);
        assert!(matches!(
            validate_shard_sequence(&out_of_order),
            Err(WireError::ShardSequence { .. })
        ));

        let mut gap = headers.clone();
        gap[1].trial_lo = 33;
        let err = validate_shard_sequence(&gap).unwrap_err();
        assert!(err.to_string().contains("previous shard ended at 32"), "{err}");

        assert!(matches!(
            validate_shard_sequence(&headers[..2]),
            Err(WireError::ShardSequence { .. })
        ));

        headers[2].config = "different".into();
        assert_eq!(validate_shard_sequence(&headers), Err(WireError::ConfigMismatch { shard: 2 }));
    }

    #[test]
    fn sketch_alpha_mismatch_is_a_reducer_mismatch() {
        let mut fine = QuantileSketch::new(0.05);
        fine.push(2.0);
        let mut buf = Vec::new();
        fine.encode_partial(&mut buf);
        let err = QuantileSketch::new(0.01).decode_partial(&mut WireCursor::new(&buf)).unwrap_err();
        assert!(matches!(err, WireError::ReducerMismatch { .. }), "{err}");
    }
}
