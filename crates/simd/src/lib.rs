//! Vector kernels behind one runtime [`Dispatch`]: the counter-mode
//! Philox keystream swept across many counters ([`philox4x64_batch`], and
//! [`philox4x64_word0_batch`] when a caller reads only word 0), and the
//! player-level round's batch pass — the movable-site compaction
//! ([`compact_sites`]) and the pure-imitation decision
//! ([`imitation_decide`]). Each comes in a portable scalar arm and an
//! AVX-512 `std::arch` arm (eight Philox lanes per vector, gathers and
//! compress-stores), selected by runtime feature detection. All `unsafe`
//! code of the workspace's library crates lives in this crate's
//! `avx512` module.
//!
//! # Bit-identity contract
//!
//! Both arms of every operation produce **identical bits**:
//!
//! * **Integer ops are exact by construction** — the AVX-512 64×64→128
//!   multiply is decomposed into 32-bit partial products with full carry
//!   propagation, so the batched Philox blocks equal the scalar blocks
//!   word for word, and `u64` compares are value-exact.
//! * **Gathers and compress-stores move values**, and every index they
//!   use is checked against its slice (or bounded by a check the public
//!   wrapper made) before it is used, so the arms agree on every input,
//!   including the ones they reject with a panic.
//! * **The one float comparison** (the imitation test) converts each
//!   variate exactly and compares it with the same μ as the scalar arm.
//!
//! # Dispatch
//!
//! [`Dispatch::detect`] picks the AVX-512 arm where the CPU has `avx512f`
//! and the scalar arm everywhere else; [`Dispatch::global`] caches the
//! choice for the process. The environment variable `CONGAMES_SIMD`
//! overrides detection for testing: `CONGAMES_SIMD=scalar` forces the
//! fallback, `CONGAMES_SIMD=avx512` requests the vector arm (silently
//! degrading to scalar where the CPU lacks it), and `CONGAMES_SIMD=auto`
//! (or unset) detects. [`Dispatch::env_override`] is the one reading of
//! the variable; a front end rejects any other value with its error. Every
//! operation also takes the dispatch explicitly, so tests can run both
//! arms in one process and compare bits.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;

/// Environment variable overriding [`Dispatch::detect`]:
/// `scalar` | `avx512` | `auto`.
pub const DISPATCH_ENV: &str = "CONGAMES_SIMD";

/// Which arm of each vector operation to run. Both arms are bit-identical
/// (see the [module docs](self)); dispatch only selects the cost of
/// producing the bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Portable scalar loops — the reference arm, available everywhere.
    Scalar,
    /// AVX-512 loops (`avx512f`): the Philox keystream runs eight lanes
    /// per vector, the player round's batch pass gathers and
    /// compress-stores; ragged remainders run the scalar loop. Selecting
    /// this on a CPU without AVX-512 is safe: every operation re-checks
    /// availability and degrades to the scalar arm.
    Avx512,
}

impl Dispatch {
    /// The arm [`DISPATCH_ENV`] requests: `scalar` or `avx512`, or `None`
    /// (detect) when it is `auto` or unset. Any other value is an error
    /// that names the accepted ones.
    pub fn env_override() -> Result<Option<Dispatch>, String> {
        let Some(value) = std::env::var_os(DISPATCH_ENV) else {
            return Ok(None);
        };
        match value.to_str() {
            Some("scalar") => Ok(Some(Dispatch::Scalar)),
            Some("avx512") => Ok(Some(Dispatch::Avx512)),
            Some("auto") => Ok(None),
            _ => Err(format!(
                "{DISPATCH_ENV}={value:?} names no SIMD arm (one of scalar|avx512|auto)"
            )),
        }
    }

    /// Detect the arm to run, honoring the [`DISPATCH_ENV`] override
    /// (a value that names no arm falls back to detection; see
    /// [`Dispatch::env_override`] to reject it instead).
    #[inline]
    pub fn detect() -> Dispatch {
        Dispatch::env_override().ok().flatten().unwrap_or(Dispatch::Avx512).resolve()
    }

    /// The process-wide dispatch: [`Dispatch::detect`] run once and cached.
    #[inline]
    pub fn global() -> Dispatch {
        static GLOBAL: OnceLock<Dispatch> = OnceLock::new();
        *GLOBAL.get_or_init(Dispatch::detect)
    }

    /// Whether this arm can actually run on the current CPU.
    #[inline]
    pub fn is_available(self) -> bool {
        match self {
            Dispatch::Scalar => true,
            Dispatch::Avx512 => avx512_available(),
        }
    }

    /// Resolve this (possibly requested-but-unavailable) dispatch to an
    /// arm that is safe to execute on the current CPU: itself where it is
    /// available, scalar otherwise.
    #[inline]
    pub fn resolve(self) -> Dispatch {
        if self.is_available() {
            self
        } else {
            Dispatch::Scalar
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn avx512_available() -> bool {
    false
}

/// The Philox 4×64 round constants and round count, supplied by the
/// caller so the generator's pinned construction stays in one place
/// (`congames-sampling::counter`).
#[derive(Debug, Clone, Copy)]
pub struct PhiloxSpec {
    /// First round multiplier.
    pub m0: u64,
    /// Second round multiplier.
    pub m1: u64,
    /// Weyl increment of the first key word.
    pub w0: u64,
    /// Weyl increment of the second key word.
    pub w1: u64,
    /// Number of rounds.
    pub rounds: u32,
}

/// `rounds` full Philox rounds of `ctr` under `key`; returns the counter
/// words and the key the next round would use.
#[inline]
fn philox_rounds(
    spec: PhiloxSpec,
    mut key: [u64; 2],
    mut ctr: [u64; 4],
    rounds: u32,
) -> ([u64; 4], [u64; 2]) {
    for _ in 0..rounds {
        let wide0 = spec.m0 as u128 * ctr[0] as u128;
        let wide1 = spec.m1 as u128 * ctr[2] as u128;
        let (hi0, lo0) = ((wide0 >> 64) as u64, wide0 as u64);
        let (hi1, lo1) = ((wide1 >> 64) as u64, wide1 as u64);
        ctr = [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0];
        key[0] = key[0].wrapping_add(spec.w0);
        key[1] = key[1].wrapping_add(spec.w1);
    }
    (ctr, key)
}

#[inline]
fn philox_scalar(spec: PhiloxSpec, key: [u64; 2], ctr: [u64; 4]) -> [u64; 4] {
    philox_rounds(spec, key, ctr, spec.rounds).0
}

/// Word 0 of [`philox_scalar`]: every round but the last in full, then
/// only the last round's `M1·c2` high half, which is all word 0 reads.
#[inline]
fn philox_word0_scalar(spec: PhiloxSpec, key: [u64; 2], ctr: [u64; 4]) -> u64 {
    let Some(full) = spec.rounds.checked_sub(1) else {
        return ctr[0];
    };
    let (c, k) = philox_rounds(spec, key, ctr, full);
    (((spec.m1 as u128 * c[2] as u128) >> 64) as u64) ^ c[1] ^ k[0]
}

/// Rounds at whose start a multiplied counter word can still be the same
/// in every lane of a batch: one lane word reaches both multiplied words
/// (0 and 2) within three rounds.
const SHARED_ROUNDS: usize = 3;

/// The `(hi, lo)` halves of a 64×64→128 product.
type Wide = (u64, u64);

/// The Philox products that are the same in every lane of a batch. Only
/// the lane word differs between lanes, and a round's output word depends
/// on the lane word only if one of its inputs does, so at the start of
/// round `r < SHARED_ROUNDS` the products `M0·c0` and `M1·c2` may still be
/// lane-independent: `m0[r]` and `m1[r]` hold their `(hi, lo)` then. The
/// vector arm broadcasts these instead of multiplying every lane (four of
/// the first six products of an across-site or across-trial sweep), with
/// the same bits by construction.
#[derive(Debug, Clone, Copy)]
struct SharedProducts {
    m0: [Option<Wide>; SHARED_ROUNDS],
    m1: [Option<Wide>; SHARED_ROUNDS],
}

impl SharedProducts {
    /// Run the first rounds on the base counter, tracking which words are
    /// still lane-independent. The lane word's own value never reaches a
    /// lane-independent word, so the base counter's value there is
    /// irrelevant.
    fn new(spec: PhiloxSpec, key: [u64; 2], ctr: [u64; 4], lane_word: usize) -> Self {
        let wide = |m: u64, x: u64| -> Wide {
            let w = m as u128 * x as u128;
            ((w >> 64) as u64, w as u64)
        };
        let mut shared = SharedProducts { m0: [None; SHARED_ROUNDS], m1: [None; SHARED_ROUNDS] };
        let mut uniform = [true; 4];
        uniform[lane_word] = false;
        let (mut c, mut k) = (ctr, key);
        for r in 0..SHARED_ROUNDS.min(spec.rounds as usize) {
            shared.m0[r] = uniform[0].then(|| wide(spec.m0, c[0]));
            shared.m1[r] = uniform[2].then(|| wide(spec.m1, c[2]));
            let [u0, u1, u2, u3] = uniform;
            uniform = [u1 && u2, u2, u0 && u3, u0];
            (c, k) = philox_rounds(spec, k, c, 1);
        }
        shared
    }

    /// The lane-independent `(M0·c0, M1·c2)` products at the start of
    /// round `r`, where there are any.
    #[inline(always)]
    fn at(&self, r: usize) -> (Option<Wide>, Option<Wide>) {
        if r < SHARED_ROUNDS {
            (self.m0[r], self.m1[r])
        } else {
            (None, None)
        }
    }
}

/// Batched keyed Philox 4×64: `out[i]` is the output block of counter
/// `ctr` with word `lane_word` replaced by `lanes[i]` under `key` — one
/// call produces a block per lane for a shared address prefix. The lane
/// word is word 3 (trial) for an across-trial sweep of one site, and word 1
/// (site) for an across-site sweep of one trial. Bit-identical across arms
/// (integer construction).
///
/// # Panics
///
/// Panics if `out.len() != lanes.len()` or `lane_word > 3`.
#[inline]
pub fn philox4x64_batch(
    d: Dispatch,
    spec: PhiloxSpec,
    key: [u64; 2],
    ctr: [u64; 4],
    lane_word: usize,
    lanes: &[u64],
    out: &mut [[u64; 4]],
) {
    assert_eq!(out.len(), lanes.len(), "one output block per lane");
    assert!(lane_word < 4, "counter word {lane_word} out of range");
    let scalar_tail = |out: &mut [[u64; 4]], lanes: &[u64]| {
        for (o, &v) in out.iter_mut().zip(lanes) {
            let mut c = ctr;
            c[lane_word] = v;
            *o = philox_scalar(spec, key, c);
        }
    };
    match d.resolve() {
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 => {
            let n8 = lanes.len() & !7;
            avx512::philox4x64_batch(spec, key, ctr, lane_word, &lanes[..n8], &mut out[..n8]);
            scalar_tail(&mut out[n8..], &lanes[n8..]);
        }
        _ => scalar_tail(out, lanes),
    }
}

/// Word 0 of each lane's block: `out[i] == philox4x64_batch(..)[i][0]`
/// for the same arguments. Every round but the last runs in full; the
/// last computes only its `M1·c2` high half, the one product word 0
/// reads, and the vector arm stores each vector's word 0 directly, with
/// no transpose. A consumer that reads one word per lane (the pure
/// imitation player decision) pays for one word. Bit-identical across
/// arms (integer construction).
///
/// # Panics
///
/// Panics if `out.len() != lanes.len()` or `lane_word > 3`.
#[inline]
pub fn philox4x64_word0_batch(
    d: Dispatch,
    spec: PhiloxSpec,
    key: [u64; 2],
    ctr: [u64; 4],
    lane_word: usize,
    lanes: &[u64],
    out: &mut [u64],
) {
    assert_eq!(out.len(), lanes.len(), "one output word per lane");
    assert!(lane_word < 4, "counter word {lane_word} out of range");
    let scalar_tail = |out: &mut [u64], lanes: &[u64]| {
        for (o, &v) in out.iter_mut().zip(lanes) {
            let mut c = ctr;
            c[lane_word] = v;
            *o = philox_word0_scalar(spec, key, c);
        }
    };
    match d.resolve() {
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 => {
            let n8 = lanes.len() & !7;
            avx512::philox4x64_word0_batch(spec, key, ctr, lane_word, &lanes[..n8], &mut out[..n8]);
            scalar_tail(&mut out[n8..], &lanes[n8..]);
        }
        _ => scalar_tail(out, lanes),
    }
}

/// One class of a pure-imitation player round, as
/// [`imitation_decide`] reads it.
///
/// Player `i` of the class has site `start + i` and sits on global
/// strategy `players[i]`; the class's strategies are
/// `first .. first + strategies`. A player samples one of `pool` agents
/// by multiply-shift: draws below `real_pool` name a real player (with
/// `self_exclude`, draw `j ≥ i` names player `j + 1`, so nobody samples
/// themself), and the `pool − real_pool` draws above it name the virtual
/// agents of strategies `0, 1, …` in class-local order.
#[derive(Debug, Clone, Copy)]
pub struct ImitationClass<'a> {
    /// Every player's global strategy id, in site order.
    pub players: &'a [u32],
    /// Site of the class's first player.
    pub start: u64,
    /// Global id of the class's first strategy.
    pub first: u32,
    /// Strategies in the class.
    pub strategies: usize,
    /// Real agents a player samples from: the class size, less one under
    /// self-exclusion.
    pub real_pool: u64,
    /// `real_pool` plus one virtual agent per strategy when they are on.
    pub pool: u64,
    /// Whether a player's own draw is shifted past themself.
    pub self_exclude: bool,
}

impl ImitationClass<'_> {
    /// The checks both arms make before deciding anything, so that every
    /// index the decision computes stays in bounds: a sampled real agent
    /// `j ≤ real_pool − 1 + self_exclude` is a player, and a virtual
    /// agent `draw − real_pool < pool − real_pool` is a strategy.
    fn check(&self, sites: &[u64], words: &[u64], moves: &[(u64, u32)]) {
        assert_eq!(sites.len(), words.len(), "one word per site");
        assert!(moves.len() >= sites.len(), "room for every player to move");
        assert!(self.pool > 0, "an imitating player needs an agent to sample");
        assert!(
            self.real_pool <= self.pool
                && self.pool - self.real_pool <= self.strategies as u64
                && self
                    .real_pool
                    .checked_add(self.self_exclude as u64)
                    .is_some_and(|n| n <= self.players.len() as u64),
            "the sampling pool does not fit the class"
        );
        assert!(
            u32::try_from(self.strategies).is_ok_and(|s| self.first.checked_add(s).is_some()),
            "strategy ids must fit u32"
        );
    }
}

/// The uniform `[0, 1)` variate of a word: its top 53 bits, exactly as
/// `rand`'s `Rng::gen::<f64>` maps the same word.
#[inline(always)]
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Decide a chunk of a pure-imitation class's players from word 0 of
/// their Philox blocks: `words[i]` belongs to the player at `sites[i]`.
/// Each player's draw `pick · pool` (128-bit) samples an agent with its
/// high half and tests the migration with its low half's
/// [`unit_f64`]; the player moves to the agent's strategy iff that
/// variate is below `μ(from, to) = mu[from · strategies + to]` (class-local
/// ids). The movers are written to `moves` as `(site, global destination)`
/// in player order, and their count is returned.
///
/// The scalar arm is [`imitation_decide_with`] over the `mu` table; the
/// AVX-512 arm decides eight players per step: it gathers both strategies,
/// emulates the 64×64→128 product, applies self-exclusion and the
/// virtual-agent select as masks, gathers μ and compares it with the
/// exactly converted variate. Bit-identical across arms.
///
/// # Panics
///
/// Panics if `words` and `sites` differ in length, `moves` is shorter than
/// `sites`, the pool is empty or does not fit the class,
/// `mu.len() < strategies²`, a site lies outside the class, or a player's
/// strategy lies outside it.
#[inline]
pub fn imitation_decide(
    d: Dispatch,
    class: &ImitationClass<'_>,
    sites: &[u64],
    words: &[u64],
    mu: &[f64],
    moves: &mut [(u64, u32)],
) -> usize {
    let s = class.strategies;
    assert!(s.checked_mul(s).is_some_and(|n| mu.len() >= n), "one μ per strategy pair");
    match d.resolve() {
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 => avx512::imitation_decide(class, sites, words, mu, moves),
        _ => imitation_decide_with(class, sites, words, mu_in(mu, s), moves),
    }
}

/// `μ(from, to)` read from a dense `strategies × strategies` table, with
/// both ids checked against the class as the vector arm checks them.
#[inline(always)]
fn mu_in(mu: &[f64], strategies: usize) -> impl FnMut(usize, usize) -> f64 + '_ {
    move |from, to| {
        assert!(from < strategies && to < strategies, "a strategy lies outside the class");
        mu[from * strategies + to]
    }
}

/// The scalar arm of [`imitation_decide`] with μ from `mu_of(from, to)`
/// (class-local ids), called once per player in player order. Same
/// panics, less the `mu` table's.
pub fn imitation_decide_with(
    class: &ImitationClass<'_>,
    sites: &[u64],
    words: &[u64],
    mu_of: impl FnMut(usize, usize) -> f64,
    moves: &mut [(u64, u32)],
) -> usize {
    class.check(sites, words, moves);
    if class.pool != class.real_pool {
        decide_scalar::<true>(class, sites, words, mu_of, moves)
    } else {
        decide_scalar::<false>(class, sites, words, mu_of, moves)
    }
}

/// The body of [`imitation_decide_with`] for one pool shape: `VIRTUAL`
/// is whether the pool holds virtual agents. Out of line, so the loop
/// keeps its own registers.
///
/// Each group of 64 players is decided into a destination array and a
/// migration bitmask, and only then are the set bits written out: a
/// store whose address waits on the previous player's decision would
/// hold every later player's loads back.
#[inline(never)]
fn decide_scalar<const VIRTUAL: bool>(
    class: &ImitationClass<'_>,
    sites: &[u64],
    words: &[u64],
    mut mu_of: impl FnMut(usize, usize) -> f64,
    moves: &mut [(u64, u32)],
) -> usize {
    let ImitationClass { players, start, first, real_pool, pool, self_exclude, .. } = *class;
    let last = players.len().saturating_sub(1);
    let mut moved = 0;
    let mut dest = [0u32; 64];
    for (sites, words) in sites.chunks(64).zip(words.chunks(64)) {
        let mut migrating = 0u64;
        for (bit, ((&site, &pick), dest)) in sites.iter().zip(words).zip(&mut dest).enumerate() {
            let local = site.wrapping_sub(start) as usize;
            let player = players.get(local).expect("a site lies outside the class");
            let from = player.wrapping_sub(first) as usize;
            // The multiply-shift quotient samples the agent, the
            // remainder is the test variate.
            let wide = pick as u128 * pool as u128;
            let draw = (wide >> 64) as u64;
            let real = !VIRTUAL || draw < real_pool;
            let j = draw as usize + ((draw as usize >= local) & self_exclude) as usize;
            // A virtual draw names no player; its unused index stays in
            // bounds.
            let agent = players[if real { j } else { last }].wrapping_sub(first) as usize;
            let to = if real { agent } else { draw.wrapping_sub(real_pool) as usize };
            let mu = mu_of(from, to);
            *dest = first.wrapping_add(to as u32);
            migrating |= ((unit_f64(wide as u64) < mu) as u64) << bit;
        }
        while migrating != 0 {
            let bit = migrating.trailing_zeros() as usize;
            moves[moved] = (sites[bit], dest[bit]);
            moved += 1;
            migrating &= migrating - 1;
        }
    }
    moved
}

/// Compact the sites of the movable players of a class with at most 64
/// strategies: `out[..k]` receives `start + i`, in order, for every player
/// `i` whose class-local strategy `players[i] − first` has its bit set in
/// `movable`, and `k` is returned. The contents of `out[k..]` are
/// unspecified. The scalar arm writes every player's slot and advances
/// past the movable ones (no branch); the AVX-512 arm tests sixteen
/// players per step against the bitmask and compress-stores their sites.
///
/// # Panics
///
/// Panics if `out` is shorter than `players`.
#[inline]
pub fn compact_sites(
    d: Dispatch,
    players: &[u32],
    first: u32,
    movable: u64,
    start: u64,
    out: &mut [u64],
) -> usize {
    assert!(out.len() >= players.len(), "one slot per player");
    match d.resolve() {
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 => avx512::compact_sites(players, first, movable, start, out),
        _ => compact_sites_scalar(players, first, movable, start, out),
    }
}

#[inline]
fn compact_sites_scalar(
    players: &[u32],
    first: u32,
    movable: u64,
    start: u64,
    out: &mut [u64],
) -> usize {
    let mut k = 0;
    for (i, &p) in players.iter().enumerate() {
        out[k] = start + i as u64;
        k += (movable.checked_shr(p.wrapping_sub(first)).unwrap_or(0) & 1) as usize;
    }
    k
}

/// The AVX-512 arm: eight lanes per vector, every function compiled with
/// `#[target_feature(enable = "avx512f")]`. Must only be reached through
/// the public wrappers, which verify availability via
/// [`Dispatch::resolve`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use super::{decide_scalar, mu_in, ImitationClass, PhiloxSpec, SharedProducts, Wide};
    use core::arch::x86_64::*;

    const LO32: u64 = 0xFFFF_FFFF;

    /// Full 64×64→128 multiply of a pre-split scalar constant against a
    /// lane vector, via four 32×32→64 partial products with exact carry
    /// propagation — bit-identical to the scalar `u128` widening
    /// multiply. `_mm512_mul_epu32` reads only the low dword of
    /// each lane, so `b` needs no mask for its low half.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn mulhilo(
        a_lo: __m512i,
        a_hi: __m512i,
        b: __m512i,
        lo32: __m512i,
    ) -> (__m512i, __m512i) {
        let b_hi = _mm512_srli_epi64::<32>(b);
        let ll = _mm512_mul_epu32(a_lo, b);
        let lh = _mm512_mul_epu32(a_lo, b_hi);
        let hl = _mm512_mul_epu32(a_hi, b);
        let hh = _mm512_mul_epu32(a_hi, b_hi);
        // mid/mid2 cannot overflow: (2³²−1)² + (2³²−1) < 2⁶⁴.
        let mid = _mm512_add_epi64(lh, _mm512_srli_epi64::<32>(ll));
        let mid2 = _mm512_add_epi64(hl, _mm512_and_si512(mid, lo32));
        let hi = _mm512_add_epi64(
            hh,
            _mm512_add_epi64(_mm512_srli_epi64::<32>(mid), _mm512_srli_epi64::<32>(mid2)),
        );
        // The low half: `ll`'s low dword under `mid2`'s low dword, one
        // masked dword shuffle (odd dwords take the even dword below).
        let lo = _mm512_mask_shuffle_epi32::<0xA0>(ll, 0xAAAA, mid2);
        (hi, lo)
    }

    /// `a ^ b ^ c` in one instruction.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn xor3(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
        _mm512_ternarylogic_epi64::<0x96>(a, b, c)
    }

    #[inline]
    pub fn philox4x64_batch(
        spec: PhiloxSpec,
        key: [u64; 2],
        ctr: [u64; 4],
        lane_word: usize,
        lanes: &[u64],
        out: &mut [[u64; 4]],
    ) {
        debug_assert_eq!(lanes.len() % 8, 0);
        debug_assert_eq!(out.len(), lanes.len());
        // SAFETY: the public wrapper verified AVX-512 availability.
        unsafe { philox4x64_batch_impl(spec, key, ctr, lane_word, lanes, out) }
    }

    /// Sixteen lanes (two vectors) per sweep while they last: the rounds
    /// are one long multiply chain per vector, and a second independent
    /// chain in flight hides its latency. Then one vector for an 8-lane
    /// rest.
    #[target_feature(enable = "avx512f")]
    unsafe fn philox4x64_batch_impl(
        spec: PhiloxSpec,
        key: [u64; 2],
        ctr: [u64; 4],
        lane_word: usize,
        lanes: &[u64],
        out: &mut [[u64; 4]],
    ) {
        let products = SharedProducts::new(spec, key, ctr, lane_word);
        let n16 = lanes.len() & !15;
        for (chunk, blocks) in lanes[..n16].chunks_exact(16).zip(out[..n16].chunks_exact_mut(16)) {
            sweep::<2>(spec, key, ctr, lane_word, &products, chunk, blocks);
        }
        for (chunk, blocks) in lanes[n16..].chunks_exact(8).zip(out[n16..].chunks_exact_mut(8)) {
            sweep::<1>(spec, key, ctr, lane_word, &products, chunk, blocks);
        }
    }

    /// The blocks of `N` vectors of eight lanes: `chunk` and `blocks` hold
    /// `8·N` lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F. Every load and store goes through an
    /// 8-lane `chunks_exact` piece, so no length can take it out of bounds.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn sweep<const N: usize>(
        spec: PhiloxSpec,
        key: [u64; 2],
        ctr: [u64; 4],
        lane_word: usize,
        products: &SharedProducts,
        chunk: &[u64],
        blocks: &mut [[u64; 4]],
    ) {
        debug_assert!(chunk.len() == 8 * N && blocks.len() == 8 * N);
        let (c, _) = rounds::<N>(spec, key, ctr, lane_word, products, chunk, spec.rounds);
        // Transpose each vector's four word-vectors into eight per-lane
        // blocks: qword interleave within 128-bit lanes, then two rounds of
        // 128-bit-lane shuffles.
        for (&[c0, c1, c2, c3], out) in c.iter().zip(blocks.chunks_exact_mut(8)) {
            let t0 = _mm512_unpacklo_epi64(c0, c1); // [c0ᵢ c1ᵢ] for even i
            let t1 = _mm512_unpackhi_epi64(c0, c1); // [c0ᵢ c1ᵢ] for odd i
            let t2 = _mm512_unpacklo_epi64(c2, c3); // [c2ᵢ c3ᵢ] for even i
            let t3 = _mm512_unpackhi_epi64(c2, c3); // [c2ᵢ c3ᵢ] for odd i
            let p02_lo = _mm512_shuffle_i64x2::<0x44>(t0, t2); // t0.L0 t0.L1 t2.L0 t2.L1
            let p13_lo = _mm512_shuffle_i64x2::<0x44>(t1, t3);
            let p02_hi = _mm512_shuffle_i64x2::<0xEE>(t0, t2); // t0.L2 t0.L3 t2.L2 t2.L3
            let p13_hi = _mm512_shuffle_i64x2::<0xEE>(t1, t3);
            let base = out.as_mut_ptr() as *mut __m512i;
            // lanes 0,1 · 2,3 · 4,5 · 6,7 — each 512-bit store is two blocks.
            _mm512_storeu_si512(base, _mm512_shuffle_i64x2::<0x88>(p02_lo, p13_lo));
            _mm512_storeu_si512(base.add(1), _mm512_shuffle_i64x2::<0xDD>(p02_lo, p13_lo));
            _mm512_storeu_si512(base.add(2), _mm512_shuffle_i64x2::<0x88>(p02_hi, p13_hi));
            _mm512_storeu_si512(base.add(3), _mm512_shuffle_i64x2::<0xDD>(p02_hi, p13_hi));
        }
    }

    #[inline]
    pub fn philox4x64_word0_batch(
        spec: PhiloxSpec,
        key: [u64; 2],
        ctr: [u64; 4],
        lane_word: usize,
        lanes: &[u64],
        out: &mut [u64],
    ) {
        debug_assert_eq!(lanes.len() % 8, 0);
        debug_assert_eq!(out.len(), lanes.len());
        // SAFETY: the public wrapper verified AVX-512 availability.
        unsafe { philox4x64_word0_batch_impl(spec, key, ctr, lane_word, lanes, out) }
    }

    /// Sixteen lanes per sweep while they last, then eight, as in
    /// [`philox4x64_batch_impl`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn philox4x64_word0_batch_impl(
        spec: PhiloxSpec,
        key: [u64; 2],
        ctr: [u64; 4],
        lane_word: usize,
        lanes: &[u64],
        out: &mut [u64],
    ) {
        let products = SharedProducts::new(spec, key, ctr, lane_word);
        let n16 = lanes.len() & !15;
        for (chunk, words) in lanes[..n16].chunks_exact(16).zip(out[..n16].chunks_exact_mut(16)) {
            sweep_word0::<2>(spec, key, ctr, lane_word, &products, chunk, words);
        }
        for (chunk, words) in lanes[n16..].chunks_exact(8).zip(out[n16..].chunks_exact_mut(8)) {
            sweep_word0::<1>(spec, key, ctr, lane_word, &products, chunk, words);
        }
    }

    /// Word 0 of the blocks of `N` vectors of eight lanes: every round but
    /// the last in full, then the last round's `M1·c2` high half, stored
    /// straight from the word-0 vector (one store per eight lanes).
    ///
    /// # Safety
    ///
    /// As [`sweep`]: AVX-512F, and 8-lane `chunks_exact` pieces throughout.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn sweep_word0<const N: usize>(
        spec: PhiloxSpec,
        key: [u64; 2],
        ctr: [u64; 4],
        lane_word: usize,
        products: &SharedProducts,
        chunk: &[u64],
        words: &mut [u64],
    ) {
        debug_assert!(chunk.len() == 8 * N && words.len() == 8 * N);
        let full = spec.rounds.saturating_sub(1);
        let (mut c, k0) = rounds::<N>(spec, key, ctr, lane_word, products, chunk, full);
        if spec.rounds > 0 {
            let lo32 = _mm512_set1_epi64(LO32 as i64);
            let m1_lo = _mm512_set1_epi64((spec.m1 & LO32) as i64);
            let m1_hi = _mm512_set1_epi64((spec.m1 >> 32) as i64);
            for w in c.iter_mut() {
                let (hi1, _) = mulhilo(m1_lo, m1_hi, w[2], lo32);
                w[0] = xor3(hi1, w[1], k0);
            }
        }
        for (w, out) in c.iter().zip(words.chunks_exact_mut(8)) {
            _mm512_storeu_si512(out.as_mut_ptr() as *mut __m512i, w[0]);
        }
    }

    /// The counter words of `N` vectors of eight lanes after `count` full
    /// rounds, and the first key word the next round would use.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F; `chunk` holds `8·N` lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn rounds<const N: usize>(
        spec: PhiloxSpec,
        key: [u64; 2],
        ctr: [u64; 4],
        lane_word: usize,
        products: &SharedProducts,
        chunk: &[u64],
        count: u32,
    ) -> ([[__m512i; 4]; N], __m512i) {
        let lo32 = _mm512_set1_epi64(LO32 as i64);
        let m0_lo = _mm512_set1_epi64((spec.m0 & LO32) as i64);
        let m0_hi = _mm512_set1_epi64((spec.m0 >> 32) as i64);
        let m1_lo = _mm512_set1_epi64((spec.m1 & LO32) as i64);
        let m1_hi = _mm512_set1_epi64((spec.m1 >> 32) as i64);
        let w0 = _mm512_set1_epi64(spec.w0 as i64);
        let w1 = _mm512_set1_epi64(spec.w1 as i64);
        let shared = [
            _mm512_set1_epi64(ctr[0] as i64),
            _mm512_set1_epi64(ctr[1] as i64),
            _mm512_set1_epi64(ctr[2] as i64),
            _mm512_set1_epi64(ctr[3] as i64),
        ];
        // Select the loaded lane word by value, not by a runtime index
        // into the state, which would keep the state in memory across
        // every round.
        let mut c = [shared; N];
        for (words, lanes) in c.iter_mut().zip(chunk.chunks_exact(8)) {
            let loaded = _mm512_loadu_si512(lanes.as_ptr() as *const __m512i);
            for (w, word) in words.iter_mut().enumerate() {
                if w == lane_word {
                    *word = loaded;
                }
            }
        }
        let mut k0 = _mm512_set1_epi64(key[0] as i64);
        let mut k1 = _mm512_set1_epi64(key[1] as i64);
        let splat = |(hi, lo): Wide| (_mm512_set1_epi64(hi as i64), _mm512_set1_epi64(lo as i64));
        for r in 0..count as usize {
            let (shared0, shared1) = products.at(r);
            for words in c.iter_mut() {
                let [c0, c1, c2, c3] = *words;
                let (hi0, lo0) = shared0.map_or_else(|| mulhilo(m0_lo, m0_hi, c0, lo32), splat);
                let (hi1, lo1) = shared1.map_or_else(|| mulhilo(m1_lo, m1_hi, c2, lo32), splat);
                *words = [xor3(hi1, c1, k0), lo1, xor3(hi0, c3, k1), lo0];
            }
            k0 = _mm512_add_epi64(k0, w0);
            k1 = _mm512_add_epi64(k1, w1);
        }
        (c, k0)
    }

    #[inline]
    pub fn imitation_decide(
        class: &ImitationClass<'_>,
        sites: &[u64],
        words: &[u64],
        mu: &[f64],
        moves: &mut [(u64, u32)],
    ) -> usize {
        class.check(sites, words, moves);
        let s = class.strategies;
        assert!(s.checked_mul(s).is_some_and(|n| mu.len() >= n), "one μ per strategy pair");
        // SAFETY: the public wrapper verified AVX-512 availability; the
        // class passed its check and `mu` holds `strategies²` values.
        unsafe {
            if class.pool != class.real_pool {
                imitation_decide_impl::<true>(class, sites, words, mu, moves)
            } else {
                imitation_decide_impl::<false>(class, sites, words, mu, moves)
            }
        }
    }

    /// Eight players per step, then the scalar arm for a ragged tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, the class must have passed
    /// `ImitationClass::check` against `sites`, `words` and `moves`, and
    /// `mu` must hold `strategies²` values. Every gather is then in
    /// bounds: each site's player index is checked against the class,
    /// a real agent's index is below `real_pool + self_exclude ≤ players`
    /// by the pool check, and a μ index `from · s + to` is below `s²`
    /// once both strategies are checked below `s`.
    #[target_feature(enable = "avx512f")]
    unsafe fn imitation_decide_impl<const VIRTUAL: bool>(
        class: &ImitationClass<'_>,
        sites: &[u64],
        words: &[u64],
        mu: &[f64],
        moves: &mut [(u64, u32)],
    ) -> usize {
        let ImitationClass { players, start, first, strategies, real_pool, pool, self_exclude } =
            *class;
        let lo32 = _mm512_set1_epi64(LO32 as i64);
        let pool_lo = _mm512_set1_epi64((pool & LO32) as i64);
        let pool_hi = _mm512_set1_epi64((pool >> 32) as i64);
        let start_v = _mm512_set1_epi64(start as i64);
        let n_v = _mm512_set1_epi64(players.len() as i64);
        let s_v = _mm512_set1_epi64(strategies as i64);
        let real_v = _mm512_set1_epi64(real_pool as i64);
        let first32 = _mm256_set1_epi32(first as i32);
        let first_v = _mm512_set1_epi64(first as i64);
        let one = _mm512_set1_epi64(1);
        let exclude: __mmask8 = if self_exclude { 0xFF } else { 0 };
        // 2⁵², whose bit pattern ORed onto an integer below 2⁵² is that
        // integer plus 2⁵² as an f64.
        let magic = _mm512_set1_epi64(0x4330_0000_0000_0000);
        let magic_pd = _mm512_castsi512_pd(magic);
        let scale = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
        let base = players.as_ptr() as *const i32;
        let n8 = sites.len() & !7;
        let mut dest = [0u64; 8];
        let mut moved = 0;
        for i in (0..n8).step_by(8) {
            let site = _mm512_loadu_si512(sites.as_ptr().add(i) as *const __m512i);
            let local = _mm512_sub_epi64(site, start_v);
            assert!(_mm512_cmplt_epu64_mask(local, n_v) == 0xFF, "a site lies outside the class");
            let from = _mm512_cvtepu32_epi64(_mm256_sub_epi32(
                _mm512_i64gather_epi32::<4>(local, base),
                first32,
            ));
            // The multiply-shift quotient samples the agent, the
            // remainder is the test variate.
            let pick = _mm512_loadu_si512(words.as_ptr().add(i) as *const __m512i);
            let (draw, rest) = mulhilo(pool_lo, pool_hi, pick, lo32);
            let real = if VIRTUAL { _mm512_cmplt_epu64_mask(draw, real_v) } else { 0xFF };
            let shift = _mm512_cmpge_epu64_mask(draw, local) & exclude;
            let j = _mm512_mask_add_epi64(draw, shift, draw, one);
            // Only real draws name a player; the others load nothing.
            let agent = _mm512_cvtepu32_epi64(_mm256_sub_epi32(
                _mm512_mask_i64gather_epi32::<4>(_mm256_setzero_si256(), real, j, base),
                first32,
            ));
            let to = _mm512_mask_blend_epi64(real, _mm512_sub_epi64(draw, real_v), agent);
            assert!(
                _mm512_cmplt_epu64_mask(from, s_v) & _mm512_cmplt_epu64_mask(to, s_v) == 0xFF,
                "a strategy lies outside the class"
            );
            let idx = _mm512_add_epi64(_mm512_mul_epu32(from, s_v), to);
            let mu_v = _mm512_i64gather_pd::<8>(idx, mu.as_ptr());
            // u = (rest >> 11)·2⁻⁵³, converted exactly: k = rest >> 11 is
            // below 2⁵³, so ⌊k/2⌋ converts through the 2⁵² bias, and
            // 2⌊k/2⌋ (+1 when k is odd) is exact, as is the power-of-two
            // scale; `(k as f64) * 2⁻⁵³` rounds nowhere either.
            let k = _mm512_srli_epi64::<11>(rest);
            let half = _mm512_sub_pd(
                _mm512_castsi512_pd(_mm512_or_si512(_mm512_srli_epi64::<1>(k), magic)),
                magic_pd,
            );
            let even = _mm512_add_pd(half, half);
            let odd = _mm512_test_epi64_mask(k, one);
            let kf = _mm512_mask_add_pd(even, odd, even, _mm512_set1_pd(1.0));
            let u = _mm512_mul_pd(kf, scale);
            let mut migrating = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(u, mu_v);
            if migrating != 0 {
                _mm512_storeu_si512(
                    dest.as_mut_ptr() as *mut __m512i,
                    _mm512_add_epi64(to, first_v),
                );
                while migrating != 0 {
                    let bit = migrating.trailing_zeros() as usize;
                    moves[moved] = (sites[i + bit], dest[bit] as u32);
                    moved += 1;
                    migrating &= migrating - 1;
                }
            }
        }
        moved
            + decide_scalar::<VIRTUAL>(
                class,
                &sites[n8..],
                &words[n8..],
                mu_in(mu, strategies),
                &mut moves[moved..],
            )
    }

    #[inline]
    pub fn compact_sites(
        players: &[u32],
        first: u32,
        movable: u64,
        start: u64,
        out: &mut [u64],
    ) -> usize {
        assert!(out.len() >= players.len(), "one slot per player");
        // SAFETY: the public wrapper verified AVX-512 availability, and
        // `out` has a slot per player.
        unsafe { compact_sites_impl(players, first, movable, start, out) }
    }

    /// Sixteen players per step: shift the bitmask's low and high words
    /// right by each player's class-local strategy (a count of 32 or more
    /// shifts everything out, so each player's bit comes from exactly one
    /// word, and a strategy past 63 from neither), then compress-store the
    /// selected sites eight at a time. A ragged tail runs the scalar loop.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and `out.len() ≥ players.len()`: after
    /// `i` players at most `i` sites are stored, so each compress-store of
    /// at most eight sites ends within `out`.
    #[target_feature(enable = "avx512f")]
    unsafe fn compact_sites_impl(
        players: &[u32],
        first: u32,
        movable: u64,
        start: u64,
        out: &mut [u64],
    ) -> usize {
        let first_v = _mm512_set1_epi32(first as i32);
        let mask_lo = _mm512_set1_epi32(movable as u32 as i32);
        let mask_hi = _mm512_set1_epi32((movable >> 32) as u32 as i32);
        let thirty_two = _mm512_set1_epi32(32);
        let one = _mm512_set1_epi32(1);
        let iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        let eight = _mm512_set1_epi64(8);
        let n16 = players.len() & !15;
        let mut k = 0;
        for i in (0..n16).step_by(16) {
            let p = _mm512_loadu_si512(players.as_ptr().add(i) as *const __m512i);
            let s = _mm512_sub_epi32(p, first_v);
            let bits = _mm512_or_si512(
                _mm512_srlv_epi32(mask_lo, s),
                _mm512_srlv_epi32(mask_hi, _mm512_sub_epi32(s, thirty_two)),
            );
            let selected = _mm512_test_epi32_mask(bits, one);
            let lo = _mm512_add_epi64(_mm512_set1_epi64((start + i as u64) as i64), iota);
            let (m_lo, m_hi) = (selected as u8, (selected >> 8) as u8);
            _mm512_mask_compressstoreu_epi64(out.as_mut_ptr().add(k) as *mut i64, m_lo, lo);
            k += m_lo.count_ones() as usize;
            let hi = _mm512_add_epi64(lo, eight);
            _mm512_mask_compressstoreu_epi64(out.as_mut_ptr().add(k) as *mut i64, m_hi, hi);
            k += m_hi.count_ones() as usize;
        }
        k + super::compact_sites_scalar(
            &players[n16..],
            first,
            movable,
            start + n16 as u64,
            &mut out[k..],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap deterministic word mixer for test inputs (no external RNG
    /// dependency in this crate).
    fn mix(mut x: u64) -> u64 {
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 33)
    }

    fn both_arms() -> Vec<Dispatch> {
        let mut arms = vec![Dispatch::Scalar];
        if Dispatch::Avx512.is_available() {
            arms.push(Dispatch::Avx512);
        }
        arms
    }

    const SPEC: PhiloxSpec = PhiloxSpec {
        m0: 0xD2E7_470E_E14C_6C93,
        m1: 0xCA5A_8263_9512_1157,
        w0: 0x9E37_79B9_7F4A_7C15,
        w1: 0xBB67_AE85_84CA_A73B,
        rounds: 10,
    };

    #[test]
    fn philox_batch_arms_agree_bitwise() {
        for seed in 0..8u64 {
            let key = [mix(seed), mix(seed + 100)];
            let ctr = [mix(seed + 200), mix(seed + 300), mix(seed + 400), mix(seed + 500)];
            for lane_word in 0..4 {
                for width in [1usize, 3, 4, 5, 8, 13, 32, 64] {
                    let lanes: Vec<u64> = (0..width as u64).map(|t| mix(seed * 64 + t)).collect();
                    let mut scalar = vec![[0u64; 4]; width];
                    philox4x64_batch(
                        Dispatch::Scalar,
                        SPEC,
                        key,
                        ctr,
                        lane_word,
                        &lanes,
                        &mut scalar,
                    );
                    for (i, &v) in lanes.iter().enumerate() {
                        let mut c = ctr;
                        c[lane_word] = v;
                        assert_eq!(scalar[i], philox_scalar(SPEC, key, c), "scalar batch lane {i}");
                    }
                    for d in both_arms() {
                        let mut vector = vec![[0u64; 4]; width];
                        philox4x64_batch(d, SPEC, key, ctr, lane_word, &lanes, &mut vector);
                        assert_eq!(
                            scalar, vector,
                            "{d:?} seed {seed} word {lane_word} width {width}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn philox_word0_matches_block_word0() {
        for seed in 0..4u64 {
            let key = [mix(seed + 1), mix(seed + 101)];
            let ctr = [mix(seed + 201), mix(seed + 301), mix(seed + 401), mix(seed + 501)];
            for lane_word in 0..4 {
                for width in 0..=40usize {
                    let lanes: Vec<u64> = (0..width as u64).map(|t| mix(seed * 64 + t)).collect();
                    let mut blocks = vec![[0u64; 4]; width];
                    philox4x64_batch(
                        Dispatch::Scalar,
                        SPEC,
                        key,
                        ctr,
                        lane_word,
                        &lanes,
                        &mut blocks,
                    );
                    for d in both_arms() {
                        let mut words = vec![0u64; width];
                        philox4x64_word0_batch(d, SPEC, key, ctr, lane_word, &lanes, &mut words);
                        for (i, (w, b)) in words.iter().zip(&blocks).enumerate() {
                            assert_eq!(*w, b[0], "{d:?} seed {seed} word {lane_word} lane {i}");
                        }
                    }
                }
            }
        }
        // A zero-round spec returns the counter itself.
        let zero = PhiloxSpec { rounds: 0, ..SPEC };
        let mut word = [0u64; 1];
        philox4x64_word0_batch(Dispatch::Scalar, zero, [1, 2], [3, 4, 5, 6], 0, &[9], &mut word);
        assert_eq!(word, [9]);
    }

    /// An independent, player-by-player statement of the imitation
    /// decision the kernel makes.
    fn decide_reference(
        class: &ImitationClass<'_>,
        sites: &[u64],
        words: &[u64],
        mu: &[f64],
    ) -> Vec<(u64, u32)> {
        let s = class.strategies;
        let mut movers = Vec::new();
        for (&site, &pick) in sites.iter().zip(words) {
            let local = (site - class.start) as usize;
            let from = (class.players[local] - class.first) as usize;
            let wide = pick as u128 * class.pool as u128;
            let draw = (wide >> 64) as u64;
            let to = if draw < class.real_pool {
                let j = draw as usize + (class.self_exclude && draw as usize >= local) as usize;
                (class.players[j] - class.first) as usize
            } else {
                (draw - class.real_pool) as usize
            };
            let u = ((wide as u64) >> 11) as f64 / 2f64.powi(53);
            if u < mu[from * s + to] {
                movers.push((site, class.first + to as u32));
            }
        }
        movers
    }

    #[test]
    fn imitation_decide_arms_agree_bitwise() {
        let s = 5usize;
        let first = 40u32;
        // μ ∈ {0, the smallest subnormal, a subnormal, 1} and some in between.
        let levels = [0.0, f64::from_bits(1), f64::MIN_POSITIVE / 3.0, 1.0, 0.25, 0.5, 1e-3];
        let mu: Vec<f64> = (0..s * s).map(|i| levels[mix(i as u64 + 9) as usize % 7]).collect();
        let mut checked = 0usize;
        for n in [1usize, 2, 7, 9, 64, 131] {
            let players: Vec<u32> =
                (0..n as u64).map(|i| first + (mix(i + n as u64) % s as u64) as u32).collect();
            let start = 1_000 + n as u64;
            for self_exclude in [false, true] {
                for virtual_agents in [false, true] {
                    let real_pool = n as u64 - self_exclude as u64;
                    let pool = real_pool + if virtual_agents { s as u64 } else { 0 };
                    if pool == 0 {
                        continue;
                    }
                    let class = ImitationClass {
                        players: &players,
                        start,
                        first,
                        strategies: s,
                        real_pool,
                        pool,
                        self_exclude,
                    };
                    // Every player, and a sparse subset, as the sites; the
                    // chunk lengths cover ragged vector tails.
                    let all: Vec<u64> = (start..start + n as u64).collect();
                    let some: Vec<u64> =
                        all.iter().copied().filter(|&t| !mix(t).is_multiple_of(3)).collect();
                    for sites in [&all, &some] {
                        for len in [0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, sites.len()] {
                            let sites = &sites[..len.min(sites.len())];
                            // Extreme words: pick 0 (u = 0, so a subnormal μ
                            // still moves) and pick u64::MAX.
                            let words: Vec<u64> = sites
                                .iter()
                                .map(|&t| match mix(t + 77) % 8 {
                                    0 => 0,
                                    1 => u64::MAX,
                                    _ => mix(t * 31 + pool),
                                })
                                .collect();
                            let expect = decide_reference(&class, sites, &words, &mu);
                            let mut calls = 0;
                            let mut moves = vec![(0u64, 0u32); sites.len()];
                            let k = imitation_decide_with(
                                &class,
                                sites,
                                &words,
                                |f, t| {
                                    calls += 1;
                                    mu[f * s + t]
                                },
                                &mut moves,
                            );
                            assert_eq!(calls, sites.len(), "one μ lookup per player");
                            assert_eq!(moves[..k], expect[..], "with n={n} len={len}");
                            for d in both_arms() {
                                let mut moves = vec![(0u64, 0u32); sites.len()];
                                let k = imitation_decide(d, &class, sites, &words, &mu, &mut moves);
                                assert_eq!(
                                    moves[..k],
                                    expect[..],
                                    "{d:?} n={n} len={len} excl={self_exclude} va={virtual_agents}"
                                );
                            }
                            checked += expect.len();
                        }
                    }
                }
            }
        }
        assert!(checked > 100, "too few movers ({checked}) to compare");
    }

    #[test]
    fn imitation_decide_rejects_sites_and_strategies_outside_the_class() {
        let players = [0u32; 16];
        let class = ImitationClass {
            players: &players,
            start: 4,
            first: 0,
            strategies: 1,
            real_pool: 16,
            pool: 16,
            self_exclude: false,
        };
        let outside: Vec<u64> = (4..19).chain([3]).collect();
        let inside: Vec<u64> = (4..20).collect();
        let stranger = ImitationClass { first: 1, ..class };
        for d in both_arms() {
            for (class, sites, expect) in [
                (class, &outside, "a site lies outside the class"),
                (stranger, &inside, "a strategy lies outside the class"),
            ] {
                let panicked = std::panic::catch_unwind(|| {
                    let mut moves = [(0, 0); 16];
                    imitation_decide(d, &class, sites, &[7; 16], &[1.0], &mut moves);
                })
                .expect_err("an out-of-class input must panic");
                let message = match panicked.downcast::<String>() {
                    Ok(text) => *text,
                    Err(other) => other.downcast_ref::<&str>().unwrap_or(&"").to_string(),
                };
                assert_eq!(message, expect, "{d:?}");
            }
        }
    }

    #[test]
    fn compact_sites_arms_agree() {
        for n in [0usize, 1, 15, 16, 17, 40, 100] {
            // Strategies past the 64-bit mask (and below `first`) never
            // select.
            let players: Vec<u32> = (0..n as u64).map(|i| 10 + (mix(i) % 70) as u32).collect();
            for movable in [0u64, u64::MAX, 1, 1 << 63, mix(n as u64), 0xFFFF_0000_0000_FFFF] {
                let expect: Vec<u64> = (0..n)
                    .filter(|&i| {
                        let s = players[i].wrapping_sub(12);
                        s < 64 && movable >> s & 1 == 1
                    })
                    .map(|i| 500 + i as u64)
                    .collect();
                for d in both_arms() {
                    let mut out = vec![0u64; n];
                    let k = compact_sites(d, &players, 12, movable, 500, &mut out);
                    assert_eq!(out[..k], expect[..], "{d:?} n={n} mask {movable:#x}");
                }
            }
        }
    }

    #[test]
    fn env_override_is_honored() {
        // `detect` reads the environment on every call (only `global`
        // caches), so the override can be probed directly.
        std::env::set_var(DISPATCH_ENV, "scalar");
        assert_eq!(Dispatch::detect(), Dispatch::Scalar);
        std::env::set_var(DISPATCH_ENV, "avx512");
        assert_eq!(Dispatch::detect(), Dispatch::Avx512.resolve());
        assert_eq!(Dispatch::env_override(), Ok(Some(Dispatch::Avx512)));
        std::env::set_var(DISPATCH_ENV, "auto");
        assert_eq!(Dispatch::env_override(), Ok(None));
        assert_eq!(Dispatch::detect(), Dispatch::Avx512.resolve());
        // A value that names no arm (`avx2` among them) is an error to a
        // front end and detection to `detect`.
        for bad in ["avx2", "AVX512", ""] {
            std::env::set_var(DISPATCH_ENV, bad);
            let err = Dispatch::env_override().expect_err("not an arm");
            assert!(
                err.contains(&format!("{bad:?}")) && err.contains("scalar|avx512|auto"),
                "{err}"
            );
            assert_eq!(Dispatch::detect(), Dispatch::Avx512.resolve());
        }
        std::env::remove_var(DISPATCH_ENV);
        assert_eq!(Dispatch::env_override(), Ok(None));
    }
}
