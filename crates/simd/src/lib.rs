//! Across-lane vector primitives for the replica-major lane kernels.
//!
//! The lane kernel (`congames-dynamics::LaneKernel`) steps `W` replicas in
//! lockstep through structure-of-arrays blocks, so its inner loops are
//! element-wise over lane rows: batched Philox keystream blocks, per-lane
//! migration probabilities, per-strategy latency accumulation, load-window
//! bounds. This crate provides those loops in multiple arms behind one
//! [`Dispatch`] value: a portable scalar arm, an AVX2 `std::arch` arm, and
//! an AVX-512 arm (which widens the Philox keystream to eight lanes per
//! vector and shares the AVX2 float kernels), selected by runtime feature
//! detection.
//!
//! # Bit-identity contract
//!
//! Both arms of every operation produce **identical bits**:
//!
//! * **Integer ops are exact by construction** — the AVX2/AVX-512
//!   64×64→128 multiply is decomposed into 32-bit partial products with
//!   full carry propagation, so the batched Philox blocks equal the scalar
//!   blocks word for word, and `u64` min/max/compares are value-exact.
//! * **Float ops vectorize *across* lanes only.** Each lane's own
//!   operation sequence is unchanged — no reassociation, no FMA
//!   contraction (IEEE-754 `vmulpd`/`vaddpd`/`vsubpd`/`vdivpd` round
//!   exactly like their scalar counterparts), and `u64 → f64` conversion
//!   uses an exponent-bias decomposition with a single final rounding,
//!   equal to Rust's `as f64` for every input. A lane therefore computes
//!   the same bits whichever arm runs it.
//!
//! # Dispatch
//!
//! [`Dispatch::detect`] picks the widest available arm once;
//! [`Dispatch::global`] caches it for the process. The environment
//! variable `CONGAMES_SIMD` overrides detection for testing:
//! `CONGAMES_SIMD=scalar` forces the fallback, `CONGAMES_SIMD=avx2` /
//! `CONGAMES_SIMD=avx512` request a vector arm (silently degrading to the
//! widest available one where the CPU lacks the feature), and
//! `CONGAMES_SIMD=auto` (or unset) detects. Every operation also takes
//! the dispatch explicitly, so tests can run all arms in one process and
//! compare bits.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;

/// Environment variable overriding [`Dispatch::detect`]:
/// `scalar` | `avx2` | `avx512` | `auto`.
pub const DISPATCH_ENV: &str = "CONGAMES_SIMD";

/// Which arm of each vector operation to run. Both arms are bit-identical
/// (see the [module docs](self)); dispatch only selects the cost of
/// producing the bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Portable scalar loops — the reference arm, available everywhere.
    Scalar,
    /// 4-wide AVX2 `std::arch` loops. Selecting this on a CPU without
    /// AVX2 is safe: every operation re-checks availability and degrades
    /// to the scalar arm.
    Avx2,
    /// AVX-512 loops: the Philox keystream runs eight lanes per vector
    /// (`avx512f`); the float kernels share the AVX2 arm's code. Selecting
    /// this on a CPU without AVX-512 is safe: every operation re-checks
    /// availability and degrades to the widest available arm.
    Avx512,
}

impl Dispatch {
    /// Detect the widest available arm, honoring the [`DISPATCH_ENV`]
    /// override (unknown values fall back to auto-detection).
    #[inline]
    pub fn detect() -> Dispatch {
        match std::env::var(DISPATCH_ENV).as_deref() {
            Ok("scalar") => Dispatch::Scalar,
            Ok("avx2") => resolved(Dispatch::Avx2),
            _ => resolved(Dispatch::Avx512),
        }
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
            Dispatch::Avx2 => avx2_available(),
            Dispatch::Avx512 => avx512_available(),
        }
    }

    /// Resolve this (possibly requested-but-unavailable) dispatch to the
    /// widest arm that is safe to execute on the current CPU. Kernels call
    /// this once at construction so their steady-state loops carry an
    /// always-runnable arm.
    #[inline]
    pub fn resolve(self) -> Dispatch {
        resolved(self)
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn avx2_available() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f") && avx2_available()
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn avx512_available() -> bool {
    false
}

/// Resolve a requested dispatch to one that is safe to execute here.
#[inline]
fn resolved(d: Dispatch) -> Dispatch {
    match d {
        Dispatch::Avx512 if avx512_available() => Dispatch::Avx512,
        Dispatch::Avx512 | Dispatch::Avx2 if avx2_available() => Dispatch::Avx2,
        _ => Dispatch::Scalar,
    }
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

#[inline]
fn philox_scalar(spec: PhiloxSpec, mut key: [u64; 2], mut ctr: [u64; 4]) -> [u64; 4] {
    for _ in 0..spec.rounds {
        let wide0 = spec.m0 as u128 * ctr[0] as u128;
        let wide1 = spec.m1 as u128 * ctr[2] as u128;
        let (hi0, lo0) = ((wide0 >> 64) as u64, wide0 as u64);
        let (hi1, lo1) = ((wide1 >> 64) as u64, wide1 as u64);
        ctr = [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0];
        key[0] = key[0].wrapping_add(spec.w0);
        key[1] = key[1].wrapping_add(spec.w1);
    }
    ctr
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
    match resolved(d) {
        Dispatch::Scalar => scalar_tail(out, lanes),
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 => {
            let n4 = lanes.len() & !3;
            avx2::philox4x64_batch(spec, key, ctr, lane_word, &lanes[..n4], &mut out[..n4]);
            scalar_tail(&mut out[n4..], &lanes[n4..]);
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 => {
            let n8 = lanes.len() & !7;
            avx512::philox4x64_batch(spec, key, ctr, lane_word, &lanes[..n8], &mut out[..n8]);
            let (tail_l, tail_o) = (&lanes[n8..], &mut out[n8..]);
            let n4 = tail_l.len() & !3;
            avx2::philox4x64_batch(spec, key, ctr, lane_word, &tail_l[..n4], &mut tail_o[..n4]);
            scalar_tail(&mut tail_o[n4..], &tail_l[n4..]);
        }
        #[cfg(not(target_arch = "x86_64"))]
        Dispatch::Avx2 | Dispatch::Avx512 => {
            unreachable!("resolved() degrades vector arms off x86_64")
        }
    }
}

/// `out[l] += src[l]` — the vertical lane-row accumulation of the
/// per-strategy latency sums and the pair-walk `ℓ_to` rows. Each lane's
/// own add sequence is unchanged (one add per call per lane), so the
/// arms are bit-identical.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_assign(d: Dispatch, out: &mut [f64], src: &[f64]) {
    assert_eq!(out.len(), src.len(), "lane rows must have equal width");
    match resolved(d) {
        Dispatch::Scalar => {
            for (o, &v) in out.iter_mut().zip(src) {
                *o += v;
            }
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 | Dispatch::Avx512 => avx2::add_assign(out, src),
        #[cfg(not(target_arch = "x86_64"))]
        Dispatch::Avx2 | Dispatch::Avx512 => {
            unreachable!("resolved() degrades vector arms off x86_64")
        }
    }
}

/// The `(min, max)` of a non-empty `u64` lane row — the union load-window
/// bounds when every lane is live. Value-exact in both arms.
///
/// # Panics
///
/// Panics if `vals` is empty.
#[inline]
pub fn min_max_u64(d: Dispatch, vals: &[u64]) -> (u64, u64) {
    assert!(!vals.is_empty(), "min/max of an empty lane row");
    match resolved(d) {
        Dispatch::Scalar => {
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for &v in vals {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            (lo, hi)
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 => avx2::min_max_u64(vals),
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 => avx512::min_max_u64(vals),
        #[cfg(not(target_arch = "x86_64"))]
        Dispatch::Avx2 | Dispatch::Avx512 => {
            unreachable!("resolved() degrades vector arms off x86_64")
        }
    }
}

/// Whether any lane has `a[l] > 0 && b[l] > 0 && mask[l] != 0` — the
/// unioned pair early-out of the lane pair walk (origin occupied,
/// destination occupied, lane live).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn any_pair_nonzero(d: Dispatch, a: &[u64], b: &[u64], mask: &[u64]) -> bool {
    assert!(a.len() == b.len() && a.len() == mask.len(), "lane rows must have equal width");
    match resolved(d) {
        Dispatch::Scalar => {
            a.iter().zip(b).zip(mask).any(|((&x, &y), &m)| x > 0 && y > 0 && m != 0)
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 | Dispatch::Avx512 => avx2::any_pair_nonzero(a, b, mask),
        #[cfg(not(target_arch = "x86_64"))]
        Dispatch::Avx2 | Dispatch::Avx512 => {
            unreachable!("resolved() degrades vector arms off x86_64")
        }
    }
}

/// Whether any lane has `a[l] > 0 && mask[l] != 0` — the pair early-out
/// when exploration or virtual agents make every destination reachable.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn any_nonzero(d: Dispatch, a: &[u64], mask: &[u64]) -> bool {
    assert_eq!(a.len(), mask.len(), "lane rows must have equal width");
    match resolved(d) {
        Dispatch::Scalar => a.iter().zip(mask).any(|(&x, &m)| x > 0 && m != 0),
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 | Dispatch::Avx512 => avx2::any_nonzero(a, mask),
        #[cfg(not(target_arch = "x86_64"))]
        Dispatch::Avx2 | Dispatch::Avx512 => {
            unreachable!("resolved() degrades vector arms off x86_64")
        }
    }
}

/// Per-lane pure-imitation migration probability of one `(from, to)`
/// pair:
///
/// ```text
/// probs[l] = (imit_scale · x_to) · clamp((coef · gain) / ℓ_from, 0, 1)
///            where gain = ℓ_from − ℓ_to,
/// ```
///
/// and `0.0` for every lane the scalar engine would skip: retired
/// (`active[l] == 0`), empty origin (`counts_from[l] == 0`), empty
/// destination (`counts_to[l] == 0`), non-positive `ℓ_from`, or
/// `gain ≤ gain_threshold`. `coef` is the pre-divided `λ/d`, so the
/// surviving lanes run exactly the scalar μ sequence
/// `((λ/d)·gain)/ℓ_from` — same operands, same order, one rounding per
/// operation — and a `probs[l] > 0.0` filter reproduces the scalar pair
/// list bit for bit. Returns whether any lane's probability is positive,
/// so callers can skip that filter scan when the row is all-zero.
///
/// # Panics
///
/// Panics if any slice length differs from `probs.len()`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn imitation_pair_probs(
    d: Dispatch,
    counts_from: &[u64],
    counts_to: &[u64],
    active: &[u64],
    l_from: &[f64],
    l_to: &[f64],
    imit_scale: f64,
    coef: f64,
    gain_threshold: f64,
    probs: &mut [f64],
) -> bool {
    let w = probs.len();
    assert!(
        counts_from.len() == w
            && counts_to.len() == w
            && active.len() == w
            && l_from.len() == w
            && l_to.len() == w,
        "lane rows must have equal width"
    );
    match resolved(d) {
        Dispatch::Scalar => {
            let mut any = false;
            for l in 0..w {
                let mut p = 0.0;
                if active[l] != 0 && counts_from[l] > 0 && counts_to[l] > 0 {
                    let lf = l_from[l];
                    let gain = lf - l_to[l];
                    if lf > 0.0 && gain > gain_threshold {
                        let mu = (coef * gain / lf).clamp(0.0, 1.0);
                        p = (imit_scale * counts_to[l] as f64) * mu;
                    }
                }
                any |= p > 0.0;
                probs[l] = p;
            }
            any
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 | Dispatch::Avx512 => {
            let n4 = w & !3;
            let mut any = avx2::imitation_pair_probs(
                &counts_from[..n4],
                &counts_to[..n4],
                &active[..n4],
                &l_from[..n4],
                &l_to[..n4],
                imit_scale,
                coef,
                gain_threshold,
                &mut probs[..n4],
            );
            for l in n4..w {
                let mut p = 0.0;
                if active[l] != 0 && counts_from[l] > 0 && counts_to[l] > 0 {
                    let lf = l_from[l];
                    let gain = lf - l_to[l];
                    if lf > 0.0 && gain > gain_threshold {
                        let mu = (coef * gain / lf).clamp(0.0, 1.0);
                        p = (imit_scale * counts_to[l] as f64) * mu;
                    }
                }
                any |= p > 0.0;
                probs[l] = p;
            }
            any
        }
        #[cfg(not(target_arch = "x86_64"))]
        Dispatch::Avx2 | Dispatch::Avx512 => {
            unreachable!("resolved() degrades vector arms off x86_64")
        }
    }
}

/// Gather each lane's `(window[idx], window[idx + 1])` pair with
/// `idx = loads[l] - lo` — the per-resource `ℓ(x)` / `ℓ(x+1)` gather from
/// the union-window evaluation buffer. Pure moves, so value-exact.
///
/// # Panics
///
/// Panics if the lane rows differ in length, or (in either arm) if any
/// `loads[l] - lo + 1` falls outside `window`.
#[inline]
pub fn gather_window_pairs(
    d: Dispatch,
    window: &[f64],
    loads: &[u64],
    lo: u64,
    out0: &mut [f64],
    out1: &mut [f64],
) {
    let w = loads.len();
    assert!(out0.len() == w && out1.len() == w, "lane rows must have equal width");
    match resolved(d) {
        Dispatch::Scalar => {
            for l in 0..w {
                let off = (loads[l] - lo) as usize;
                out0[l] = window[off];
                out1[l] = window[off + 1];
            }
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 | Dispatch::Avx512 => {
            avx2::gather_window_pairs(window, loads, lo, out0, out1)
        }
        #[cfg(not(target_arch = "x86_64"))]
        Dispatch::Avx2 | Dispatch::Avx512 => {
            unreachable!("resolved() degrades vector arms off x86_64")
        }
    }
}

/// `out[j] = a · ((start + j) as f64) + b` — the affine latency window.
/// The vector arm converts `start + j` with the exact exponent-bias
/// decomposition (single final rounding, equal to `as f64`) and applies
/// the same multiply-add sequence per element, so both arms match the
/// pointwise evaluation bit for bit.
#[inline]
pub fn affine_fill(d: Dispatch, a: f64, b: f64, start: u64, out: &mut [f64]) {
    match resolved(d) {
        Dispatch::Scalar => {
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = a * (start + j as u64) as f64 + b;
            }
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 | Dispatch::Avx512 => avx2::affine_fill(a, b, start, out),
        #[cfg(not(target_arch = "x86_64"))]
        Dispatch::Avx2 | Dispatch::Avx512 => {
            unreachable!("resolved() degrades vector arms off x86_64")
        }
    }
}

/// `out[j] = a · x^k` with `x = (start + j) as f64`, using the exact
/// square-and-multiply chains of degrees 1–4 (`x`, `x·x`, `x·x²`,
/// `x²·x²`) — the same chains the scalar monomial batch evaluator runs,
/// so both arms match pointwise `powi` evaluation bit for bit.
///
/// # Panics
///
/// Panics unless `1 <= k <= 4` (higher degrees keep the scalar `powi`
/// path in the caller).
#[inline]
pub fn monomial_fill(d: Dispatch, a: f64, k: u32, start: u64, out: &mut [f64]) {
    assert!((1..=4).contains(&k), "monomial_fill covers degrees 1-4");
    match resolved(d) {
        Dispatch::Scalar => {
            for (j, slot) in out.iter_mut().enumerate() {
                let x = (start + j as u64) as f64;
                *slot = match k {
                    1 => a * x,
                    2 => a * (x * x),
                    3 => {
                        let x2 = x * x;
                        a * (x * x2)
                    }
                    _ => {
                        let x2 = x * x;
                        a * (x2 * x2)
                    }
                };
            }
        }
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 | Dispatch::Avx512 => avx2::monomial_fill(a, k, start, out),
        #[cfg(not(target_arch = "x86_64"))]
        Dispatch::Avx2 | Dispatch::Avx512 => {
            unreachable!("resolved() degrades vector arms off x86_64")
        }
    }
}

/// The AVX2 arm. Every function is compiled with
/// `#[target_feature(enable = "avx2")]` and must only be reached through
/// the public wrappers, which verify availability via [`resolved`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::PhiloxSpec;
    use core::arch::x86_64::*;

    const LO32: u64 = 0xFFFF_FFFF;

    /// Full 64×64→128 multiply of a pre-split scalar constant against a
    /// lane vector, via four 32×32→64 partial products with exact carry
    /// propagation — bit-identical to the scalar `u128` widening multiply.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mulhilo(
        a_lo: __m256i,
        a_hi: __m256i,
        b: __m256i,
        lo32: __m256i,
    ) -> (__m256i, __m256i) {
        let b_lo = _mm256_and_si256(b, lo32);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a_lo, b_lo);
        let lh = _mm256_mul_epu32(a_lo, b_hi);
        let hl = _mm256_mul_epu32(a_hi, b_lo);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        // mid/mid2 cannot overflow: (2³²−1)² + (2³²−1) < 2⁶⁴.
        let mid = _mm256_add_epi64(lh, _mm256_srli_epi64::<32>(ll));
        let mid2 = _mm256_add_epi64(hl, _mm256_and_si256(mid, lo32));
        let hi = _mm256_add_epi64(
            hh,
            _mm256_add_epi64(_mm256_srli_epi64::<32>(mid), _mm256_srli_epi64::<32>(mid2)),
        );
        let lo = _mm256_or_si256(_mm256_slli_epi64::<32>(mid2), _mm256_and_si256(ll, lo32));
        (hi, lo)
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
        debug_assert_eq!(lanes.len() % 4, 0);
        debug_assert_eq!(out.len(), lanes.len());
        // SAFETY: the public wrapper verified AVX2 availability.
        unsafe { philox4x64_batch_impl(spec, key, ctr, lane_word, lanes, out) }
    }

    /// Eight lanes (two vectors) per sweep while they last: the rounds are
    /// one long multiply chain per vector, and a second independent chain
    /// in flight hides its latency. Then one vector for a 4-lane rest.
    #[target_feature(enable = "avx2")]
    unsafe fn philox4x64_batch_impl(
        spec: PhiloxSpec,
        key: [u64; 2],
        ctr: [u64; 4],
        lane_word: usize,
        lanes: &[u64],
        out: &mut [[u64; 4]],
    ) {
        let n8 = lanes.len() & !7;
        for (chunk, blocks) in lanes[..n8].chunks_exact(8).zip(out[..n8].chunks_exact_mut(8)) {
            sweep::<2>(spec, key, ctr, lane_word, chunk, blocks);
        }
        for (chunk, blocks) in lanes[n8..].chunks_exact(4).zip(out[n8..].chunks_exact_mut(4)) {
            sweep::<1>(spec, key, ctr, lane_word, chunk, blocks);
        }
    }

    /// The blocks of `N` vectors of four lanes: `chunk` and `blocks` hold
    /// `4·N` lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. Every load and store goes through a
    /// 4-lane `chunks_exact` piece, so no length can take it out of bounds.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep<const N: usize>(
        spec: PhiloxSpec,
        key: [u64; 2],
        ctr: [u64; 4],
        lane_word: usize,
        chunk: &[u64],
        blocks: &mut [[u64; 4]],
    ) {
        debug_assert!(chunk.len() == 4 * N && blocks.len() == 4 * N);
        let lo32 = _mm256_set1_epi64x(LO32 as i64);
        let m0_lo = _mm256_set1_epi64x((spec.m0 & LO32) as i64);
        let m0_hi = _mm256_set1_epi64x((spec.m0 >> 32) as i64);
        let m1_lo = _mm256_set1_epi64x((spec.m1 & LO32) as i64);
        let m1_hi = _mm256_set1_epi64x((spec.m1 >> 32) as i64);
        let w0 = _mm256_set1_epi64x(spec.w0 as i64);
        let w1 = _mm256_set1_epi64x(spec.w1 as i64);
        let shared = [
            _mm256_set1_epi64x(ctr[0] as i64),
            _mm256_set1_epi64x(ctr[1] as i64),
            _mm256_set1_epi64x(ctr[2] as i64),
            _mm256_set1_epi64x(ctr[3] as i64),
        ];
        let mut c = [shared; N];
        for (words, lanes) in c.iter_mut().zip(chunk.chunks_exact(4)) {
            words[lane_word] = _mm256_loadu_si256(lanes.as_ptr() as *const __m256i);
        }
        let mut k0 = _mm256_set1_epi64x(key[0] as i64);
        let mut k1 = _mm256_set1_epi64x(key[1] as i64);
        for _ in 0..spec.rounds {
            for words in c.iter_mut() {
                let [c0, c1, c2, c3] = *words;
                let (hi0, lo0) = mulhilo(m0_lo, m0_hi, c0, lo32);
                let (hi1, lo1) = mulhilo(m1_lo, m1_hi, c2, lo32);
                *words = [
                    _mm256_xor_si256(_mm256_xor_si256(hi1, c1), k0),
                    lo1,
                    _mm256_xor_si256(_mm256_xor_si256(hi0, c3), k1),
                    lo0,
                ];
            }
            k0 = _mm256_add_epi64(k0, w0);
            k1 = _mm256_add_epi64(k1, w1);
        }
        // Transpose each vector's four word-vectors into per-lane blocks.
        for (&[c0, c1, c2, c3], out) in c.iter().zip(blocks.chunks_exact_mut(4)) {
            let t0 = _mm256_unpacklo_epi64(c0, c1);
            let t1 = _mm256_unpackhi_epi64(c0, c1);
            let t2 = _mm256_unpacklo_epi64(c2, c3);
            let t3 = _mm256_unpackhi_epi64(c2, c3);
            let base = out.as_mut_ptr() as *mut __m256i;
            _mm256_storeu_si256(base, _mm256_permute2x128_si256::<0x20>(t0, t2));
            _mm256_storeu_si256(base.add(1), _mm256_permute2x128_si256::<0x20>(t1, t3));
            _mm256_storeu_si256(base.add(2), _mm256_permute2x128_si256::<0x31>(t0, t2));
            _mm256_storeu_si256(base.add(3), _mm256_permute2x128_si256::<0x31>(t1, t3));
        }
    }

    #[inline]
    pub fn add_assign(out: &mut [f64], src: &[f64]) {
        // SAFETY: the public wrapper verified AVX2 availability.
        unsafe { add_assign_impl(out, src) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn add_assign_impl(out: &mut [f64], src: &[f64]) {
        let n4 = out.len() & !3;
        let mut i = 0;
        while i < n4 {
            let o = _mm256_loadu_pd(out.as_ptr().add(i));
            let s = _mm256_loadu_pd(src.as_ptr().add(i));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_add_pd(o, s));
            i += 4;
        }
        for l in n4..out.len() {
            out[l] += src[l];
        }
    }

    #[inline]
    pub fn min_max_u64(vals: &[u64]) -> (u64, u64) {
        // SAFETY: the public wrapper verified AVX2 availability.
        unsafe { min_max_u64_impl(vals) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn min_max_u64_impl(vals: &[u64]) -> (u64, u64) {
        let n4 = vals.len() & !3;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        if n4 >= 4 {
            // AVX2 has no unsigned 64-bit compare; bias by 2⁶³ and compare
            // signed, which is order-isomorphic over the full u64 range.
            let bias = _mm256_set1_epi64x(i64::MIN);
            let first = _mm256_xor_si256(_mm256_loadu_si256(vals.as_ptr() as *const __m256i), bias);
            let mut vmin = first;
            let mut vmax = first;
            let mut i = 4;
            while i < n4 {
                let v = _mm256_xor_si256(
                    _mm256_loadu_si256(vals.as_ptr().add(i) as *const __m256i),
                    bias,
                );
                let gt_min = _mm256_cmpgt_epi64(vmin, v);
                vmin = _mm256_blendv_epi8(vmin, v, gt_min);
                let gt_max = _mm256_cmpgt_epi64(v, vmax);
                vmax = _mm256_blendv_epi8(vmax, v, gt_max);
                i += 4;
            }
            let mut mins = [0u64; 4];
            let mut maxs = [0u64; 4];
            _mm256_storeu_si256(mins.as_mut_ptr() as *mut __m256i, _mm256_xor_si256(vmin, bias));
            _mm256_storeu_si256(maxs.as_mut_ptr() as *mut __m256i, _mm256_xor_si256(vmax, bias));
            for k in 0..4 {
                lo = lo.min(mins[k]);
                hi = hi.max(maxs[k]);
            }
        }
        for &v in &vals[n4..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    #[inline]
    pub fn any_pair_nonzero(a: &[u64], b: &[u64], mask: &[u64]) -> bool {
        // SAFETY: the public wrapper verified AVX2 availability.
        unsafe { any_pair_nonzero_impl(a, b, mask) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn any_pair_nonzero_impl(a: &[u64], b: &[u64], mask: &[u64]) -> bool {
        let n4 = a.len() & !3;
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        while i < n4 {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            let vm = _mm256_loadu_si256(mask.as_ptr().add(i) as *const __m256i);
            // live = !(a == 0) & !(b == 0) & !(m == 0)
            let dead = _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpeq_epi64(va, zero), _mm256_cmpeq_epi64(vb, zero)),
                _mm256_cmpeq_epi64(vm, zero),
            );
            if _mm256_movemask_epi8(dead) != -1i32 {
                return true;
            }
            i += 4;
        }
        a[n4..].iter().zip(&b[n4..]).zip(&mask[n4..]).any(|((&x, &y), &m)| x > 0 && y > 0 && m != 0)
    }

    #[inline]
    pub fn any_nonzero(a: &[u64], mask: &[u64]) -> bool {
        // SAFETY: the public wrapper verified AVX2 availability.
        unsafe { any_nonzero_impl(a, mask) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn any_nonzero_impl(a: &[u64], mask: &[u64]) -> bool {
        let n4 = a.len() & !3;
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        while i < n4 {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vm = _mm256_loadu_si256(mask.as_ptr().add(i) as *const __m256i);
            let dead = _mm256_or_si256(_mm256_cmpeq_epi64(va, zero), _mm256_cmpeq_epi64(vm, zero));
            if _mm256_movemask_epi8(dead) != -1i32 {
                return true;
            }
            i += 4;
        }
        a[n4..].iter().zip(&mask[n4..]).any(|(&x, &m)| x > 0 && m != 0)
    }

    /// Exact `u64 → f64`: exponent-bias decomposition into a high part
    /// (`2⁸⁴ + hi·2³²`) and a low part (`2⁵² + lo`), both exact, combined
    /// with one rounding — equal to Rust's `as f64` for every input.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn u64_to_f64(v: __m256i, lo32: __m256i) -> __m256d {
        let hi_magic = _mm256_set1_epi64x(0x4530_0000_0000_0000);
        let lo_magic = _mm256_set1_epi64x(0x4330_0000_0000_0000);
        // 2⁸⁴ + 2⁵²: the value the biased high part must shed.
        let offset = _mm256_set1_pd(19342813118337666422669312.0);
        let v_hi = _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64::<32>(v), hi_magic));
        let v_lo = _mm256_castsi256_pd(_mm256_or_si256(_mm256_and_si256(v, lo32), lo_magic));
        _mm256_add_pd(_mm256_sub_pd(v_hi, offset), v_lo)
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn imitation_pair_probs(
        counts_from: &[u64],
        counts_to: &[u64],
        active: &[u64],
        l_from: &[f64],
        l_to: &[f64],
        imit_scale: f64,
        coef: f64,
        gain_threshold: f64,
        probs: &mut [f64],
    ) -> bool {
        debug_assert_eq!(probs.len() % 4, 0);
        // SAFETY: the public wrapper verified AVX2 availability.
        unsafe {
            imitation_pair_probs_impl(
                counts_from,
                counts_to,
                active,
                l_from,
                l_to,
                imit_scale,
                coef,
                gain_threshold,
                probs,
            )
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn imitation_pair_probs_impl(
        counts_from: &[u64],
        counts_to: &[u64],
        active: &[u64],
        l_from: &[f64],
        l_to: &[f64],
        imit_scale: f64,
        coef: f64,
        gain_threshold: f64,
        probs: &mut [f64],
    ) -> bool {
        let zero_i = _mm256_setzero_si256();
        let zero_d = _mm256_setzero_pd();
        let one_d = _mm256_set1_pd(1.0);
        let lo32 = _mm256_set1_epi64x(LO32 as i64);
        let coef_v = _mm256_set1_pd(coef);
        let scale_v = _mm256_set1_pd(imit_scale);
        let thr_v = _mm256_set1_pd(gain_threshold);
        let mut any = 0i32;
        let mut i = 0;
        while i < probs.len() {
            let cf = _mm256_loadu_si256(counts_from.as_ptr().add(i) as *const __m256i);
            let ct = _mm256_loadu_si256(counts_to.as_ptr().add(i) as *const __m256i);
            let act = _mm256_loadu_si256(active.as_ptr().add(i) as *const __m256i);
            let dead = _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpeq_epi64(cf, zero_i), _mm256_cmpeq_epi64(ct, zero_i)),
                _mm256_cmpeq_epi64(act, zero_i),
            );
            let lf = _mm256_loadu_pd(l_from.as_ptr().add(i));
            let lt = _mm256_loadu_pd(l_to.as_ptr().add(i));
            let gain = _mm256_sub_pd(lf, lt);
            // Live lanes: counts and activity pass, ℓ_from > 0, gain above
            // threshold (NaN gains compare false, exactly as the scalar
            // `gain <= thr → skip` keeps them out of the pair list).
            let live = _mm256_andnot_pd(
                _mm256_castsi256_pd(dead),
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GT_OQ>(lf, zero_d),
                    _mm256_cmp_pd::<_CMP_GT_OQ>(gain, thr_v),
                ),
            );
            // μ = clamp((coef·gain)/ℓ_from, 0, 1): same multiply, divide,
            // and bound sequence as the scalar arm, one rounding each.
            let mu = _mm256_div_pd(_mm256_mul_pd(coef_v, gain), lf);
            let mu = _mm256_min_pd(_mm256_max_pd(mu, zero_d), one_d);
            let x_to = u64_to_f64(ct, lo32);
            let prob = _mm256_mul_pd(_mm256_mul_pd(scale_v, x_to), mu);
            let masked = _mm256_and_pd(prob, live);
            any |= _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(masked, zero_d));
            _mm256_storeu_pd(probs.as_mut_ptr().add(i), masked);
            i += 4;
        }
        any != 0
    }

    #[inline]
    pub fn gather_window_pairs(
        window: &[f64],
        loads: &[u64],
        lo: u64,
        out0: &mut [f64],
        out1: &mut [f64],
    ) {
        // Bounds are checked up front so the gathers below cannot touch
        // memory outside `window` (same panic the scalar arm's indexing
        // would raise).
        let n = window.len();
        for &ld in loads {
            let off = (ld - lo) as usize;
            assert!(off + 1 < n, "window gather out of bounds");
        }
        // SAFETY: the public wrapper verified AVX2 availability, and every
        // gathered index was just bounds-checked.
        unsafe { gather_window_pairs_impl(window, loads, lo, out0, out1) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gather_window_pairs_impl(
        window: &[f64],
        loads: &[u64],
        lo: u64,
        out0: &mut [f64],
        out1: &mut [f64],
    ) {
        let n4 = loads.len() & !3;
        let lo_v = _mm256_set1_epi64x(lo as i64);
        let base = window.as_ptr();
        let mut i = 0;
        while i < n4 {
            let ld = _mm256_loadu_si256(loads.as_ptr().add(i) as *const __m256i);
            let idx = _mm256_sub_epi64(ld, lo_v);
            let g0 = _mm256_i64gather_pd::<8>(base, idx);
            let g1 = _mm256_i64gather_pd::<8>(base.add(1), idx);
            _mm256_storeu_pd(out0.as_mut_ptr().add(i), g0);
            _mm256_storeu_pd(out1.as_mut_ptr().add(i), g1);
            i += 4;
        }
        for l in n4..loads.len() {
            let off = (loads[l] - lo) as usize;
            out0[l] = window[off];
            out1[l] = window[off + 1];
        }
    }

    #[inline]
    pub fn affine_fill(a: f64, b: f64, start: u64, out: &mut [f64]) {
        // SAFETY: the public wrapper verified AVX2 availability.
        unsafe { affine_fill_impl(a, b, start, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn affine_fill_impl(a: f64, b: f64, start: u64, out: &mut [f64]) {
        let lo32 = _mm256_set1_epi64x(LO32 as i64);
        let a_v = _mm256_set1_pd(a);
        let b_v = _mm256_set1_pd(b);
        let step = _mm256_set1_epi64x(4);
        let mut idx =
            _mm256_add_epi64(_mm256_set1_epi64x(start as i64), _mm256_setr_epi64x(0, 1, 2, 3));
        let n4 = out.len() & !3;
        let mut j = 0;
        while j < n4 {
            let x = u64_to_f64(idx, lo32);
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_add_pd(_mm256_mul_pd(a_v, x), b_v));
            idx = _mm256_add_epi64(idx, step);
            j += 4;
        }
        for (j, slot) in out[n4..].iter_mut().enumerate() {
            *slot = a * (start + (n4 + j) as u64) as f64 + b;
        }
    }

    #[inline]
    pub fn monomial_fill(a: f64, k: u32, start: u64, out: &mut [f64]) {
        // SAFETY: the public wrapper verified AVX2 availability.
        unsafe { monomial_fill_impl(a, k, start, out) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn monomial_fill_impl(a: f64, k: u32, start: u64, out: &mut [f64]) {
        let lo32 = _mm256_set1_epi64x(LO32 as i64);
        let a_v = _mm256_set1_pd(a);
        let step = _mm256_set1_epi64x(4);
        let mut idx =
            _mm256_add_epi64(_mm256_set1_epi64x(start as i64), _mm256_setr_epi64x(0, 1, 2, 3));
        let n4 = out.len() & !3;
        let mut j = 0;
        while j < n4 {
            let x = u64_to_f64(idx, lo32);
            let v = match k {
                1 => _mm256_mul_pd(a_v, x),
                2 => _mm256_mul_pd(a_v, _mm256_mul_pd(x, x)),
                3 => {
                    let x2 = _mm256_mul_pd(x, x);
                    _mm256_mul_pd(a_v, _mm256_mul_pd(x, x2))
                }
                _ => {
                    let x2 = _mm256_mul_pd(x, x);
                    _mm256_mul_pd(a_v, _mm256_mul_pd(x2, x2))
                }
            };
            _mm256_storeu_pd(out.as_mut_ptr().add(j), v);
            idx = _mm256_add_epi64(idx, step);
            j += 4;
        }
        for (j, slot) in out[n4..].iter_mut().enumerate() {
            let x = (start + (n4 + j) as u64) as f64;
            *slot = match k {
                1 => a * x,
                2 => a * (x * x),
                3 => {
                    let x2 = x * x;
                    a * (x * x2)
                }
                _ => {
                    let x2 = x * x;
                    a * (x2 * x2)
                }
            };
        }
    }
}

/// The AVX-512 arm of the Philox keystream: identical partial-product
/// decomposition to the AVX2 arm, widened to eight lanes per vector
/// (`_mm512_mul_epu32` needs only `avx512f`). Must only be reached
/// through the public wrappers, which verify availability via
/// [`resolved`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use super::PhiloxSpec;
    use core::arch::x86_64::*;

    const LO32: u64 = 0xFFFF_FFFF;

    /// Full 64×64→128 multiply of a pre-split scalar constant against a
    /// lane vector — the 512-bit twin of the AVX2 `mulhilo`, same partial
    /// products and carry chain, bit-identical to the scalar `u128`
    /// widening multiply.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn mulhilo(
        a_lo: __m512i,
        a_hi: __m512i,
        b: __m512i,
        lo32: __m512i,
    ) -> (__m512i, __m512i) {
        let b_lo = _mm512_and_si512(b, lo32);
        let b_hi = _mm512_srli_epi64::<32>(b);
        let ll = _mm512_mul_epu32(a_lo, b_lo);
        let lh = _mm512_mul_epu32(a_lo, b_hi);
        let hl = _mm512_mul_epu32(a_hi, b_lo);
        let hh = _mm512_mul_epu32(a_hi, b_hi);
        // mid/mid2 cannot overflow: (2³²−1)² + (2³²−1) < 2⁶⁴.
        let mid = _mm512_add_epi64(lh, _mm512_srli_epi64::<32>(ll));
        let mid2 = _mm512_add_epi64(hl, _mm512_and_si512(mid, lo32));
        let hi = _mm512_add_epi64(
            hh,
            _mm512_add_epi64(_mm512_srli_epi64::<32>(mid), _mm512_srli_epi64::<32>(mid2)),
        );
        let lo = _mm512_or_si512(_mm512_slli_epi64::<32>(mid2), _mm512_and_si512(ll, lo32));
        (hi, lo)
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

    /// Sixteen lanes (two vectors) per sweep while they last, to hide the
    /// multiply-chain latency as in the AVX2 arm; then one vector for an
    /// 8-lane rest.
    #[target_feature(enable = "avx512f")]
    unsafe fn philox4x64_batch_impl(
        spec: PhiloxSpec,
        key: [u64; 2],
        ctr: [u64; 4],
        lane_word: usize,
        lanes: &[u64],
        out: &mut [[u64; 4]],
    ) {
        let n16 = lanes.len() & !15;
        for (chunk, blocks) in lanes[..n16].chunks_exact(16).zip(out[..n16].chunks_exact_mut(16)) {
            sweep::<2>(spec, key, ctr, lane_word, chunk, blocks);
        }
        for (chunk, blocks) in lanes[n16..].chunks_exact(8).zip(out[n16..].chunks_exact_mut(8)) {
            sweep::<1>(spec, key, ctr, lane_word, chunk, blocks);
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
        chunk: &[u64],
        blocks: &mut [[u64; 4]],
    ) {
        debug_assert!(chunk.len() == 8 * N && blocks.len() == 8 * N);
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
        let mut c = [shared; N];
        for (words, lanes) in c.iter_mut().zip(chunk.chunks_exact(8)) {
            words[lane_word] = _mm512_loadu_si512(lanes.as_ptr() as *const __m512i);
        }
        let mut k0 = _mm512_set1_epi64(key[0] as i64);
        let mut k1 = _mm512_set1_epi64(key[1] as i64);
        for _ in 0..spec.rounds {
            for words in c.iter_mut() {
                let [c0, c1, c2, c3] = *words;
                let (hi0, lo0) = mulhilo(m0_lo, m0_hi, c0, lo32);
                let (hi1, lo1) = mulhilo(m1_lo, m1_hi, c2, lo32);
                *words = [
                    _mm512_xor_si512(_mm512_xor_si512(hi1, c1), k0),
                    lo1,
                    _mm512_xor_si512(_mm512_xor_si512(hi0, c3), k1),
                    lo0,
                ];
            }
            k0 = _mm512_add_epi64(k0, w0);
            k1 = _mm512_add_epi64(k1, w1);
        }
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
    pub fn min_max_u64(vals: &[u64]) -> (u64, u64) {
        // SAFETY: the public wrapper verified AVX-512 availability.
        unsafe { min_max_u64_impl(vals) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn min_max_u64_impl(vals: &[u64]) -> (u64, u64) {
        let n8 = vals.len() & !7;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        if n8 >= 8 {
            // AVX-512 has native unsigned 64-bit min/max (`vpminuq` /
            // `vpmaxuq`) — no sign bias needed.
            let first = _mm512_loadu_si512(vals.as_ptr() as *const __m512i);
            let mut vmin = first;
            let mut vmax = first;
            let mut i = 8;
            while i < n8 {
                let v = _mm512_loadu_si512(vals.as_ptr().add(i) as *const __m512i);
                vmin = _mm512_min_epu64(vmin, v);
                vmax = _mm512_max_epu64(vmax, v);
                i += 8;
            }
            lo = _mm512_reduce_min_epu64(vmin);
            hi = _mm512_reduce_max_epu64(vmax);
        }
        for &v in &vals[n8..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
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
        if Dispatch::Avx2.is_available() {
            arms.push(Dispatch::Avx2);
        }
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
                    for d in [Dispatch::Avx2, Dispatch::Avx512] {
                        if !d.is_available() {
                            continue;
                        }
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
    fn add_assign_arms_agree_bitwise() {
        for d in both_arms() {
            for width in [1usize, 4, 7, 32] {
                let src: Vec<f64> = (0..width).map(|i| mix(i as u64) as f64 * 1e-3).collect();
                let mut out: Vec<f64> =
                    (0..width).map(|i| mix(i as u64 + 77) as f64 * 1e-6).collect();
                let mut reference = out.clone();
                add_assign(d, &mut out, &src);
                for (o, &s) in reference.iter_mut().zip(&src) {
                    *o += s;
                }
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{d:?} width {width}"
                );
            }
        }
    }

    #[test]
    fn min_max_arms_agree_across_the_u64_range() {
        for d in both_arms() {
            for width in [1usize, 4, 6, 32] {
                let vals: Vec<u64> = (0..width)
                    .map(|i| if i % 3 == 0 { mix(i as u64) } else { mix(i as u64) >> 40 })
                    .collect();
                let lo = *vals.iter().min().unwrap();
                let hi = *vals.iter().max().unwrap();
                assert_eq!(min_max_u64(d, &vals), (lo, hi), "{d:?} width {width}");
            }
            // Values straddling the signed boundary exercise the bias.
            let vals = [0u64, u64::MAX, 1 << 63, (1 << 63) - 1];
            assert_eq!(min_max_u64(d, &vals), (0, u64::MAX), "{d:?} boundary");
        }
    }

    #[test]
    fn any_helpers_agree_with_reference() {
        for d in both_arms() {
            for width in [1usize, 4, 5, 32] {
                for case in 0..64u64 {
                    let a: Vec<u64> = (0..width).map(|i| mix(case * 131 + i as u64) % 3).collect();
                    let b: Vec<u64> = (0..width).map(|i| mix(case * 137 + i as u64) % 3).collect();
                    let m: Vec<u64> = (0..width).map(|i| mix(case * 139 + i as u64) % 2).collect();
                    let expect_pair = (0..width).any(|l| a[l] > 0 && b[l] > 0 && m[l] != 0);
                    let expect_one = (0..width).any(|l| a[l] > 0 && m[l] != 0);
                    assert_eq!(any_pair_nonzero(d, &a, &b, &m), expect_pair, "{d:?} {case}");
                    assert_eq!(any_nonzero(d, &a, &m), expect_one, "{d:?} {case}");
                }
            }
        }
    }

    #[test]
    fn imitation_probs_arms_agree_bitwise() {
        let coef = 0.25 / 2.0;
        let scale = 1.0 / 119.0;
        for thr in [0.0, 0.5] {
            for width in [4usize, 8, 17, 32] {
                let cf: Vec<u64> = (0..width).map(|i| mix(i as u64) % 4).collect();
                let ct: Vec<u64> =
                    (0..width).map(|i| (mix(i as u64 + 7) % 5) * 1_000_003).collect();
                let act: Vec<u64> = (0..width).map(|i| u64::from(i % 5 != 0)).collect();
                let lf: Vec<f64> =
                    (0..width).map(|i| (mix(i as u64 + 13) % 100) as f64 - 2.0).collect();
                let lt: Vec<f64> =
                    (0..width).map(|i| (mix(i as u64 + 17) % 100) as f64 * 0.5).collect();
                let mut scalar = vec![0.0; width];
                imitation_pair_probs(
                    Dispatch::Scalar,
                    &cf,
                    &ct,
                    &act,
                    &lf,
                    &lt,
                    scale,
                    coef,
                    thr,
                    &mut scalar,
                );
                // Reference: the scalar engine's exact sequence.
                for l in 0..width {
                    let expect = if act[l] != 0 && cf[l] > 0 && ct[l] > 0 {
                        let gain = lf[l] - lt[l];
                        if lf[l] <= 0.0 || gain <= thr {
                            0.0
                        } else {
                            (scale * ct[l] as f64) * (coef * gain / lf[l]).clamp(0.0, 1.0)
                        }
                    } else {
                        0.0
                    };
                    assert_eq!(scalar[l].to_bits(), expect.to_bits(), "lane {l}");
                }
                if Dispatch::Avx2.is_available() {
                    let mut vector = vec![0.0; width];
                    imitation_pair_probs(
                        Dispatch::Avx2.resolve(),
                        &cf,
                        &ct,
                        &act,
                        &lf,
                        &lt,
                        scale,
                        coef,
                        thr,
                        &mut vector,
                    );
                    assert_eq!(
                        scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        vector.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "thr {thr} width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_window_pairs_arms_agree() {
        for d in both_arms() {
            let window: Vec<f64> = (0..50).map(|i| i as f64 * 1.5 + 0.25).collect();
            for width in [1usize, 4, 9, 32] {
                let loads: Vec<u64> = (0..width).map(|i| 100 + mix(i as u64) % 48).collect();
                let mut o0 = vec![0.0; width];
                let mut o1 = vec![0.0; width];
                gather_window_pairs(d, &window, &loads, 100, &mut o0, &mut o1);
                for l in 0..width {
                    let off = (loads[l] - 100) as usize;
                    assert_eq!(o0[l].to_bits(), window[off].to_bits(), "{d:?} lane {l}");
                    assert_eq!(o1[l].to_bits(), window[off + 1].to_bits(), "{d:?} lane {l}");
                }
            }
        }
    }

    #[test]
    fn fills_match_pointwise_bitwise() {
        for d in both_arms() {
            let mut out = vec![0.0; 37];
            // Bases beyond 2⁵³ exercise the exact-conversion rounding.
            for start in [0u64, 17, 1 << 40, (1 << 53) + 12_345, u64::MAX - 100] {
                affine_fill(d, 2.5, 0.75, start, &mut out);
                for (j, v) in out.iter().enumerate() {
                    let expect = 2.5 * (start + j as u64) as f64 + 0.75;
                    assert_eq!(v.to_bits(), expect.to_bits(), "{d:?} affine at {start}+{j}");
                }
                for k in 1..=4u32 {
                    monomial_fill(d, 1.5, k, start, &mut out);
                    for (j, v) in out.iter().enumerate() {
                        let x = (start + j as u64) as f64;
                        let expect = 1.5 * x.powi(k as i32);
                        assert_eq!(v.to_bits(), expect.to_bits(), "{d:?} k={k} at {start}+{j}");
                    }
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
        std::env::set_var(DISPATCH_ENV, "avx2");
        let d = Dispatch::detect();
        assert!(d == Dispatch::Avx2 || !avx2_available());
        std::env::set_var(DISPATCH_ENV, "avx512");
        let d = Dispatch::detect();
        assert!(d == Dispatch::Avx512 || !avx512_available());
        std::env::remove_var(DISPATCH_ENV);
    }
}
