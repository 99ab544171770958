//! Counter-based (stateless, position-addressable) random streams.
//!
//! The concurrent round engines draw randomness at *sites*: one multinomial
//! per origin strategy in the aggregate engine, one decision per player in
//! the player-level engine. A sequential generator forces every site to wait
//! for every earlier site's draws; a counter-based generator instead makes
//! each 64-bit variate a pure function of its *address*, so a vector sweep
//! can draw many sites' streams at once and still reproduce the
//! site-by-site run bit for bit.
//!
//! # Construction
//!
//! The block function is Philox-style 4×64 with 10 rounds (Salmon et al.,
//! "Parallel random numbers: as easy as 1, 2, 3", SC'11): two 64×64→128-bit
//! multiplies per round, a two-word key bumped by Weyl constants each round.
//! It maps a 256-bit counter and a 128-bit key to four statistically
//! independent 64-bit outputs.
//!
//! # Key schedule
//!
//! Every draw in a run is addressed by `(trial, round, site, index)`:
//!
//! * **key** — `[split_seed(base_seed, KEY_STREAM_0), split_seed(base_seed,
//!   KEY_STREAM_1)]`: the 128-bit cipher key is derived from the
//!   experiment's base seed alone, through the same [`split_seed`]
//!   finalizer that seeds xoshiro trials (`crates/sampling/src/seeds.rs` is
//!   the single root of all derived randomness).
//! * **counter word 3** — `trial`: the ensemble replica index.
//! * **counter word 2** — `round`: set by [`CounterRng::begin_round`]
//!   (the engines call it once at the top of every concurrent round).
//! * **counter word 1** — `site`: set by [`CounterRng::begin_site`] — the
//!   origin strategy id in the aggregate engine, the global player index in
//!   the player-level engine. Beginning a site resets the draw index.
//! * **counter word 0** — `index >> 2`: the running draw index within the
//!   site, four 64-bit variates per Philox block (`index & 3` selects the
//!   word).
//!
//! Distinct `(trial, round, site, index)` tuples therefore touch distinct
//! counter blocks (or distinct words of one block), so the stream a site
//! consumes does not depend on how many draws any *other* site made — the
//! property that makes counter mode bit-identical across thread counts
//! and shard counts by construction.
//!
//! # Skipping unobservable sites
//!
//! The same property lets a kernel leave a site *undrawn*: skipping a
//! site's `begin_site` and draws shifts no other site's words. A kernel may
//! do so when every outcome the site's draws could select is the same —
//! the player-level engine skips players whose origin strategy has no
//! destination with positive migration probability. Kernels ask the
//! stream through [`DrawRng::addressed`](crate::DrawRng::addressed), which
//! is `true` for [`CounterRng`] and `false` by default, so sequential
//! streams and wrappers that do not forward it keep the full-draw path.
//!
//! # Batched sites
//!
//! Consecutive sites of one `(trial, round)` differ only in counter word 1,
//! so their first blocks can come from one across-site Philox sweep, the
//! same vector kernel [`counter_blocks`] runs across trials (word 3).
//! [`DrawRng::site_blocks`](crate::DrawRng::site_blocks) is that
//! sweep: `out[i]` is the first block of `sites[i]`, the four words
//! `begin_site(sites[i])` and four draws would return. Its contract:
//!
//! * the trait's default body is exactly that per-site walk, so every
//!   [`DrawRng`](crate::DrawRng) has it, and it is exact for any addressed
//!   stream;
//! * [`CounterRng`] overrides it with the batched sweep under
//!   [`Dispatch::global`] ([`counter_site_blocks`] is the same sweep with
//!   an explicit dispatch), and `&mut R` and
//!   [`DrawStream`](crate::DrawStream) forward it;
//! * kernels call it only when `addressed()` is `true`: on a sequential
//!   stream a site's words depend on every earlier draw.
//!
//! [`DrawRng::site_words`](crate::DrawRng::site_words) is the same sweep
//! cut to word 0: the last round computes only the product word 0 reads,
//! and nothing is transposed. It has the same contract.
//!
//! The player-level engine compacts each class's movable players and
//! fetches their words 256 sites per call. A pure-imitation decision reads
//! word 0 alone, so those classes fetch `site_words`; with exploration a
//! decision reads up to three words, so those fetch `site_blocks`.

use crate::seeds::split_seed;
use congames_simd::{philox4x64_batch, philox4x64_word0_batch, Dispatch, PhiloxSpec};
use rand::RngCore;

/// Stream indices reserved for deriving the two Philox key words from a
/// base seed. Arbitrary but pinned: changing them changes every
/// counter-mode stream (they are part of the pinned construction).
const KEY_STREAM_0: u64 = 0x2009_0808_0000_0000;
const KEY_STREAM_1: u64 = 0x2009_0808_0000_0001;

/// Philox 4×64 round multipliers (Random123 reference constants).
const PHILOX_M0: u64 = 0xD2E7_470E_E14C_6C93;
const PHILOX_M1: u64 = 0xCA5A_8263_9512_1157;
/// Weyl key-schedule increments: ⌊2⁶⁴·φ⌋ and ⌊2⁶⁴·(√3−1)⌋.
const PHILOX_W0: u64 = 0x9E37_79B9_7F4A_7C15;
const PHILOX_W1: u64 = 0xBB67_AE85_84CA_A73B;
/// Ten rounds is the Random123 default safety margin (seven pass BigCrush).
const PHILOX_ROUNDS: u32 = 10;

/// The pinned construction above, in the form the `congames-simd` batched
/// generator consumes. One definition site: the batch arm runs the same
/// constants the scalar [`philox4x64`] runs.
const SPEC: PhiloxSpec = PhiloxSpec {
    m0: PHILOX_M0,
    m1: PHILOX_M1,
    w0: PHILOX_W0,
    w1: PHILOX_W1,
    rounds: PHILOX_ROUNDS,
};

/// The 128-bit cipher key of the experiment keyed by `base_seed`.
fn key_for(base_seed: u64) -> [u64; 2] {
    [split_seed(base_seed, KEY_STREAM_0), split_seed(base_seed, KEY_STREAM_1)]
}

#[inline]
fn mulhilo(a: u64, b: u64) -> (u64, u64) {
    let wide = a as u128 * b as u128;
    ((wide >> 64) as u64, wide as u64)
}

/// One keyed Philox 4×64-10 block: 256-bit counter in, 256 random bits out.
#[inline]
fn philox4x64(mut key: [u64; 2], mut ctr: [u64; 4]) -> [u64; 4] {
    for _ in 0..PHILOX_ROUNDS {
        let (hi0, lo0) = mulhilo(PHILOX_M0, ctr[0]);
        let (hi1, lo1) = mulhilo(PHILOX_M1, ctr[2]);
        ctr = [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0];
        key[0] = key[0].wrapping_add(PHILOX_W0);
        key[1] = key[1].wrapping_add(PHILOX_W1);
    }
    ctr
}

/// A counter-mode random stream addressed by `(trial, round, site, index)`.
///
/// Implements [`RngCore`], so every sampler in this crate (binomial,
/// multinomial) works on it unchanged; the engines position it with
/// [`begin_round`](CounterRng::begin_round) /
/// [`begin_site`](CounterRng::begin_site) and then draw sequentially within
/// the site. See the [module docs](self) for the key schedule.
#[derive(Debug, Clone)]
pub struct CounterRng {
    key: [u64; 2],
    trial: u64,
    round: u64,
    site: u64,
    /// Next draw index within the current `(trial, round, site)` scope.
    index: u64,
    /// Cached output block for counter word 0 == `block_id` (u64::MAX when
    /// invalid): draws within a site consume 4 words per Philox call.
    block: [u64; 4],
    block_id: u64,
}

impl CounterRng {
    /// The stream for replica `trial` of the experiment keyed by
    /// `base_seed`. Positioned at round 0, site 0, index 0.
    pub fn for_trial(base_seed: u64, trial: u64) -> Self {
        CounterRng {
            key: key_for(base_seed),
            trial,
            round: 0,
            site: 0,
            index: 0,
            block: [0; 4],
            block_id: u64::MAX,
        }
    }

    /// Reposition the stream at the start of `round` (site 0, index 0).
    #[inline]
    pub fn begin_round(&mut self, round: u64) {
        self.round = round;
        self.site = 0;
        self.index = 0;
        self.block_id = u64::MAX;
    }

    /// Reposition the stream at the start of `site` within the current
    /// round (index 0).
    #[inline]
    pub fn begin_site(&mut self, site: u64) {
        self.site = site;
        self.index = 0;
        self.block_id = u64::MAX;
    }

    /// The variate at an explicit `(trial, round, site, index)` address —
    /// the pure function the sequential interface walks. Exposed so tests
    /// can pin random access against it.
    pub fn at(base_seed: u64, trial: u64, round: u64, site: u64, index: u64) -> u64 {
        philox4x64(key_for(base_seed), [index >> 2, site, round, trial])[(index & 3) as usize]
    }

    /// The first block of each of `sites` in the current `(trial, round)`,
    /// from one across-site sweep (see [`counter_site_blocks`]). Leaves the
    /// stream's own position untouched.
    #[inline]
    pub(crate) fn site_blocks(&self, sites: &[u64], out: &mut [[u64; 4]]) {
        philox4x64_batch(
            Dispatch::global(),
            SPEC,
            self.key,
            [0, 0, self.round, self.trial],
            1,
            sites,
            out,
        );
    }

    /// Word 0 of the first block of each of `sites` in the current
    /// `(trial, round)`: `out[i] == site_blocks(..)[i][0]`, from one
    /// across-site sweep that computes only that word. Leaves the stream's
    /// own position untouched.
    #[inline]
    pub(crate) fn site_words(&self, sites: &[u64], out: &mut [u64]) {
        philox4x64_word0_batch(
            Dispatch::global(),
            SPEC,
            self.key,
            [0, 0, self.round, self.trial],
            1,
            sites,
            out,
        );
    }
}

/// Batched random access: `out[i]` receives the four words at addresses
/// `(trials[i], round, site, block*4 .. block*4+4)` of the experiment keyed
/// by `base_seed` — i.e. `out[i][j] == CounterRng::at(base_seed, trials[i],
/// round, site, block*4 + j)` for every `i`, produced by one across-trial
/// Philox sweep. Bit-identical in every dispatch arm.
///
/// # Panics
///
/// Panics if `out.len() != trials.len()`.
pub fn counter_blocks(
    dispatch: Dispatch,
    base_seed: u64,
    round: u64,
    site: u64,
    block: u64,
    trials: &[u64],
    out: &mut [[u64; 4]],
) {
    philox4x64_batch(dispatch, SPEC, key_for(base_seed), [block, site, round, 0], 3, trials, out);
}

/// Site-batched random access: `out[i]` receives the first block of site
/// `sites[i]` in `(trial, round)` of the experiment keyed by `base_seed` —
/// `out[i][j] == CounterRng::at(base_seed, trial, round, sites[i], j)` —
/// produced by one across-site Philox sweep. Bit-identical in every
/// dispatch arm. [`DrawRng::site_blocks`](crate::DrawRng::site_blocks) on a
/// [`CounterRng`] is this sweep under [`Dispatch::global`].
///
/// # Panics
///
/// Panics if `out.len() != sites.len()`.
pub fn counter_site_blocks(
    dispatch: Dispatch,
    base_seed: u64,
    trial: u64,
    round: u64,
    sites: &[u64],
    out: &mut [[u64; 4]],
) {
    philox4x64_batch(dispatch, SPEC, key_for(base_seed), [0, 0, round, trial], 1, sites, out);
}

impl RngCore for CounterRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        // Match the vendored xoshiro's convention of taking the high bits.
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let block_id = self.index >> 2;
        if block_id != self.block_id {
            self.block = philox4x64(self.key, [block_id, self.site, self.round, self.trial]);
            self.block_id = block_id;
        }
        let word = self.block[(self.index & 3) as usize];
        self.index += 1;
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_walk_matches_random_access() {
        let mut rng = CounterRng::for_trial(42, 3);
        rng.begin_round(5);
        rng.begin_site(17);
        for i in 0..9u64 {
            assert_eq!(rng.next_u64(), CounterRng::at(42, 3, 5, 17, i), "index {i}");
        }
    }

    #[test]
    fn site_streams_are_independent_of_draw_history() {
        // Stream at site B is the same whether or not site A drew first.
        let mut a = CounterRng::for_trial(7, 0);
        a.begin_round(2);
        a.begin_site(1);
        for _ in 0..13 {
            a.next_u64();
        }
        a.begin_site(2);
        let with_history: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();

        let mut b = CounterRng::for_trial(7, 0);
        b.begin_round(2);
        b.begin_site(2);
        let fresh: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(with_history, fresh);
    }

    #[test]
    fn addresses_are_distinct_across_coordinates() {
        let base = CounterRng::at(1, 0, 0, 0, 0);
        assert_ne!(base, CounterRng::at(1, 1, 0, 0, 0), "trial");
        assert_ne!(base, CounterRng::at(1, 0, 1, 0, 0), "round");
        assert_ne!(base, CounterRng::at(1, 0, 0, 1, 0), "site");
        assert_ne!(base, CounterRng::at(1, 0, 0, 0, 1), "index");
        assert_ne!(base, CounterRng::at(2, 0, 0, 0, 0), "base seed");
    }

    #[test]
    fn pinned_philox_words() {
        // Construction pin: if any constant, the round count, or the key
        // schedule changes, these bits change and every counter-mode pin in
        // the workspace must be re-derived. Values captured from this
        // implementation and frozen.
        let got: Vec<u64> = (0..4).map(|i| CounterRng::at(20090808, 1, 2, 3, i)).collect();
        assert_eq!(
            got,
            vec![
                0xEA74_82E7_1E17_BEF7,
                0xABB0_9905_3266_E451,
                0xF6A8_E0BC_8FB1_682F,
                0x7EE7_FB72_9BCE_9F9C,
            ]
        );
    }

    #[test]
    fn counter_blocks_match_random_access() {
        let trials = [0u64, 3, 7, 8, 11, 1 << 40];
        let mut out = [[0u64; 4]; 6];
        for d in [Dispatch::Scalar, Dispatch::Avx512] {
            counter_blocks(d, 20090808, 5, 9, 2, &trials, &mut out);
            for (i, &t) in trials.iter().enumerate() {
                for j in 0..4u64 {
                    assert_eq!(
                        out[i][j as usize],
                        CounterRng::at(20090808, t, 5, 9, 2 * 4 + j),
                        "{d:?} trial {t} word {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn next_u32_takes_high_bits() {
        let mut rng = CounterRng::for_trial(9, 0);
        let mut twin = rng.clone();
        let w = rng.next_u64();
        assert_eq!(twin.next_u32(), (w >> 32) as u32);
    }
}
