//! The `DrawStream` abstraction: one draw interface, two RNG backends.
//!
//! Every randomized kernel in the workspace draws through [`DrawRng`]: the
//! [`Rng`] interface plus two *positioning hooks*, [`begin_round`] and
//! [`begin_site`]. For the sequential xoshiro backend the hooks are no-ops
//! and the consumed stream is bit-identical to passing the raw [`SmallRng`]
//! (all historical pins hold unmodified); for the counter backend they
//! reposition the [`CounterRng`] so each draw is addressed by
//! `(trial, round, site, index)` — see [`crate::counter`] for the key
//! schedule. A third hook, [`addressed`], tells a kernel which of the two
//! it is drawing from: only an addressed stream lets it leave a site
//! nobody observes undrawn, or fetch many sites' first blocks (or just
//! their first words) at once through [`site_blocks`] and [`site_words`].
//!
//! [`begin_round`]: DrawRng::begin_round
//! [`begin_site`]: DrawRng::begin_site
//! [`addressed`]: DrawRng::addressed
//! [`site_blocks`]: DrawRng::site_blocks
//! [`site_words`]: DrawRng::site_words

use crate::counter::CounterRng;
use crate::seeds::seeded_rng;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Which RNG backend an experiment draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RngMode {
    /// Sequential xoshiro256++ per trial (the historical default; all
    /// pre-existing bit pins are in this mode).
    Xoshiro,
    /// Counter-based Philox 4×64, addressed by `(trial, round, site,
    /// index)` — bit-identical across thread/shard counts by construction.
    Counter,
}

impl RngMode {
    /// The canonical lowercase name (`"xoshiro"` / `"counter"`), as
    /// accepted by `--rng` and printed in reproducibility headers.
    pub fn name(self) -> &'static str {
        match self {
            RngMode::Xoshiro => "xoshiro",
            RngMode::Counter => "counter",
        }
    }

    /// Parse a canonical name back into a mode.
    pub fn parse(s: &str) -> Option<RngMode> {
        match s {
            "xoshiro" => Some(RngMode::Xoshiro),
            "counter" => Some(RngMode::Counter),
            _ => None,
        }
    }

    /// Stable single-byte wire code (shard headers).
    pub fn code(self) -> u8 {
        match self {
            RngMode::Xoshiro => 0,
            RngMode::Counter => 1,
        }
    }

    /// Decode a wire code written by [`RngMode::code`].
    pub fn from_code(code: u8) -> Option<RngMode> {
        match code {
            0 => Some(RngMode::Xoshiro),
            1 => Some(RngMode::Counter),
            _ => None,
        }
    }
}

impl std::fmt::Display for RngMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// [`Rng`] plus stream-positioning hooks.
///
/// Kernels call [`begin_round`](DrawRng::begin_round) once per concurrent
/// round and [`begin_site`](DrawRng::begin_site) once per draw site (origin
/// strategy, player, …) before drawing. Sequential generators ignore the
/// hooks (default no-op bodies), so threading `DrawRng` through a kernel
/// does not perturb an existing sequential stream by a single bit.
pub trait DrawRng: Rng {
    /// Whether every draw is a pure function of its `(round, site, index)`
    /// address, so that skipping a site — neither calling
    /// [`begin_site`](DrawRng::begin_site) for it nor drawing from it —
    /// leaves every other site's words unchanged.
    ///
    /// Kernels may skip a site only when this returns `true` *and* every
    /// outcome the site's draws could select is provably the same (e.g.
    /// no player on the site's strategy can move). The default is `false`:
    /// a sequential stream, or a wrapper that does not forward this hook,
    /// keeps the full-draw path, where every site consumes its words
    /// whether or not they matter. Implement it only for streams whose
    /// positioning hooks really do address every word.
    #[inline]
    fn addressed(&self) -> bool {
        false
    }

    /// Position the stream at the start of `round`.
    #[inline]
    fn begin_round(&mut self, round: u64) {
        let _ = round;
    }

    /// Position the stream at the start of `site` within the current round.
    #[inline]
    fn begin_site(&mut self, site: u64) {
        let _ = site;
    }

    /// The first four words of each of `sites` in the current round:
    /// `out[i]` is what `begin_site(sites[i])` followed by four `next_u64`
    /// calls would return. Afterwards the stream's position is
    /// unspecified; begin a site before drawing from it again.
    ///
    /// Kernels call this only when [`addressed`](DrawRng::addressed) is
    /// `true`: on a sequential stream the words of one site depend on
    /// every earlier draw, so the result is exact there only if the caller
    /// consumes all four words of every site in order. The default body is
    /// that per-site walk; [`CounterRng`] overrides it with one batched
    /// across-site Philox sweep that computes the same words.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != sites.len()`.
    #[inline]
    fn site_blocks(&mut self, sites: &[u64], out: &mut [[u64; 4]]) {
        assert_eq!(out.len(), sites.len(), "one output block per site");
        for (block, &site) in out.iter_mut().zip(sites) {
            self.begin_site(site);
            *block = [self.next_u64(), self.next_u64(), self.next_u64(), self.next_u64()];
        }
    }

    /// The first word of each of `sites` in the current round: `out[i]` is
    /// what `begin_site(sites[i])` followed by one `next_u64` call would
    /// return, word 0 of the block [`site_blocks`](DrawRng::site_blocks)
    /// returns. A kernel whose decision reads one word per site (the pure
    /// imitation player round) fetches only that word. Afterwards the
    /// stream's position is unspecified, as after `site_blocks`.
    ///
    /// Kernels call this only when [`addressed`](DrawRng::addressed) is
    /// `true`, for the reason `site_blocks` gives. The default body is the
    /// per-site walk; [`CounterRng`] overrides it with one batched
    /// across-site Philox sweep that runs the last round only as far as
    /// word 0 needs.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != sites.len()`.
    #[inline]
    fn site_words(&mut self, sites: &[u64], out: &mut [u64]) {
        assert_eq!(out.len(), sites.len(), "one output word per site");
        for (word, &site) in out.iter_mut().zip(sites) {
            self.begin_site(site);
            *word = self.next_u64();
        }
    }
}

/// Sequential backend: the hooks are no-ops, the stream is untouched.
impl DrawRng for SmallRng {}

impl DrawRng for CounterRng {
    #[inline]
    fn addressed(&self) -> bool {
        true
    }

    #[inline]
    fn begin_round(&mut self, round: u64) {
        CounterRng::begin_round(self, round);
    }

    #[inline]
    fn begin_site(&mut self, site: u64) {
        CounterRng::begin_site(self, site);
    }

    #[inline]
    fn site_blocks(&mut self, sites: &[u64], out: &mut [[u64; 4]]) {
        CounterRng::site_blocks(self, sites, out);
    }

    #[inline]
    fn site_words(&mut self, sites: &[u64], out: &mut [u64]) {
        CounterRng::site_words(self, sites, out);
    }
}

impl<R: DrawRng + ?Sized> DrawRng for &mut R {
    #[inline]
    fn addressed(&self) -> bool {
        (**self).addressed()
    }

    #[inline]
    fn begin_round(&mut self, round: u64) {
        (**self).begin_round(round);
    }

    #[inline]
    fn begin_site(&mut self, site: u64) {
        (**self).begin_site(site);
    }

    #[inline]
    fn site_blocks(&mut self, sites: &[u64], out: &mut [[u64; 4]]) {
        (**self).site_blocks(sites, out);
    }

    #[inline]
    fn site_words(&mut self, sites: &[u64], out: &mut [u64]) {
        (**self).site_words(sites, out);
    }
}

/// A trial's random stream under either backend.
///
/// [`DrawStream::for_trial`] is the single constructor for per-trial
/// randomness: both arms root in [`crate::split_seed`], so the mapping from
/// `(mode, base_seed, trial)` to a stream is fully documented by
/// `seeds.rs` plus the [`crate::counter`] key schedule.
#[derive(Debug, Clone)]
pub enum DrawStream {
    /// Sequential xoshiro256++ seeded with `split_seed(base_seed, trial)` —
    /// exactly the stream `seeded_rng(base_seed, trial)` produces.
    Xoshiro(SmallRng),
    /// Counter-mode Philox stream for the trial.
    Counter(CounterRng),
}

impl DrawStream {
    /// The stream for replica `trial` of the experiment keyed by
    /// `base_seed`, under `mode`.
    pub fn for_trial(mode: RngMode, base_seed: u64, trial: u64) -> DrawStream {
        match mode {
            RngMode::Xoshiro => DrawStream::Xoshiro(seeded_rng(base_seed, trial)),
            RngMode::Counter => DrawStream::Counter(CounterRng::for_trial(base_seed, trial)),
        }
    }

    /// Wrap an already-seeded sequential generator (single-run CLI path,
    /// which historically seeds `SmallRng` directly from the user seed).
    pub fn from_small_rng(rng: SmallRng) -> DrawStream {
        DrawStream::Xoshiro(rng)
    }

    /// Which backend this stream draws from.
    pub fn mode(&self) -> RngMode {
        match self {
            DrawStream::Xoshiro(_) => RngMode::Xoshiro,
            DrawStream::Counter(_) => RngMode::Counter,
        }
    }
}

impl RngCore for DrawStream {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        match self {
            DrawStream::Xoshiro(r) => r.next_u32(),
            DrawStream::Counter(r) => r.next_u32(),
        }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        match self {
            DrawStream::Xoshiro(r) => r.next_u64(),
            DrawStream::Counter(r) => r.next_u64(),
        }
    }
}

impl DrawRng for DrawStream {
    #[inline]
    fn addressed(&self) -> bool {
        matches!(self, DrawStream::Counter(_))
    }

    #[inline]
    fn begin_round(&mut self, round: u64) {
        match self {
            DrawStream::Xoshiro(_) => {}
            DrawStream::Counter(r) => r.begin_round(round),
        }
    }

    #[inline]
    fn begin_site(&mut self, site: u64) {
        match self {
            DrawStream::Xoshiro(_) => {}
            DrawStream::Counter(r) => r.begin_site(site),
        }
    }

    #[inline]
    fn site_blocks(&mut self, sites: &[u64], out: &mut [[u64; 4]]) {
        match self {
            DrawStream::Xoshiro(r) => r.site_blocks(sites, out),
            DrawStream::Counter(r) => DrawRng::site_blocks(r, sites, out),
        }
    }

    #[inline]
    fn site_words(&mut self, sites: &[u64], out: &mut [u64]) {
        match self {
            DrawStream::Xoshiro(r) => r.site_words(sites, out),
            DrawStream::Counter(r) => DrawRng::site_words(r, sites, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_stream_matches_seeded_rng_bit_for_bit() {
        let mut stream = DrawStream::for_trial(RngMode::Xoshiro, 11, 4);
        let mut raw = seeded_rng(11, 4);
        // Interleave positioning hooks to prove they do not perturb the
        // sequential stream.
        stream.begin_round(3);
        for i in 0..32u64 {
            stream.begin_site(i);
            assert_eq!(stream.next_u64(), raw.next_u64());
        }
    }

    #[test]
    fn counter_stream_honors_positioning() {
        let mut stream = DrawStream::for_trial(RngMode::Counter, 11, 4);
        stream.begin_round(9);
        stream.begin_site(2);
        let first = stream.next_u64();
        assert_eq!(first, CounterRng::at(11, 4, 9, 2, 0));
    }

    #[test]
    fn only_counter_streams_are_addressed() {
        let mut counter = DrawStream::for_trial(RngMode::Counter, 11, 4);
        let mut xoshiro = DrawStream::for_trial(RngMode::Xoshiro, 11, 4);
        assert!(counter.addressed());
        assert!(!xoshiro.addressed());
        assert!(CounterRng::for_trial(11, 4).addressed());
        assert!(!seeded_rng(11, 4).addressed());
        // `&mut R` forwards the hook rather than falling back to `false`.
        fn through<R: DrawRng>(r: R) -> bool {
            r.addressed()
        }
        assert!(through(&mut counter));
        assert!(!through(&mut xoshiro));
    }

    #[test]
    fn batched_site_blocks_match_the_default_walk() {
        /// Forwards everything but `site_blocks`, so it gets the default.
        struct Plain(CounterRng);
        impl RngCore for Plain {
            fn next_u32(&mut self) -> u32 {
                self.0.next_u32()
            }
            fn next_u64(&mut self) -> u64 {
                self.0.next_u64()
            }
        }
        impl DrawRng for Plain {
            fn begin_site(&mut self, site: u64) {
                self.0.begin_site(site);
            }
        }
        let sites = [9u64, 0, 4, 4, 1 << 40, 3, 17, 2, 8, 11, 5];
        let mut plain = Plain(CounterRng::for_trial(11, 4));
        plain.0.begin_round(6);
        let mut walked = [[0u64; 4]; 11];
        plain.site_blocks(&sites, &mut walked);
        let mut stream = DrawStream::for_trial(RngMode::Counter, 11, 4);
        stream.begin_round(6);
        let mut batched = [[0u64; 4]; 11];
        // Through `&mut R`, which must forward the override.
        fn through<R: DrawRng>(mut r: R, sites: &[u64], out: &mut [[u64; 4]]) {
            r.site_blocks(sites, out);
        }
        through(&mut stream, &sites, &mut batched);
        assert_eq!(walked, batched);
        assert_eq!(batched[2][3], CounterRng::at(11, 4, 6, 4, 3));
        // Word 0 alone, walked and batched (through `&mut R` too), is word
        // 0 of those blocks.
        let (mut walked_words, mut batched_words) = ([0u64; 11], [0u64; 11]);
        plain.site_words(&sites, &mut walked_words);
        fn words_through<R: DrawRng>(mut r: R, sites: &[u64], out: &mut [u64]) {
            r.site_words(sites, out);
        }
        words_through(&mut stream, &sites, &mut batched_words);
        let word0: Vec<u64> = batched.iter().map(|block| block[0]).collect();
        assert_eq!(walked_words[..], word0[..]);
        assert_eq!(batched_words[..], word0[..]);
    }

    #[test]
    fn mode_round_trips_through_names_and_codes() {
        for mode in [RngMode::Xoshiro, RngMode::Counter] {
            assert_eq!(RngMode::parse(mode.name()), Some(mode));
            assert_eq!(RngMode::from_code(mode.code()), Some(mode));
            assert_eq!(DrawStream::for_trial(mode, 1, 0).mode(), mode);
        }
        assert_eq!(RngMode::parse("philox"), None);
        assert_eq!(RngMode::from_code(9), None);
    }
}
