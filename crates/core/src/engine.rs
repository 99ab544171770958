//! Concurrent round engines.
//!
//! Both engines realize the same stochastic process — every player
//! independently samples and decides per the protocol, all migrations apply
//! simultaneously — but with different cost profiles:
//!
//! * [`EngineKind::PlayerLevel`] iterates players one by one (`O(n)` per
//!   round). It mirrors a naive implementation and serves as ground truth.
//! * [`EngineKind::Aggregate`] exploits anonymity: players on the same
//!   origin strategy face identical probabilities, so the joint outcome per
//!   origin is a multinomial over destinations, sampled in `O(S²)` per round
//!   regardless of `n`.
//!
//! Statistical equivalence of the two engines is asserted in the crate's
//! tests and in the integration suite.

use congames_model::{
    potential, potential_delta_for_load_change, CongestionGame, GameError, GameParams, Migration,
    PlayerClass, ResourceId, State, StrategyId,
};
use congames_sampling::{multinomial_with_rest_into, DrawRng};
use congames_simd::{
    compact_sites, imitation_decide, imitation_decide_with, unit_f64, Dispatch, ImitationClass,
};
use rand::{Rng, RngCore};
use std::borrow::Cow;

use crate::error::DynamicsError;
use crate::expectation::PairFlow;
use crate::hook::RoundHook;
use crate::observe::Observer;
use crate::protocol::{ExplorationProtocol, ImitationProtocol, Protocol, SelfSampling};
use crate::stopping::{drive_round, stop_reason, RunOutcome, RunSummary, StopReason, StopSpec};
use crate::trajectory::{RecordConfig, Trajectory};

/// Which round engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Multinomial sampling per origin strategy; `O(S²)` per round.
    #[default]
    Aggregate,
    /// Explicit per-player iteration; `O(n)` per round. Ground truth.
    PlayerLevel,
}

/// Statistics of one executed round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Players that migrated.
    pub migrations: u64,
    /// Realized potential change `ΔΦ`.
    pub delta_potential: f64,
}

/// Flat CSR-style buffer of the positive-probability `(from, to)` pairs of
/// one round, grouped by origin: origin `j` owns the pair slice
/// `offsets[j]..offsets[j+1]` of `pair_to`/`pair_prob`.
///
/// Reused across rounds so the aggregate kernel performs no steady-state
/// heap allocations.
/// The `Default` value has an *empty* `offsets` vector — allocation-free,
/// so `mem::take` stays free in the per-round engine loop — and therefore
/// does **not** yet satisfy the CSR invariant; call [`PairBuffer::clear`]
/// once before the first `push`.
#[derive(Debug, Default)]
struct PairBuffer {
    origins: Vec<StrategyId>,
    /// `origins.len() + 1` offsets into `pair_to`/`pair_prob`.
    offsets: Vec<usize>,
    pair_to: Vec<StrategyId>,
    pair_prob: Vec<f64>,
}

impl PairBuffer {
    fn clear(&mut self) {
        self.origins.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.pair_to.clear();
        self.pair_prob.clear();
    }

    /// Append one pair; `for_each_pair` visits origins contiguously, so a
    /// new origin group starts exactly when `from` changes.
    fn push(&mut self, from: StrategyId, to: StrategyId, prob: f64) {
        if self.origins.last() != Some(&from) {
            self.offsets.push(self.pair_to.len());
            self.origins.push(from);
        }
        self.pair_to.push(to);
        self.pair_prob.push(prob);
        *self.offsets.last_mut().expect("offsets is never empty") = self.pair_to.len();
    }
}

/// Most μ values the player-level kernel keeps per class visit (2²¹,
/// 16 MiB). A class whose `2·S_c²` values fit gets them written once per
/// visit by [`PlayerDecider::fill_rows`]; a larger class evaluates μ at
/// each decision.
const MU_TABLE_MAX: usize = 1 << 21;

/// Movable players whose first Philox words the counter-mode player walk
/// fetches and decides per batch.
const SITE_CHUNK: usize = 256;

/// One class's per-player decision under the pre-round state: the
/// sampling-pool constants, and the one μ definition that the
/// movable-origin mask and every decision evaluate, so the two agree bit
/// for bit.
///
/// μ has two sources: the class's μ table, which
/// [`PlayerDecider::fill_rows`] writes once per class visit when its
/// `2·S_c²` values fit [`MU_TABLE_MAX`] (`tabled`), or an evaluation at
/// each decision. Two decision paths share it. On an addressed
/// (counter-mode) stream, `fill_rows` also builds the movable mask. A
/// pure-imitation class then decides its movable players from word 0 of
/// their Philox blocks with `congames_simd::imitation_decide` (the
/// vector kernel over the table's imitation matrix) or
/// `imitation_decide_with` (μ evaluated per decision), and a class with an
/// exploration component decides each chunk from its blocks with
/// [`PlayerDecider::decide_chunk`]: the decisions are branch-free, and
/// only the migrations are written out. [`PlayerDecider::decide`] is the
/// sequential path — one player at a time from the stream, as a xoshiro
/// stream requires — and the full-draw reference the batch passes must
/// match bit for bit.
struct PlayerDecider<'a> {
    state: &'a State,
    game: &'a CongestionGame,
    params: &'a GameParams,
    imit: Option<ImitationProtocol>,
    expl: Option<ExplorationProtocol>,
    explore_prob: f64,
    /// Global strategy id of every player of the class, in site order.
    class_players: &'a [u32],
    /// Site (global player index) of the class's first player.
    start: usize,
    /// Global id of the class's first strategy.
    first: u32,
    s_c: usize,
    n_c: u64,
    self_exclude: bool,
    real_pool: u64,
    /// `real_pool`, plus one virtual agent per strategy when they are on.
    pool: u64,
    /// Whether the class's μ values live in the table.
    tabled: bool,
}

impl PlayerDecider<'_> {
    /// Whether the sampling pool holds virtual agents (one per strategy,
    /// so the pool outgrows the real players exactly when they are on).
    fn virtual_agents(&self) -> bool {
        self.pool != self.real_pool
    }

    /// The migration probability of a player on `from` handed `to`.
    fn mu(&self, from: StrategyId, to: StrategyId, is_explore: bool) -> f64 {
        let l_from = self.state.strategy_latency(self.game, from);
        let l_to = self.state.latency_after_move(self.game, from, to);
        let gain = l_from - l_to;
        if is_explore {
            exploration_mu(
                &self.expl.expect("explore implies protocol"),
                self.params,
                l_from,
                gain,
                self.s_c,
                self.n_c,
            )
        } else {
            imitation_mu(&self.imit.expect("imitate implies protocol"), self.params, l_from, gain)
        }
    }

    /// The table slot of `(from_local, to_local, is_explore)`, as a closure
    /// that owns the class size so a hot loop keeps it in a register: the
    /// imitation matrix first, the exploration one after it.
    fn table_index(&self) -> impl Fn(usize, usize, bool) -> usize + Copy {
        let s = self.s_c;
        move |from, to, is_explore| is_explore as usize * s * s + from * s + to
    }

    /// The class as the imitation decide kernel reads it.
    fn imitation_class(&self) -> ImitationClass<'_> {
        ImitationClass {
            players: self.class_players,
            start: self.start as u64,
            first: self.first,
            strategies: self.s_c,
            real_pool: self.real_pool,
            pool: self.pool,
            self_exclude: self.self_exclude,
        }
    }

    /// Movable-origin mask of class `class`, and, for a tabled class, its
    /// μ table: origin P is movable iff some destination the protocol
    /// could hand a player on P has μ > 0 — an imitated agent's strategy
    /// (occupied, or any with virtual agents) or an explored one (any).
    /// Every outcome for a player on an immovable origin is "stay".
    ///
    /// A tabled class evaluates μ once for every occupied origin × every
    /// such destination and writes it into `table`, so every decision that
    /// follows, on either path, reads each μ it needs and none is evaluated
    /// twice. An untabled class stops at an origin's first positive μ; when
    /// its support² exceeds its player count, the scan could cost more than
    /// it saves, so it evaluates no μ and marks every occupied origin
    /// movable. Returns whether any origin is movable.
    fn fill_rows(&self, class: usize, table: &mut Vec<f64>, movable: &mut Vec<bool>) -> bool {
        let (state, game) = (self.state, self.game);
        let all = || (self.first..self.first + self.s_c as u32).map(StrategyId::new);
        let imitates = self.imit.is_some() && self.pool > 0;
        let explores = self.explore_prob > 0.0;
        let (tabled, index) = (self.tabled, self.table_index());
        if tabled && table.len() < 2 * self.s_c * self.s_c {
            table.resize(2 * self.s_c * self.s_c, 0.0);
        }
        let local = |s: StrategyId| (s.raw() - self.first) as usize;
        movable.clear();
        movable.resize(self.s_c, false);
        // Over-marking moves no byte: a player on an immovable origin draws
        // and stays, and addressed words shift nobody else's.
        if !tabled {
            let support = state.support_of_class(game, class) as u64;
            if support.saturating_mul(support) > self.n_c {
                for from in state.occupied_or_scan(game, class) {
                    movable[local(from)] = true;
                }
                return true;
            }
        }
        let mut any_movable = false;
        for from in state.occupied_or_scan(game, class) {
            let mut can_move = false;
            // Visit one destination; `true` once the origin's answer is
            // settled (never for a tabled class, which fills whole rows).
            let mut visit = |to: StrategyId, is_explore: bool| {
                let mu = self.mu(from, to, is_explore);
                if tabled {
                    table[index(local(from), local(to), is_explore)] = mu;
                }
                can_move |= mu > 0.0;
                can_move && !tabled
            };
            let settled = imitates
                && if self.virtual_agents() {
                    all().any(|to| visit(to, false))
                } else {
                    state.occupied_or_scan(game, class).any(|to| visit(to, false))
                };
            if !settled && explores {
                all().any(|to| visit(to, true));
            }
            movable[local(from)] = can_move;
            any_movable |= can_move;
        }
        any_movable
    }

    /// Decide one chunk of movable players of a class with an exploration
    /// component straight from their first Philox blocks (`blocks[i]`
    /// belongs to global player `sites[i]`), writing the migrations to
    /// `moves` from `moved` on and returning the new count.
    ///
    /// The words sit at fixed indices: the coin is word 0, the pick word 1
    /// and the explore test word 2. An imitating player's test is the
    /// pick's remainder, as in [`PlayerDecider::decide`]. Virtual agents
    /// and self-exclusion are selects, and `mu_of(from_local, to_local,
    /// is_explore)` is called exactly when `decide` would look μ up, in
    /// player order.
    #[inline(always)]
    fn decide_chunk(
        &self,
        sites: &[u64],
        blocks: &[[u64; 4]],
        mu_of: impl FnMut(usize, usize, bool) -> f64,
        moves: &mut [(u64, u32)],
        moved: usize,
    ) -> usize {
        // Compile the loop-invariant pool shape in: without virtual agents
        // every draw names a real agent.
        if self.virtual_agents() {
            self.decide_chunk_in::<true>(sites, blocks, mu_of, moves, moved)
        } else {
            self.decide_chunk_in::<false>(sites, blocks, mu_of, moves, moved)
        }
    }

    /// The body of [`PlayerDecider::decide_chunk`] for one pool shape:
    /// `VIRTUAL` is `virtual_agents()`. Out of line, so the loop keeps its
    /// own registers.
    ///
    /// Each group of 64 players is decided into a destination array and a
    /// migration bitmask, and only then are the set bits written out: a
    /// store whose address waits on the previous player's decision would
    /// hold every later player's loads back.
    #[inline(never)]
    fn decide_chunk_in<const VIRTUAL: bool>(
        &self,
        sites: &[u64],
        blocks: &[[u64; 4]],
        mut mu_of: impl FnMut(usize, usize, bool) -> f64,
        moves: &mut [(u64, u32)],
        mut moved: usize,
    ) -> usize {
        let (explore_prob, pool, real_pool, s_c) =
            (self.explore_prob, self.pool, self.real_pool, self.s_c as u64);
        let can_imitate = self.imit.is_some() && pool > 0;
        let (players, first, self_exclude, start) =
            (self.class_players, self.first, self.self_exclude, self.start);
        let last = players.len() - 1;
        let mut dest = [0u32; 64];
        for (sites, blocks) in sites.chunks(64).zip(blocks.chunks(64)) {
            let mut migrating = 0u64;
            for (bit, ((&site, block), dest)) in sites.iter().zip(blocks).zip(&mut dest).enumerate()
            {
                let local = site as usize - start;
                let from = (players[local] - first) as usize;
                let explore = unit_f64(block[0]) < explore_prob;
                let pick = block[1];
                // Imitation: the multiply-shift quotient samples the
                // agent, the remainder is the test variate.
                let wide = pick as u128 * pool as u128;
                let draw = (wide >> 64) as u64;
                // A player who cannot imitate (an empty pool) names no
                // real agent, so its unused index stays in bounds.
                let real = can_imitate && (!VIRTUAL || draw < real_pool);
                let j = draw as usize + ((draw as usize >= local) & self_exclude) as usize;
                let agent = (players[if real { j } else { last }] - first) as usize;
                let imitated = if real { agent } else { draw.wrapping_sub(real_pool) as usize };
                let explored = ((pick as u128 * s_c as u128) >> 64) as usize;
                let to = if explore { explored } else { imitated };
                let u = if explore { unit_f64(block[2]) } else { unit_f64(wide as u64) };
                let active = explore | can_imitate;
                let mu = if active { mu_of(from, to, explore) } else { 0.0 };
                *dest = first + to as u32;
                migrating |= ((active & (u < mu)) as u64) << bit;
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

    /// Decide player `local` (on global strategy `from`), drawing its
    /// words from the stream `words`: the strategy it migrates to, or
    /// `None` if it stays. The sequential path, which draws only the words
    /// it needs, and the reference the batch passes reproduce.
    #[inline(always)]
    fn decide<W: RngCore>(
        &self,
        table: &[f64],
        local: usize,
        from: u32,
        words: &mut W,
    ) -> Option<u32> {
        let explore = self.explore_prob > 0.0 && words.gen::<f64>() < self.explore_prob;
        let to: u32;
        let is_explore: bool;
        // The migration test's uniform variate: the imitation path derives
        // it from the *same* 64-bit draw that picks the sampled agent (the
        // quotient selects the agent, the remainder is uniform conditional
        // on it), halving the per-player RNG cost.
        let mut test_u: Option<f64> = None;
        if explore {
            to = words.gen_range(0..self.s_c) as u32 + self.first;
            is_explore = true;
        } else {
            if self.imit.is_none() || self.pool == 0 {
                return None;
            }
            // Sample another agent uniformly (optionally self / virtual
            // agents) by multiply-shift.
            let wide = words.next_u64() as u128 * self.pool as u128;
            let draw = (wide >> 64) as u64;
            test_u = Some(unit_f64(wide as u64));
            if draw < self.real_pool {
                // Branchless self-exclusion shift: `j >= local` is
                // data-dependent and unpredictable, so a conditional jump
                // here would mispredict often.
                let j = draw as usize + ((draw as usize >= local) & self.self_exclude) as usize;
                to = self.class_players[j];
            } else {
                to = self.first + (draw - self.real_pool) as u32;
            }
            is_explore = false;
        }
        // `to == from` flows through: its μ is 0 by definition (zero gain),
        // so it never migrates — and keeping it on the straight-line path
        // avoids an unpredictable branch on a freshly gathered value.
        let from_local = (from - self.first) as usize;
        let to_local = (to - self.first) as usize;
        let mu = if self.tabled {
            table[self.table_index()(from_local, to_local, is_explore)]
        } else {
            self.mu(StrategyId::new(from), StrategyId::new(to), is_explore)
        };
        // Only the explore path draws its test word, and only when it can
        // matter; `u < μ` already fails for μ = 0, so the imitation path
        // decides without a branch on μ.
        let u = match test_u {
            Some(u) => u,
            None if mu > 0.0 => words.gen::<f64>(),
            None => return None,
        };
        (u < mu).then_some(to)
    }
}

/// The checks every run start makes: `state` belongs to `game` (one count
/// per strategy, each class's counts summing to its population), the total
/// population plus the largest base load plus one fits in `u64` (the
/// latency cache evaluates `ℓ_e(x_e + x⁰_e + 1)`), every latency is finite
/// and non-negative over the loads a run reaches
/// ([`CongestionGame::check_latency_domain`], the check a latency swap
/// makes), and the protocol's virtual-agent setting matches the state's
/// base loads.
/// `Simulation::new` and `Ensemble::new` call it, and a hook-mutated game
/// is re-checked with it.
pub(crate) fn validate_start(
    game: &CongestionGame,
    protocol: &Protocol,
    state: &State,
) -> Result<(), DynamicsError> {
    if state.counts().len() != game.num_strategies() {
        return Err(GameError::WrongLength {
            expected: game.num_strategies(),
            found: state.counts().len(),
        }
        .into());
    }
    for (ci, class) in game.classes().iter().enumerate() {
        let sum: u64 = class.strategy_range().map(|s| state.counts()[s as usize]).sum();
        if sum != class.players() {
            return Err(GameError::CountMismatch {
                class: ci,
                expected: class.players(),
                found: sum,
            }
            .into());
        }
    }
    // No load exceeds the total population, and the latency cache reads
    // `ℓ_e(x_e + x⁰_e + 1)` on every resource, so that sum must fit in `u64`.
    let max_base = (0..game.num_resources() as u32)
        .map(|i| state.base_load(ResourceId::new(i)))
        .max()
        .unwrap_or(0);
    let fits = game
        .classes()
        .iter()
        .try_fold(max_base, |t, c| t.checked_add(c.players()))
        .and_then(|t| t.checked_add(1))
        .is_some();
    if !fits {
        return Err(DynamicsError::InvalidParameter {
            name: "players",
            message: "the total population plus the largest base load plus one overflows u64",
        });
    }
    for r in (0..game.num_resources() as u32).map(ResourceId::new) {
        game.check_latency_domain(r, state.base_load(r))?;
    }
    let wants_virtual = protocol.imitation().is_some_and(|p| p.virtual_agents());
    if wants_virtual != state.has_virtual_agents() {
        return Err(DynamicsError::InvalidParameter {
            name: "state",
            message: "virtual-agent protocols require State::with_virtual_agents (and vice versa)",
        });
    }
    Ok(())
}

/// A running simulation: a game, a protocol, and the evolving state.
///
/// Both round kernels are *zero-steady-state-allocation*: all per-round
/// working memory (the CSR pair buffer, multinomial counts, the μ table,
/// move/commit buffers, and the state's latency cache) lives in reusable
/// scratch owned by the simulation, so `step` touches the heap only while
/// buffers warm up to their high-water marks. [`Simulation::reset`]
/// extends the contract to trial turnover: a replica rewound to its start
/// keeps every buffer, so an ensemble worker runs trial after trial on one
/// replica without allocating.
///
/// See the crate-level example for typical usage.
#[derive(Debug)]
pub struct Simulation<'g> {
    /// The game the simulation was built on; [`Simulation::reset`]
    /// restores it after a hook swapped in a mutated copy.
    origin: &'g CongestionGame,
    /// The game the rounds run on: `origin` itself in the common
    /// stationary case, a private clone once a [`RoundHook`] fires and
    /// needs mutable access. All reads go through `Deref`, so the two
    /// cases share every code path.
    game: Cow<'g, CongestionGame>,
    protocol: Protocol,
    /// Between-rounds mutation hook (nonstationary scenarios); `None` for
    /// the stationary fast path.
    hook: Option<Box<dyn RoundHook>>,
    params: GameParams,
    state: State,
    engine: EngineKind,
    record: RecordConfig,
    /// Explicit player array (player-level engine only) of raw global
    /// strategy ids, grouped by class: `players[class_offsets[c] ..
    /// class_offsets[c+1]]` are class `c`.
    /// Built from the counts by the first player round after a start or a
    /// game change (`players_built`); its capacity outlives resets.
    players: Vec<u32>,
    players_built: bool,
    class_offsets: Vec<usize>,
    potential: f64,
    round: u64,
    /// Players that migrated in the most recent round (0 before any
    /// round), so a run resuming from a manually-stepped state can record
    /// its start round truthfully.
    last_migrations: u64,
    /// Scratch buffers reused across rounds.
    migrations_buf: Vec<Migration>,
    pairs_buf: PairBuffer,
    counts_buf: Vec<u64>,
    /// The player-level kernel's μ table of the class being visited (see
    /// [`PlayerDecider::fill_rows`]).
    mu_table: Vec<f64>,
    moves_buf: Vec<(u64, u32)>,
    commit_buf: Vec<(u32, u32)>,
    /// Per-class movable-origin mask of the player-level kernel (indexed by
    /// class-local strategy id; addressed streams only).
    movable_buf: Vec<bool>,
    /// The class's movable players' sites, compacted, and one chunk of
    /// their first Philox words (pure imitation) or blocks (with
    /// exploration); addressed streams only.
    sites_buf: Vec<u64>,
    words_buf: Vec<u64>,
    blocks_buf: Vec<[u64; 4]>,
}

impl<'g> Simulation<'g> {
    /// Create a simulation of `protocol` on `game` starting from `state`,
    /// with the default (aggregate) engine and no recording.
    ///
    /// # Errors
    ///
    /// Fails if the state does not belong to the game, or if the protocol's
    /// virtual-agent setting disagrees with the state's base loads.
    pub fn new(
        game: &'g CongestionGame,
        protocol: Protocol,
        state: State,
    ) -> Result<Self, DynamicsError> {
        validate_start(game, &protocol, &state)?;
        let params = game.params();
        let mut class_offsets = Vec::with_capacity(game.classes().len() + 1);
        fill_class_offsets(&mut class_offsets, game);
        let potential = potential(game, &state);
        let mut state = state;
        state.ensure_latency_cache(game);
        state.ensure_support_index(game);
        Ok(Simulation {
            origin: game,
            game: Cow::Borrowed(game),
            protocol,
            hook: None,
            params,
            state,
            engine: EngineKind::Aggregate,
            record: RecordConfig::disabled(),
            players: Vec::new(),
            players_built: false,
            class_offsets,
            potential,
            round: 0,
            last_migrations: 0,
            migrations_buf: Vec::new(),
            pairs_buf: PairBuffer::default(),
            counts_buf: Vec::new(),
            mu_table: Vec::new(),
            moves_buf: Vec::new(),
            commit_buf: Vec::new(),
            movable_buf: Vec::new(),
            sites_buf: Vec::new(),
            words_buf: Vec::new(),
            blocks_buf: Vec::new(),
        })
    }

    /// Select the round engine. The player-level engine's per-player
    /// array is built by its first round, which fails with
    /// [`DynamicsError::InvalidParameter`] if the population is too large
    /// to hold.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Configure trajectory recording.
    pub fn with_recording(mut self, record: RecordConfig) -> Self {
        self.record = record;
        self
    }

    /// Attach a between-rounds mutation hook (see [`RoundHook`]).
    ///
    /// The hook's first firing clones the game into the simulation and
    /// mutates that copy; the borrowed original is never touched.
    /// [`Simulation::run_observed`] polls the hook before every round and
    /// fires it when an event is due; manual [`Simulation::step`] calls
    /// never fire the hook (drive the schedule through a run, or fire it
    /// by hand).
    ///
    /// While the hook still reports a pending fire, equilibrium-type stop
    /// conditions (stability, approximate/Nash equilibrium, potential
    /// targets) are deferred — a pre-shock stable state is the recovery
    /// reference, not an outcome — and only
    /// [`StopCondition::MaxRounds`](crate::StopCondition::MaxRounds) can
    /// end the run. Once the schedule drains, all conditions rearm, so a
    /// shocked run naturally ends at its first post-schedule stable state.
    pub fn with_hook(mut self, hook: Box<dyn RoundHook>) -> Self {
        self.attach_hook(hook);
        self
    }

    /// [`Simulation::with_hook`] in place: re-arm a replica after
    /// [`Simulation::reset`], which drops the previous trial's hook.
    pub fn attach_hook(&mut self, hook: Box<dyn RoundHook>) {
        self.hook = Some(hook);
    }

    /// Rewind this replica in place to round 0 of a new trial from
    /// `start`, as if it were `Simulation::new(game, protocol,
    /// start.clone())` with the same engine and recording.
    ///
    /// Restored: the borrowed game the simulation was built on (a hook's
    /// mutated copy is dropped, and the protocol parameters and class
    /// offsets are rebuilt from the original), the counts and loads
    /// (copied into the existing storage), the start's latency cache and
    /// support index (copied when `start` has them built, rebuilt
    /// otherwise), the potential, the round counter and the last round's
    /// migrations. The attached hook is dropped: hooks are one-trial
    /// cursors, so re-arm the next trial's with [`Simulation::attach_hook`].
    ///
    /// Kept: every scratch buffer — the CSR pairs, multinomial counts,
    /// migrations, the μ table (rewritten at every class visit), the
    /// move/commit/site buffers, and the player array's capacity (the
    /// array itself is rebuilt from the new counts by the next player
    /// round). A trial run after a reset is bit-identical to the same trial
    /// on a fresh simulation, even when the previous trial failed; once the
    /// buffers have reached the start's sizes, a reset allocates nothing.
    ///
    /// # Errors
    ///
    /// Fails, leaving the simulation unchanged, when
    /// [`Simulation::new`] would reject `start` for the original game.
    pub fn reset(&mut self, start: &State) -> Result<(), DynamicsError> {
        validate_start(self.origin, &self.protocol, start)?;
        self.rewind(start, potential(self.origin, start));
        Ok(())
    }

    /// [`Simulation::reset`] to a validated `start` whose potential is
    /// `potential`: the ensemble computes both once per sweep (with the
    /// start's caches built), so a rewind is a copy.
    pub(crate) fn rewind(&mut self, start: &State, potential: f64) {
        if let Cow::Owned(_) = self.game {
            self.game = Cow::Borrowed(self.origin);
            self.params = self.origin.params();
            fill_class_offsets(&mut self.class_offsets, self.origin);
        }
        self.hook = None;
        self.state.clone_from(start);
        self.state.ensure_latency_cache(self.origin);
        self.state.ensure_support_index(self.origin);
        self.potential = potential;
        self.round = 0;
        self.last_migrations = 0;
        self.players_built = false;
    }

    /// The game's protocol parameters (`d`, `ν`, `β`, `ℓ_min`).
    pub fn params(&self) -> &GameParams {
        &self.params
    }

    /// The current state.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// The protocol driving the dynamics.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// The current round index (number of executed rounds).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current Rosenthal potential (maintained incrementally).
    pub fn potential(&self) -> f64 {
        self.potential
    }

    /// The game the simulation runs on: the borrowed one, or a hook's
    /// mutated copy.
    pub(crate) fn game(&self) -> &CongestionGame {
        &self.game
    }

    /// Players that migrated in the round that produced the current state.
    pub(crate) fn last_migrations(&self) -> u64 {
        self.last_migrations
    }

    /// Whether the attached round hook still has scheduled fires.
    pub(crate) fn events_pending(&self) -> bool {
        self.hook.as_ref().and_then(|h| h.next_fire()).is_some()
    }

    /// Build the explicit player array from the per-strategy counts
    /// unless it is current, reusing its storage. A population that cannot
    /// be given one slot per player is an error, not an allocation abort.
    fn ensure_players(&mut self) -> Result<(), DynamicsError> {
        if self.players_built {
            return Ok(());
        }
        let players = &mut self.players;
        players.clear();
        usize::try_from(self.game.total_players())
            .ok()
            .and_then(|n| players.try_reserve_exact(n).ok())
            .ok_or(DynamicsError::InvalidParameter {
                name: "players",
                message: "the player-level engine cannot allocate one slot per player",
            })?;
        for class in self.game.classes() {
            for sid in class.strategy_ids() {
                for _ in 0..self.state.counts()[sid.index()] {
                    players.push(sid.raw());
                }
            }
        }
        self.players_built = true;
        Ok(())
    }

    /// Fire the attached hook if it has events due at (or before — a
    /// resumed run catches up) the current round. Returns whether the
    /// firing changed anything; `Ok(false)` without a hook costs one
    /// `Option` compare.
    fn fire_due_events(&mut self) -> Result<bool, DynamicsError> {
        let due = match self.hook.as_ref().and_then(|h| h.next_fire()) {
            Some(next) => next <= self.round,
            None => return Ok(false),
        };
        if !due {
            return Ok(false);
        }
        let round = self.round;
        let hook = self.hook.as_mut().expect("due implies a hook");
        let changed = hook.fire(round, self.game.to_mut(), &mut self.state)?;
        if hook.next_fire().is_some_and(|next| next <= round) {
            return Err(DynamicsError::Hook {
                message: format!("hook did not advance past round {round} after firing"),
            });
        }
        if changed {
            self.after_game_change()?;
        }
        Ok(changed)
    }

    /// Rebuild everything derived from the game after a hook mutated it:
    /// protocol parameters (the population may have changed), class
    /// offsets, the explicit player array, the state's latency cache and
    /// support index, and the potential (recomputed from scratch — shocks
    /// are rare, and incremental tracking across an arbitrary latency swap
    /// has no valid delta).
    fn after_game_change(&mut self) -> Result<(), DynamicsError> {
        validate_start(&self.game, &self.protocol, &self.state)?;
        self.params = self.game.params();
        fill_class_offsets(&mut self.class_offsets, &self.game);
        self.state.invalidate_caches_for_game_change();
        self.state.ensure_latency_cache(&self.game);
        self.state.ensure_support_index(&self.game);
        self.potential = potential(&self.game, &self.state);
        if std::mem::take(&mut self.players_built) {
            // Arrivals/departures invalidate the explicit player array;
            // rebuild it from the (deterministic) per-strategy counts.
            self.ensure_players()?;
        }
        Ok(())
    }

    /// Iterate all `(from, to)` pairs with positive migration probability in
    /// the *current* state, yielding the per-player probability (already
    /// combining imitation sampling, exploration sampling, and the mixture
    /// weight) and the anticipated latency gain.
    ///
    /// Origins iterate the state's per-class support index (players can
    /// only sit on occupied strategies). The index is sorted by strategy
    /// id, so the sparse walks visit exactly the pairs the dense scans
    /// would, in the same order (bit-identical pair streams); a state
    /// without a built index (never the case inside a [`Simulation`])
    /// falls back to the dense scans.
    ///
    /// Pure-imitation rounds without virtual agents — the paper's default
    /// protocol — are confined to the support on the destination side too
    /// (every unoccupied destination is unsampleable), so they cost
    /// `O(Σ_c support_c²)`. That branch is one loop over two per-class
    /// rows: the origin row `ℓ_P(x)` (the cached `strat` row) and the
    /// destination row `ℓ_Q(x + 1_Q − 1_P)`, with `λ/d` and the gain
    /// threshold hoisted out ([`ClassSampling`]). For a class whose
    /// strategies share no resource (every singleton game;
    /// [`PlayerClass::strategies_disjoint`]) the destination value is
    /// `ℓ_Q(x + 1_Q)` whatever the origin, one row of
    /// [`State::latency_plus_row`] per round; overlapping classes (or a stale
    /// cache) take it from [`State::latency_after_move`]'s resource merge
    /// per pair. Exploration and virtual-agent rounds can target empty
    /// strategies and scan the class's dense destination range instead.
    fn for_each_pair(&self, mut f: impl FnMut(StrategyId, StrategyId, f64, f64)) {
        let (game, state) = (&*self.game, &self.state);
        let plus_row = state.latency_plus_row(game);
        for (ci, class) in game.classes().iter().enumerate() {
            let Some(cs) = ClassSampling::new(&self.protocol, &self.params, class) else {
                continue;
            };
            let plus = plus_row.filter(|_| class.strategies_disjoint());
            let l_to = |from: StrategyId, to: StrategyId| match plus {
                Some(plus) => plus[to.index()],
                None => state.latency_after_move(game, from, to),
            };
            let counts = state.counts();
            let occ = state.occupied(game, ci);
            if let (Some(occ), true) = (occ, cs.support_dest) {
                for &from in occ {
                    let l_from = state.strategy_latency(game, from);
                    for &to in occ {
                        if to == from {
                            continue;
                        }
                        let gain = l_from - l_to(from, to);
                        let prob = cs.imitation_prob(counts[to.index()], l_from, gain);
                        if prob > 0.0 {
                            f(from, to, prob, gain);
                        }
                    }
                }
                continue;
            }
            let mut visit_origin = |from: StrategyId| {
                let l_from = state.strategy_latency(game, from);
                for to_raw in class.strategy_range() {
                    let to = StrategyId::new(to_raw);
                    // Sampling weight of `to` before any latency is looked
                    // at; pairs nobody can sample are skipped outright.
                    let imit_w = cs.imit_weight(counts[to.index()]);
                    if to == from || (imit_w == 0.0 && cs.explore_scale == 0.0) {
                        continue;
                    }
                    let gain = l_from - l_to(from, to);
                    let prob = cs.prob(&self.params, imit_w, l_from, gain);
                    if prob > 0.0 {
                        f(from, to, prob, gain);
                    }
                }
            };
            for from in state.occupied_or_scan(game, ci) {
                visit_origin(from);
            }
        }
    }

    /// The current migration matrix: one entry per `(from, to)` pair with
    /// positive probability.
    pub fn migration_matrix(&self) -> Vec<PairFlow> {
        let mut out = Vec::new();
        self.for_each_pair(|from, to, prob, gain| {
            let movers = self.state.counts()[from.index()] as f64 * prob;
            out.push(PairFlow { from, to, probability: prob, gain, expected_movers: movers });
        });
        out
    }

    /// The exact expected *virtual potential gain* of the next round,
    /// `E[Σ_{P,Q} V_PQ] = Σ_{P,Q} x_P·p_PQ·(ℓ_Q(x+1_Q−1_P) − ℓ_P(x))`
    /// (non-positive; see Lemma 2 and Theorem 7).
    pub fn expected_virtual_gain(&self) -> f64 {
        let mut total = 0.0;
        self.for_each_pair(|from, _to, prob, gain| {
            total -= self.state.counts()[from.index()] as f64 * prob * gain;
        });
        total
    }

    /// Execute one concurrent round.
    ///
    /// # Errors
    ///
    /// Surfaces internal sampling/application failures (none occur for valid
    /// simulations; the error path exists instead of panicking).
    pub fn step(&mut self, rng: &mut impl DrawRng) -> Result<RoundStats, DynamicsError> {
        // Position counter-mode streams at `(round, site 0)`; a no-op for
        // the sequential xoshiro backend (see `congames_sampling::DrawRng`).
        rng.begin_round(self.round);
        let mut migrations = std::mem::take(&mut self.migrations_buf);
        migrations.clear();
        match self.engine {
            EngineKind::Aggregate => self.aggregate_round(rng, &mut migrations)?,
            EngineKind::PlayerLevel => self.player_round(rng, &mut migrations)?,
        }
        // Apply simultaneously and update the potential incrementally: the
        // apply's one pass over the resources whose load changed refreshes
        // their latency-cache entries and reports each `(r, base, old,
        // new)`, which contributes one batched `Latency::sum_range` walk
        // over its intermediate loads (big-flow rounds walk thousands of
        // loads per resource behind a single virtual call), summed in
        // ascending resource order. The default summation order is pinned
        // to the pre-batching scalar loops; constant/affine resources use
        // exact closed forms that may differ from those loops by ulps (see
        // the `congames-model::latency` exactness notes).
        let game = &*self.game;
        let mut delta = 0.0;
        self.state.apply_migrations_with(game, &migrations, |r, base, old, new| {
            delta += potential_delta_for_load_change(game, r, base, old, new);
        })?;
        self.potential += delta;
        self.round += 1;
        // Re-validate the per-strategy latency sums (the apply refreshed
        // the per-resource entries of the changed resources only); the
        // support index was maintained in-place by the apply, so its
        // ensure is an O(1) validity check.
        self.state.ensure_latency_cache(&self.game);
        self.state.ensure_support_index(&self.game);
        let moved: u64 = migrations.iter().map(|m| m.count).sum();
        self.last_migrations = moved;
        self.migrations_buf = migrations;
        Ok(RoundStats { migrations: moved, delta_potential: delta })
    }

    fn aggregate_round(
        &mut self,
        rng: &mut impl DrawRng,
        migrations: &mut Vec<Migration>,
    ) -> Result<(), DynamicsError> {
        // Group the pair probabilities by origin in the reusable CSR pair
        // buffer, then draw one multinomial per origin into the reusable
        // counts buffer. `for_each_pair` visits origins contiguously.
        let mut pairs = std::mem::take(&mut self.pairs_buf);
        pairs.clear();
        self.for_each_pair(|from, to, prob, _gain| pairs.push(from, to, prob));
        let mut counts = std::mem::take(&mut self.counts_buf);
        let mut result = Ok(());
        for (j, &from) in pairs.origins.iter().enumerate() {
            // Counter mode addresses the origin's multinomial by its
            // strategy id, so the draw is independent of which other
            // origins are occupied this round.
            rng.begin_site(from.raw() as u64);
            let slice = pairs.offsets[j]..pairs.offsets[j + 1];
            let x_from = self.state.counts()[from.index()];
            match multinomial_with_rest_into(
                rng,
                x_from,
                &pairs.pair_prob[slice.clone()],
                &mut counts,
            ) {
                Ok(_stay) => {
                    for (&to, &k) in pairs.pair_to[slice].iter().zip(&counts) {
                        if k > 0 {
                            migrations.push(Migration::new(from, to, k));
                        }
                    }
                }
                Err(e) => {
                    result = Err(e.into());
                    break;
                }
            }
        }
        self.pairs_buf = pairs;
        self.counts_buf = counts;
        result
    }

    /// One player-level round: every player of every class decides under
    /// the pre-round state, then the class commits.
    ///
    /// A class whose μ values fit [`MU_TABLE_MAX`] has them written into
    /// the μ table by [`PlayerDecider::fill_rows`] at the start of its
    /// visit, on either stream; a larger class evaluates μ per decision.
    ///
    /// On an addressed (counter-mode) stream a class visit is one batch
    /// pass. `fill_rows` also builds the movable-origin mask, and the
    /// movable players' sites are compacted (for a class of at most 64
    /// strategies by `congames_simd::compact_sites` against the mask as a
    /// bitmask).
    /// Each [`SITE_CHUNK`] of them is then decided in one pass: a
    /// pure-imitation class fetches word 0 of each player's Philox block
    /// with one [`DrawRng::site_words`] call and decides the chunk with
    /// the imitation decide kernel; a class with an exploration component
    /// fetches whole blocks with [`DrawRng::site_blocks`] and decides them
    /// with [`PlayerDecider::decide_chunk`]. Players on immovable origins
    /// draw nothing. A sequential stream instead decides every player in
    /// turn with [`PlayerDecider::decide`], which is also the full-draw
    /// reference the batch passes match bit for bit.
    fn player_round(
        &mut self,
        rng: &mut impl DrawRng,
        migrations: &mut Vec<Migration>,
    ) -> Result<(), DynamicsError> {
        self.ensure_players()?;
        let explore_prob = self.protocol.explore_prob();
        let (imit, expl) =
            (self.protocol.imitation().copied(), self.protocol.exploration().copied());
        let virtual_agents = imit.is_some_and(|p| p.virtual_agents());
        // On an addressed stream a player's draws are a pure function of
        // its site, so a player who provably stays can skip them without
        // shifting anyone else's words, and the movable players' words can
        // be computed in site batches; sequential streams draw for all.
        let addressed = rng.addressed();
        let dispatch = Dispatch::global();
        // Decisions all use the pre-round state; μ values repeat across
        // players of one class, so a class that fits writes them once into
        // the μ table. Classes modify disjoint player/strategy ranges, so
        // each class can decide *and* commit before the next is visited.
        let mut table = std::mem::take(&mut self.mu_table);
        let mut moves = std::mem::take(&mut self.moves_buf);
        let mut commit = std::mem::take(&mut self.commit_buf);
        let mut movable = std::mem::take(&mut self.movable_buf);
        let mut sites = std::mem::take(&mut self.sites_buf);
        let mut words = std::mem::take(&mut self.words_buf);
        let mut blocks = std::mem::take(&mut self.blocks_buf);
        for (ci, class) in self.game.classes().iter().enumerate() {
            let n_c = class.players();
            if n_c == 0 {
                continue;
            }
            let s_c = class.num_strategies();
            let start = self.class_offsets[ci];
            let first = class.strategy_range().start;
            let mut moved = 0;
            {
                let class_players = &self.players[start..start + n_c as usize];
                // Per-class sampling-pool constants.
                let self_exclude = imit.is_some_and(|p| p.self_sampling() == SelfSampling::Exclude);
                let real_pool = if self_exclude { n_c - 1 } else { n_c };
                let decider = PlayerDecider {
                    state: &self.state,
                    game: &self.game,
                    params: &self.params,
                    imit,
                    expl,
                    explore_prob,
                    class_players,
                    start,
                    first,
                    s_c,
                    n_c,
                    self_exclude,
                    real_pool,
                    pool: real_pool + if virtual_agents { s_c as u64 } else { 0 },
                    tabled: s_c.saturating_mul(s_c) <= MU_TABLE_MAX / 2,
                };
                // Room for every player of the class to migrate.
                if moves.len() < class_players.len() {
                    moves.resize(class_players.len(), (0, 0));
                }
                if !addressed {
                    // Every player draws here, so only the table is used,
                    // not the mask.
                    if decider.tabled {
                        decider.fill_rows(ci, &mut table, &mut movable);
                    }
                    // Sequential streams ignore the site; a counter stream
                    // behind a wrapper that hides `addressed()` is still
                    // positioned at the global player index. Every player
                    // writes a move slot; only movers advance past it, so
                    // the accept test never branches.
                    for (local, &from) in class_players.iter().enumerate() {
                        let site = (start + local) as u64;
                        rng.begin_site(site);
                        let to = decider.decide(&table, local, from, rng);
                        moves[moved] = (site, to.unwrap_or(from));
                        moved += to.is_some() as usize;
                    }
                } else {
                    if !decider.fill_rows(ci, &mut table, &mut movable) {
                        continue;
                    }
                    // Compact the movable players' sites (the global player
                    // indices) branch-free: every player writes its slot,
                    // only movable ones advance past it.
                    if sites.len() < class_players.len() {
                        sites.resize(class_players.len(), 0);
                    }
                    let k = if s_c <= 64 {
                        let mask = movable.iter().rev().fold(0u64, |m, &b| m << 1 | b as u64);
                        compact_sites(
                            dispatch,
                            class_players,
                            first,
                            mask,
                            start as u64,
                            &mut sites,
                        )
                    } else {
                        let mut k = 0;
                        for (local, &from) in class_players.iter().enumerate() {
                            sites[k] = (start + local) as u64;
                            k += movable[(from - first) as usize] as usize;
                        }
                        k
                    };
                    let id = |local: usize| StrategyId::new(first + local as u32);
                    if explore_prob > 0.0 {
                        // Fetch each chunk's first Philox blocks in one call
                        // and decide the chunk from them in one pass.
                        blocks.resize(SITE_CHUNK, [0; 4]);
                        for chunk in sites[..k].chunks(SITE_CHUNK) {
                            let chunk_blocks = &mut blocks[..chunk.len()];
                            rng.site_blocks(chunk, chunk_blocks);
                            moved = if decider.tabled {
                                let (mu, index) = (&table[..], decider.table_index());
                                let mu_of = move |f, t, e| mu[index(f, t, e)];
                                decider.decide_chunk(chunk, chunk_blocks, mu_of, &mut moves, moved)
                            } else {
                                let mu_of = |f, t, e| decider.mu(id(f), id(t), e);
                                decider.decide_chunk(chunk, chunk_blocks, mu_of, &mut moves, moved)
                            };
                        }
                    } else {
                        // Pure imitation reads word 0 alone: fetch each
                        // chunk's words in one call and decide the chunk in
                        // one kernel pass, over the table's imitation μ
                        // matrix or evaluating μ per decision.
                        let class = decider.imitation_class();
                        words.resize(SITE_CHUNK, 0);
                        for chunk in sites[..k].chunks(SITE_CHUNK) {
                            let chunk_words = &mut words[..chunk.len()];
                            rng.site_words(chunk, chunk_words);
                            let out = &mut moves[moved..];
                            moved += if decider.tabled {
                                let mu = &table[..s_c * s_c];
                                imitation_decide(dispatch, &class, chunk, chunk_words, mu, out)
                            } else {
                                let mu_of = |f, t| decider.mu(id(f), id(t), false);
                                imitation_decide_with(&class, chunk, chunk_words, mu_of, out)
                            };
                        }
                    }
                }
            }
            // Commit the class: update the player array, then aggregate the
            // realized (from, to) pairs by sorting the reusable buffer —
            // deterministic order, no per-round allocation.
            let players = &mut self.players;
            commit.clear();
            for &(site, to) in &moves[..moved] {
                let from = std::mem::replace(&mut players[site as usize], to);
                commit.push((from, to));
            }
            commit.sort_unstable();
            let mut i = 0usize;
            while i < commit.len() {
                let (f, t) = commit[i];
                let mut k = 0u64;
                while i < commit.len() && commit[i] == (f, t) {
                    k += 1;
                    i += 1;
                }
                migrations.push(Migration::new(StrategyId::new(f), StrategyId::new(t), k));
            }
        }
        self.mu_table = table;
        self.moves_buf = moves;
        self.commit_buf = commit;
        self.movable_buf = movable;
        self.sites_buf = sites;
        self.words_buf = words;
        self.blocks_buf = blocks;
        Ok(())
    }

    /// Run until a stop condition fires, materializing the recorded
    /// rounds into a [`Trajectory`].
    ///
    /// Conditions are evaluated on the state *before* each round (so a
    /// satisfied initial state reports `rounds = 0`); expensive checks run
    /// at the spec's cadence (see [`StopSpec`] for which conditions the
    /// cadence gates). This is a convenience wrapper over
    /// [`Simulation::run_observed`] with the [`Trajectory`] stock
    /// observer; streaming consumers should call `run_observed` directly
    /// and never pay for the materialization.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulation::step`] failures.
    pub fn run(
        &mut self,
        stop: &StopSpec,
        rng: &mut impl DrawRng,
    ) -> Result<RunOutcome, DynamicsError> {
        let mut trajectory = Trajectory::new();
        let summary = self.run_observed(stop, rng, &mut trajectory)?;
        Ok(RunOutcome {
            reason: summary.reason,
            rounds: summary.rounds,
            potential: summary.potential,
            trajectory,
        })
    }

    /// Run until a stop condition fires, streaming each recorded round
    /// into `observer` instead of materializing a trajectory.
    ///
    /// The observer sees exactly the records [`Simulation::run`] would
    /// have stored: with a non-zero recording cadence, the record of the
    /// round the run starts in, one record per cadence round, and the
    /// record of the stop round (deduplicated when on the cadence); with
    /// recording disabled it sees nothing. The returned [`RunSummary`]
    /// carries the stop reason, round count, and final potential — pass it
    /// to [`Observer::finish`] to extract the observer's output.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulation::step`] failures.
    pub fn run_observed<O: Observer>(
        &mut self,
        stop: &StopSpec,
        rng: &mut impl DrawRng,
        observer: &mut O,
    ) -> Result<RunSummary, DynamicsError> {
        self.run_observed_from(stop, None, rng, observer)
    }

    /// [`Simulation::run_observed`], where `start_verdict`, when `Some`, is
    /// the verdict `stop` reaches at the current round, so the run takes it
    /// instead of evaluating the conditions there. The ensemble passes the
    /// verdict it evaluated once for a hook-free sweep, whose trials all
    /// start from the same state at round 0; no event can fire there.
    pub(crate) fn run_observed_from<O: Observer>(
        &mut self,
        stop: &StopSpec,
        mut start_verdict: Option<Option<StopReason>>,
        rng: &mut impl DrawRng,
        observer: &mut O,
    ) -> Result<RunSummary, DynamicsError> {
        let start_round = self.round;
        loop {
            // Scheduled events fire before the round's record is captured
            // and before the stop conditions run, so the record *at* a
            // shock round already reflects the post-event game/state (the
            // pre-shock reference is the last record strictly before).
            let fired = self.fire_due_events()?;
            debug_assert!(!fired || start_verdict.is_none(), "an event fired at a known start");
            let reason = match start_verdict.take() {
                Some(reason) => reason,
                None => stop_reason(stop, self),
            };
            if let Some(summary) =
                drive_round(self, reason, &self.record, start_round, fired, observer)
            {
                return Ok(summary);
            }
            self.step(rng)?;
        }
    }
}

/// Fill `out` with each class's first player slot in the explicit player
/// array, plus the total: `out[c]..out[c + 1]` are class `c`'s players.
fn fill_class_offsets(out: &mut Vec<usize>, game: &CongestionGame) {
    out.clear();
    out.push(0);
    let mut off = 0usize;
    for c in game.classes() {
        off += c.players() as usize;
        out.push(off);
    }
}

/// Per-class constants of the aggregate migration probability, read by
/// [`Simulation::for_each_pair`].
#[derive(Clone, Copy)]
struct ClassSampling<'p> {
    imit: Option<&'p ImitationProtocol>,
    expl: Option<&'p ExplorationProtocol>,
    /// Every strategy carries one virtual agent (imitation weight `x_Q+1`).
    virtual_agents: bool,
    s_c: usize,
    n_c: u64,
    /// Imitation weight per sampleable agent: `(1 − p_explore) / pool`.
    imit_scale: f64,
    /// Exploration weight per strategy: `p_explore / |P_c|`.
    explore_scale: f64,
    /// Pure imitation without virtual agents: only occupied destinations
    /// can be sampled, and [`ClassSampling::imitation_prob`] applies.
    support_dest: bool,
    /// `λ/d`, pre-divided (only set when `support_dest`): the μ of
    /// [`imitation_mu`] is `((λ/d)·gain)/ℓ_from`, left-associated, so
    /// hoisting the division is operation-identical.
    coef: f64,
    /// The imitation gain threshold (only set when `support_dest`).
    thr: f64,
}

impl<'p> ClassSampling<'p> {
    /// The constants of `class` under `protocol`; `None` for an empty
    /// class or one no protocol component can move.
    fn new(protocol: &'p Protocol, params: &GameParams, class: &PlayerClass) -> Option<Self> {
        let (explore_prob, imit, expl) =
            (protocol.explore_prob(), protocol.imitation(), protocol.exploration());
        let (n_c, s_c) = (class.players(), class.num_strategies());
        if n_c == 0 {
            return None;
        }
        let virtual_agents = imit.is_some_and(|p| p.virtual_agents());
        let imit_total = match imit.map(ImitationProtocol::self_sampling) {
            Some(SelfSampling::Exclude) => (n_c - 1) as f64,
            Some(SelfSampling::Include) => n_c as f64,
            None => 0.0,
        } + if virtual_agents { s_c as f64 } else { 0.0 };
        let imit_scale = if imit.is_some() && explore_prob < 1.0 && imit_total > 0.0 {
            (1.0 - explore_prob) / imit_total
        } else {
            0.0
        };
        let explore_scale = if expl.is_some() && explore_prob > 0.0 && s_c > 0 {
            explore_prob / s_c as f64
        } else {
            0.0
        };
        if imit_scale == 0.0 && explore_scale == 0.0 {
            return None;
        }
        let support_dest = explore_scale == 0.0 && !virtual_agents;
        let (coef, thr) = match imit {
            Some(p) if support_dest => {
                (p.lambda() / p.damping_factor(params), p.gain_threshold(params))
            }
            _ => (0.0, 0.0),
        };
        Some(ClassSampling {
            imit,
            expl,
            virtual_agents,
            s_c,
            n_c,
            imit_scale,
            explore_scale,
            support_dest,
            coef,
            thr,
        })
    }

    /// Imitation weight of a destination holding `x_to` players; `0.0`
    /// when nobody on it can be sampled.
    fn imit_weight(&self, x_to: u64) -> f64 {
        let w = x_to as f64 + if self.virtual_agents { 1.0 } else { 0.0 };
        if w > 0.0 {
            self.imit_scale * w
        } else {
            0.0
        }
    }

    /// Migration probability of a pair with imitation weight `imit_w`,
    /// origin latency `l_from` and gain `gain`, over every protocol
    /// component.
    fn prob(&self, params: &GameParams, imit_w: f64, l_from: f64, gain: f64) -> f64 {
        let mut prob = 0.0;
        if imit_w > 0.0 {
            let p = self.imit.expect("imit_w > 0 implies imitation component");
            prob += imit_w * imitation_mu(p, params, l_from, gain);
        }
        if self.explore_scale > 0.0 {
            let p = self.expl.expect("explore_scale > 0 implies exploration component");
            prob +=
                self.explore_scale * exploration_mu(p, params, l_from, gain, self.s_c, self.n_c);
        }
        prob
    }

    /// [`ClassSampling::prob`] of a `support_dest` class from the hoisted
    /// constants: `(imit_scale·x_to)·clamp((λ/d)·gain/ℓ_from, 0, 1)`, and
    /// `0.0` under the same conditions as [`imitation_mu`]. Positive
    /// results are bit-identical to `prob`'s.
    #[inline]
    fn imitation_prob(&self, x_to: u64, l_from: f64, gain: f64) -> f64 {
        if l_from <= 0.0 || gain <= self.thr {
            return 0.0;
        }
        (self.imit_scale * x_to as f64) * (self.coef * gain / l_from).clamp(0.0, 1.0)
    }
}

fn imitation_mu(
    p: &crate::protocol::ImitationProtocol,
    params: &GameParams,
    l_from: f64,
    gain: f64,
) -> f64 {
    if l_from <= 0.0 || gain <= p.gain_threshold(params) {
        return 0.0;
    }
    (p.lambda() / p.damping_factor(params) * gain / l_from).clamp(0.0, 1.0)
}

fn exploration_mu(
    p: &crate::protocol::ExplorationProtocol,
    params: &GameParams,
    l_from: f64,
    gain: f64,
    class_strategies: usize,
    class_players: u64,
) -> f64 {
    if l_from <= 0.0 || gain <= 0.0 || class_players == 0 {
        return 0.0;
    }
    let beta = params.beta.max(f64::MIN_POSITIVE);
    let scale = class_strategies as f64 * params.ell_min / (beta * class_players as f64);
    (p.lambda() * scale * gain / l_from).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Damping, ExplorationProtocol, ImitationProtocol, NuRule};
    use crate::stopping::{StopCondition, StopReason};
    use congames_model::Affine;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn two_links(n: u64) -> CongestionGame {
        CongestionGame::singleton(vec![Affine::linear(1.0).into(), Affine::linear(1.0).into()], n)
            .unwrap()
    }

    fn imit() -> Protocol {
        ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into()
    }

    #[test]
    fn new_validates_state() {
        let game = two_links(4);
        let other = two_links(6);
        let state = State::from_counts(&other, vec![3, 3]).unwrap();
        assert!(Simulation::new(&game, imit(), state).is_err());
    }

    #[test]
    fn virtual_agent_mismatch_is_rejected() {
        let game = two_links(4);
        let state = State::from_counts(&game, vec![4, 0]).unwrap();
        let p: Protocol = ImitationProtocol::paper_default().with_virtual_agents(true).into();
        assert!(Simulation::new(&game, p, state).is_err());
        let state2 = State::from_counts(&game, vec![4, 0]).unwrap().with_virtual_agents(&game);
        assert!(Simulation::new(&game, p, state2).is_ok());
    }

    #[test]
    fn potential_tracks_incrementally() {
        let game = two_links(100);
        let state = State::from_counts(&game, vec![75, 25]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            sim.step(&mut rng).unwrap();
            let exact = potential(&game, sim.state());
            assert!(
                (sim.potential() - exact).abs() < 1e-6,
                "incremental potential drifted: {} vs {exact}",
                sim.potential()
            );
        }
        assert!(sim.state().loads_consistent(&game));
    }

    #[test]
    fn imbalanced_state_converges_to_balance() {
        let game = two_links(1000);
        let state = State::from_counts(&game, vec![900, 100]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let out = sim
            .run(
                &StopSpec::new(vec![
                    StopCondition::ImitationStable,
                    StopCondition::MaxRounds(10_000),
                ]),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.reason, StopReason::ImitationStable);
        // Imitation-stable on two identical linear links = balanced ± ν.
        let c0 = sim.state().count(StrategyId::new(0));
        assert!((499..=501).contains(&c0), "counts {c0}");
    }

    #[test]
    fn player_level_engine_matches_aggregate_in_distribution() {
        // Compare the mean one-round outflow of the two engines over many
        // replays from the same initial state.
        let game = two_links(64);
        let initial = State::from_counts(&game, vec![48, 16]).unwrap();
        let reps = 4000;
        let mut mean = [0.0f64; 2];
        for (ei, engine) in [EngineKind::Aggregate, EngineKind::PlayerLevel].into_iter().enumerate()
        {
            let mut sum = 0.0;
            for rep in 0..reps {
                let mut sim =
                    Simulation::new(&game, imit(), initial.clone()).unwrap().with_engine(engine);
                let mut rng = SmallRng::seed_from_u64(1000 + rep);
                sim.step(&mut rng).unwrap();
                sum += sim.state().count(StrategyId::new(0)) as f64;
            }
            mean[ei] = sum / reps as f64;
        }
        // Same distribution ⇒ same mean; tolerate 5σ of the empirical SEM
        // (counts move by a handful of players here, SEM ≪ 0.2).
        assert!(
            (mean[0] - mean[1]).abs() < 0.5,
            "engine means diverge: {} vs {}",
            mean[0],
            mean[1]
        );
    }

    #[test]
    fn expected_virtual_gain_is_nonpositive_and_zero_at_stability() {
        let game = two_links(50);
        let state = State::from_counts(&game, vec![40, 10]).unwrap();
        let sim = Simulation::new(&game, imit(), state).unwrap();
        assert!(sim.expected_virtual_gain() < 0.0);
        let balanced = State::from_counts(&game, vec![25, 25]).unwrap();
        let sim2 = Simulation::new(&game, imit(), balanced).unwrap();
        assert_eq!(sim2.expected_virtual_gain(), 0.0);
        assert!(sim2.migration_matrix().is_empty());
    }

    #[test]
    fn expected_movers_match_empirical_mean() {
        let game = two_links(64);
        let initial = State::from_counts(&game, vec![48, 16]).unwrap();
        let sim = Simulation::new(&game, imit(), initial.clone()).unwrap();
        let matrix = sim.migration_matrix();
        assert_eq!(matrix.len(), 1);
        let expect = matrix[0].expected_movers;
        let reps = 4000;
        let mut sum = 0.0;
        for rep in 0..reps {
            let mut s = Simulation::new(&game, imit(), initial.clone()).unwrap();
            let mut rng = SmallRng::seed_from_u64(rep);
            let stats = s.step(&mut rng).unwrap();
            sum += stats.migrations as f64;
        }
        let mean = sum / reps as f64;
        assert!((mean - expect).abs() < 0.2, "empirical movers {mean} vs expected {expect}");
    }

    #[test]
    fn run_stops_at_zero_rounds_for_stable_start() {
        let game = two_links(10);
        let state = State::from_counts(&game, vec![5, 5]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let out = sim.run(&StopSpec::new(vec![StopCondition::ImitationStable]), &mut rng).unwrap();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.reason, StopReason::ImitationStable);
    }

    #[test]
    fn recording_captures_series() {
        let game = two_links(100);
        let state = State::from_counts(&game, vec![80, 20]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state)
            .unwrap()
            .with_recording(RecordConfig::every_round());
        let mut rng = SmallRng::seed_from_u64(5);
        let out = sim.run(&StopSpec::max_rounds(10), &mut rng).unwrap();
        assert_eq!(out.reason, StopReason::MaxRounds);
        assert_eq!(out.trajectory.records().len(), 11); // rounds 0..=10
        assert_eq!(out.trajectory.records()[0].round, 0);
        assert!(out.trajectory.records()[0].potential >= out.trajectory.records()[10].potential);
    }

    /// A run resuming from a manually-stepped, off-cadence round still
    /// records its starting round — the documented "start record, cadence
    /// records, stop record" contract.
    #[test]
    fn recording_captures_an_off_cadence_start_round() {
        let game = two_links(100);
        let state = State::from_counts(&game, vec![80, 20]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state)
            .unwrap()
            .with_recording(RecordConfig { every: 3, approx: None });
        let mut rng = SmallRng::seed_from_u64(9);
        let mut moved = 0;
        for _ in 0..4 {
            moved = sim.step(&mut rng).unwrap().migrations; // round 4, off cadence
        }
        let out = sim.run(&StopSpec::max_rounds(10), &mut rng).unwrap();
        let rounds: Vec<u64> = out.trajectory.records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![4, 6, 9, 10], "start, cadence, and stop records");
        // The start record carries the migrations of the manual step that
        // produced round 4, not a placeholder zero.
        assert_eq!(out.trajectory.records()[0].migrations, moved);
    }

    /// A hook that scales link 0's latency ×10 once, at round 5.
    #[derive(Debug)]
    struct ScaleHook {
        fired: bool,
    }

    impl crate::hook::RoundHook for ScaleHook {
        fn next_fire(&self) -> Option<u64> {
            if self.fired {
                None
            } else {
                Some(5)
            }
        }

        fn fire(
            &mut self,
            round: u64,
            game: &mut CongestionGame,
            _state: &mut State,
        ) -> Result<bool, DynamicsError> {
            assert_eq!(round, 5);
            self.fired = true;
            game.scale_latency(ResourceId::new(0), 10.0)?;
            Ok(true)
        }
    }

    #[test]
    fn hook_fires_once_marks_the_shock_round_and_rebuilds_the_potential() {
        let game = two_links(100);
        let state = State::from_counts(&game, vec![50, 50]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state)
            .unwrap()
            .with_recording(RecordConfig::every_round())
            .with_hook(Box::new(ScaleHook { fired: false }));
        let mut rng = SmallRng::seed_from_u64(21);
        let out = sim.run(&StopSpec::max_rounds(10), &mut rng).unwrap();
        let records = out.trajectory.records();
        assert_eq!(records.len(), 11);
        let shocked: Vec<u64> = records.iter().filter(|r| r.shock).map(|r| r.round).collect();
        assert_eq!(shocked, vec![5], "exactly the firing round is marked");
        // The shock round's record already reflects the ×10 latency on
        // link 0 — a strict potential jump over the pre-shock record.
        assert!(
            records[5].potential > records[4].potential * 2.0,
            "post-shock potential {} vs pre-shock {}",
            records[5].potential,
            records[4].potential
        );
        // The borrowed original game is untouched.
        assert_eq!(game.resource(ResourceId::new(0)).latency().value(10), 10.0);
        // The incrementally-maintained potential stays exact across the
        // shock (the hook path recomputes from scratch).
        let exact = potential(&game_scaled(), sim.state());
        assert!((sim.potential() - exact).abs() < 1e-9, "{} vs {exact}", sim.potential());
    }

    fn game_scaled() -> CongestionGame {
        CongestionGame::singleton(
            vec![Affine::linear(10.0).into(), Affine::linear(1.0).into()],
            100,
        )
        .unwrap()
    }

    #[test]
    fn pending_hook_defers_equilibrium_stops_until_the_schedule_drains() {
        // All players on the cheaper link is imitation-stable immediately —
        // a stationary run stops at round 0. With a shock pending at round
        // 5, the stability stop is deferred, the shock fires, and the run
        // ends at the first post-shock stable round (not the budget).
        let game = two_links(100);
        let state = State::from_counts(&game, vec![0, 100]).unwrap();
        let stop =
            StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(200)])
                .with_check_every(1);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut stationary = Simulation::new(&game, imit(), state.clone()).unwrap();
        let out = stationary.run(&stop, &mut rng).unwrap();
        assert_eq!((out.reason, out.rounds), (StopReason::ImitationStable, 0));
        let mut shocked = Simulation::new(&game, imit(), state)
            .unwrap()
            .with_hook(Box::new(ScaleHook { fired: false }));
        let mut rng = SmallRng::seed_from_u64(3);
        let out = shocked.run(&stop, &mut rng).unwrap();
        assert_eq!(out.reason, StopReason::ImitationStable, "re-stabilized after the shock");
        assert!(out.rounds >= 5, "ran through the shock round, got {}", out.rounds);
        assert!(out.rounds < 200, "did not burn the whole budget");
    }

    #[test]
    fn hook_that_does_not_advance_is_an_error() {
        #[derive(Debug)]
        struct Wedged;
        impl crate::hook::RoundHook for Wedged {
            fn next_fire(&self) -> Option<u64> {
                Some(0)
            }
            fn fire(
                &mut self,
                _round: u64,
                _game: &mut CongestionGame,
                _state: &mut State,
            ) -> Result<bool, DynamicsError> {
                Ok(false)
            }
        }
        let game = two_links(10);
        let state = State::from_counts(&game, vec![5, 5]).unwrap();
        let mut sim = Simulation::new(&game, imit(), state).unwrap().with_hook(Box::new(Wedged));
        let mut rng = SmallRng::seed_from_u64(1);
        let err = sim.run(&StopSpec::max_rounds(3), &mut rng).unwrap_err();
        assert!(matches!(err, DynamicsError::Hook { .. }), "{err:?}");
    }

    #[test]
    fn exploration_discovers_unused_strategies() {
        // All players on link 0; imitation alone is stuck, exploration finds
        // link 1.
        let game = two_links(100);
        let state = State::from_counts(&game, vec![100, 0]).unwrap();
        let p: Protocol = ExplorationProtocol::paper_default().into();
        let mut sim = Simulation::new(&game, p, state).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let out = sim
            .run(
                &StopSpec::new(vec![
                    StopCondition::NashEquilibrium { tol: 1.0 },
                    StopCondition::MaxRounds(200_000),
                ]),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.reason, StopReason::NashEquilibrium);
        assert!(sim.state().count(StrategyId::new(1)) > 0);
    }

    #[test]
    fn combined_protocol_also_converges_to_nash() {
        let game = two_links(100);
        let state = State::from_counts(&game, vec![100, 0]).unwrap();
        let mut sim = Simulation::new(&game, Protocol::combined_default(), state).unwrap();
        let mut rng = SmallRng::seed_from_u64(13);
        let out = sim
            .run(
                &StopSpec::new(vec![
                    StopCondition::NashEquilibrium { tol: 1.0 },
                    StopCondition::MaxRounds(200_000),
                ]),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.reason, StopReason::NashEquilibrium);
    }

    /// Naive per-pair reference of [`Simulation::for_each_pair`]: dense
    /// scans over every class's strategies, one `latency_after_move` per
    /// pair, and the sampling weights spelled out per pair.
    fn reference_pairs(sim: &Simulation) -> Vec<(u32, u32, u64, u64)> {
        let (game, state, params) = (&*sim.game, sim.state(), sim.params());
        let proto = sim.protocol();
        let (explore_prob, imit, expl) =
            (proto.explore_prob(), proto.imitation(), proto.exploration());
        let mut out = Vec::new();
        for class in game.classes() {
            let (n_c, s_c) = (class.players(), class.num_strategies());
            if n_c == 0 {
                continue;
            }
            let virtual_agents = imit.is_some_and(|p| p.virtual_agents());
            let pool = match imit.map(|p| p.self_sampling()) {
                Some(SelfSampling::Exclude) => (n_c - 1) as f64,
                Some(SelfSampling::Include) => n_c as f64,
                None => 0.0,
            } + if virtual_agents { s_c as f64 } else { 0.0 };
            for from in class.strategy_ids().filter(|&s| state.count(s) > 0) {
                let l_from = state.strategy_latency(game, from);
                for to in class.strategy_ids().filter(|&s| s != from) {
                    let gain = l_from - state.latency_after_move(game, from, to);
                    let mut prob = 0.0;
                    let w = state.count(to) as f64 + if virtual_agents { 1.0 } else { 0.0 };
                    if let Some(p) = imit.filter(|_| explore_prob < 1.0 && pool > 0.0 && w > 0.0) {
                        let imit_w = (1.0 - explore_prob) / pool * w;
                        prob += imit_w * imitation_mu(p, params, l_from, gain);
                    }
                    if let Some(p) = expl.filter(|_| explore_prob > 0.0) {
                        prob += explore_prob / s_c as f64
                            * exploration_mu(p, params, l_from, gain, s_c, n_c);
                    }
                    if prob > 0.0 {
                        out.push((from.raw(), to.raw(), prob.to_bits(), gain.to_bits()));
                    }
                }
            }
        }
        out
    }

    fn pair_stream(sim: &Simulation) -> Vec<(u32, u32, u64, u64)> {
        let mut out = Vec::new();
        sim.for_each_pair(|from, to, prob, gain| {
            out.push((from.raw(), to.raw(), prob.to_bits(), gain.to_bits()));
        });
        out
    }

    /// Singleton links of every kind the row branch must reproduce, a
    /// zero-latency link included.
    fn mixed_links(n: u64) -> CongestionGame {
        use congames_model::{Constant, Monomial};
        CongestionGame::singleton(
            vec![
                Affine::new(1.0, 3.0).into(),
                Constant::new(0.0).into(),
                Monomial::new(0.5, 2).into(),
                Affine::linear(2.5).into(),
                Monomial::new(2.0, 3).into(),
                Constant::new(40.0).into(),
            ],
            n,
        )
        .unwrap()
    }

    /// A disjoint singleton class next to a class whose paths overlap.
    fn two_class_overlap(n: u64) -> CongestionGame {
        use congames_model::{Monomial, ResourceId, Strategy};
        let mut b = CongestionGame::builder();
        let r: Vec<ResourceId> = (0..5)
            .map(|i| {
                if i % 2 == 0 {
                    b.add_resource(Affine::new(1.0 + i as f64, 1.0).into())
                } else {
                    b.add_resource(Monomial::new(0.25, 2).into())
                }
            })
            .collect();
        let path = |ids: &[usize]| Strategy::new(ids.iter().map(|&i| r[i]).collect()).unwrap();
        b.add_class("links", n, vec![path(&[0]), path(&[1]), path(&[2])]).unwrap();
        b.add_class("paths", n, vec![path(&[2, 3]), path(&[3, 4]), path(&[0, 4]), path(&[4])])
            .unwrap();
        let game = b.build().unwrap();
        assert!(game.classes()[0].strategies_disjoint());
        assert!(!game.classes()[1].strategies_disjoint());
        game
    }

    /// Counts for every class of `game` from a small LCG, with some
    /// strategies left empty.
    fn lcg_counts(game: &CongestionGame, seed: &mut u64) -> Vec<u64> {
        let mut counts = vec![0u64; game.num_strategies()];
        for class in game.classes() {
            let range = class.strategy_range();
            for _ in 0..class.players() {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Skew towards the low ids so the high ones often stay empty.
                let pick = ((*seed >> 33) % range.len() as u64) * ((*seed >> 20) & 1);
                counts[(range.start as u64 + pick) as usize] += 1;
            }
        }
        counts
    }

    #[test]
    fn pair_stream_matches_the_naive_reference_bitwise() {
        let imitation = |nu: NuRule, ss: SelfSampling, va: bool| -> Protocol {
            ImitationProtocol::paper_default()
                .with_nu_rule(nu)
                .with_self_sampling(ss)
                .with_virtual_agents(va)
                .into()
        };
        let mut protocols = Vec::new();
        for nu in [NuRule::Threshold, NuRule::None] {
            for ss in [SelfSampling::Include, SelfSampling::Exclude] {
                for va in [false, true] {
                    protocols.push(imitation(nu, ss, va));
                }
            }
        }
        protocols.push(ExplorationProtocol::paper_default().into());
        protocols.push(Protocol::combined_default());
        let combined_va = Protocol::combined(
            ImitationProtocol::paper_default().with_virtual_agents(true),
            ExplorationProtocol::paper_default(),
            0.25,
        )
        .unwrap();
        protocols.push(combined_va);
        let mut seed = 0x5eed_u64;
        let mut row_pairs = 0usize;
        // On two unit-slope links ν = 1, so a 5|3 split puts a gain exactly on
        // the threshold.
        for game in [mixed_links(40), two_class_overlap(12), two_links(8)] {
            for &proto in &protocols {
                let va = proto.imitation().is_some_and(ImitationProtocol::virtual_agents);
                for rep in 0..6u64 {
                    let mut start =
                        State::from_counts(&game, lcg_counts(&game, &mut seed)).unwrap();
                    if va {
                        start = start.with_virtual_agents(&game);
                    }
                    let mut sim = Simulation::new(&game, proto, start).unwrap();
                    let mut rng = SmallRng::seed_from_u64(rep);
                    for _ in 0..4 {
                        let got = pair_stream(&sim);
                        assert_eq!(got, reference_pairs(&sim), "{proto:?} at {:?}", sim.state());
                        if !va && proto.exploration().is_none() {
                            row_pairs += got.len();
                        }
                        // Without a fresh cache every latency is pointwise.
                        sim.state.invalidate_latency_cache();
                        assert_eq!(pair_stream(&sim), got, "{proto:?} uncached");
                        sim.step(&mut rng).unwrap();
                    }
                }
            }
        }
        assert!(row_pairs > 100, "the row-based support branch was barely exercised");
    }

    #[test]
    fn undamped_overshoots_on_polynomial_links() {
        // Section 2.3's instance: ℓ1 = c (constant), ℓ2 = x^d. Start with
        // everyone on link 1. One undamped round overshoots link 2 beyond
        // its balanced load; the damped protocol does not (in expectation).
        use congames_model::{Constant, Monomial};
        let d = 6u32;
        let n = 4096u64;
        let c = 1000.0;
        let game = CongestionGame::singleton(
            vec![Constant::new(c).into(), Monomial::new(1.0, d).into()],
            n,
        )
        .unwrap();
        // Balanced load: x with x^d = c ⇒ x ≈ c^(1/d) ≈ 3.16 ⇒ tiny. Start
        // with a few players on link 2 so it can be sampled.
        let start = State::from_counts(&game, vec![n - 2, 2]).unwrap();
        let reps = 200;
        let mut mean_load = [0.0f64; 2];
        for (i, damping) in [Damping::Elasticity, Damping::None].into_iter().enumerate() {
            let proto: Protocol = ImitationProtocol::new(0.9)
                .unwrap()
                .with_damping(damping)
                .with_nu_rule(NuRule::None)
                .into();
            let mut sum = 0.0;
            for rep in 0..reps {
                let mut sim = Simulation::new(&game, proto, start.clone()).unwrap();
                let mut rng = SmallRng::seed_from_u64(500 + rep);
                sim.step(&mut rng).unwrap();
                sum += sim.state().count(StrategyId::new(1)) as f64;
            }
            mean_load[i] = sum / reps as f64;
        }
        // Undamped inflow should be ≈ d times the damped inflow.
        let ratio = (mean_load[1] - 2.0) / (mean_load[0] - 2.0).max(1e-9);
        assert!(
            ratio > (d as f64) * 0.5,
            "undamped/damped inflow ratio {ratio}, means {mean_load:?}"
        );
    }
}
