//! A small CLI for poking at congestion-game dynamics without writing code.
//!
//! ```bash
//! congames params  --links 1,2,3 --players 100
//! congames run     --links 1,2,3 --players 1000 --protocol imitation --rounds 200
//! congames optimum --links 1,2,3 --players 100
//! # multi-process: run each shard anywhere, then merge the partial files
//! congames shard   --links 1,2 --players 100 --trials 96 --reduce quantiles \
//!                  --shard 0 --num-shards 3 --out part0.cgshard
//! congames merge   part0.cgshard part1.cgshard part2.cgshard
//! ```
//!
//! Links are linear latencies `ℓ(x) = a·x` given by their coefficients; the
//! CLI covers the singleton-game slice of the library (the API covers far
//! more — see the examples).

use congames::analysis::{
    convergence_csv, per_round_stats_csv, shock_recovery, shock_recovery_csv, Summary,
};
use congames::dynamics::wire::{
    decode_shard_file, decode_shard_header, encode_shard_file, validate_shard_sequence,
    ShardHeader, WireReduce,
};
use congames::dynamics::{
    merge_partials, ConvergenceHistogram, EngineKind, Ensemble, ExplorationProtocol, FinalSummary,
    ImitationProtocol, MapItem, NuRule, PerRoundStats, Protocol, ReasonStats, RecordSeries,
    RoundRecord, RunSummary, ScalarStats, Simulation, StopCondition, StopSpec,
};
use congames::model::{average_latency, potential, LinearSingleton, ResourceId};
use congames::sampling::{Dispatch, DrawStream, RngMode};
use congames::scenario::{trace::parse_trace, Schedule, ScheduleCursor};
use congames::RecordConfig;
use congames::{Affine, CongestionGame, State};
use rand::SeedableRng;
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// Relative half-width of the recovery band `--shock-csv` scores against
/// (see [`shock_recovery`]).
const SHOCK_EPSILON: f64 = 0.05;

/// `println!` whose write error (a closed pipe, a full disk) returns
/// from the enclosing function, and so from [`run`], instead of panicking.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*).map_err(Failure::Output)?
    };
}

/// Why a command failed: a message for the user, or a failed write to
/// stdout.
enum Failure {
    Message(String),
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Message(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Message(msg.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader stopped early (`| head`): it wants no more output.
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Output(e)) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  congames params  --links a1,a2,... --players N
  congames optimum --links a1,a2,... --players N
  congames run     --links a1,a2,... --players N [--protocol imitation|exploration|combined]
                   [--rounds R] [--lambda L] [--seed S] [--no-nu]
                   [--trials T] [--threads K] [--engine aggregate|player]
                   [--rng xoshiro|counter] [--lanes 8|16|32|64]
                   [--reduce mean|quantiles|convergence]
                   [--scenario TRACE] [--shock-csv FILE]
  congames shard   <run flags> --reduce MODE --shard S --num-shards K --out FILE
  congames merge   [--csv FILE] FILE...

links are linear latencies l(x) = a*x, comma-separated coefficients.
with --trials > 1 an ensemble of T independent replicas runs in parallel
(results are identical for every --threads value) and a summary is printed.
--reduce streams the ensemble through an online reducer (memory independent
of the trial count): `mean` prints the per-round mean potential with 95%
confidence bands, `quantiles` the convergence-round and final-potential
quantiles, `convergence` a stop-reason histogram.
`shard` runs one slice of a sweep and writes its reducer partials to a
file; `merge` (given every shard's file, in shard order) reproduces the
single-process `run --reduce` report byte for byte.
--rng selects the random backend: `xoshiro` (default) draws one sequential
stream per trial; `counter` addresses every draw by (trial, round, site,
index), so results are also invariant to how draws are batched. Both
are bit-reproducible from the printed `# repro:` header line.
--lanes is inert: it is checked (8, 16, 32 or 64) and otherwise ignored,
kept only so existing invocations still run; the output is the same with
or without it.
--scenario replays a nonstationary trace (`# congames-trace v1` format):
scheduled latency shocks, demand changes, and arrivals/departures fire
between rounds, deterministically, in every trial of a sweep and in every
shard of a distributed run. --shock-csv (single runs only) records every
round and writes the per-shock re-convergence summary as CSV.";

fn run(args: &[String]) -> Result<(), Failure> {
    // A `CONGAMES_SIMD` typo would otherwise run the detected arm silently.
    Dispatch::env_override()?;
    let cmd = args.first().ok_or("missing subcommand")?.as_str();
    if cmd == "merge" {
        // Merge is self-describing: everything comes from the shard files.
        return merge(&args[1..]);
    }
    let opts = Options::parse(&args[1..])?;
    let game = opts.game()?;
    match cmd {
        "params" => params(&game),
        "optimum" => optimum(&game),
        "run" => simulate(&game, &opts),
        "shard" => shard(&game, &opts),
        other => Err(format!("unknown subcommand `{other}`").into()),
    }
}

/// Parsed command-line options (defaults filled in).
#[derive(Debug)]
struct Options {
    links: Vec<f64>,
    players: u64,
    protocol: String,
    rounds: u64,
    lambda: f64,
    seed: u64,
    use_nu: bool,
    trials: usize,
    threads: usize,
    engine: EngineKind,
    rng: RngMode,
    reduce: Option<ReduceMode>,
    shard: Option<usize>,
    num_shards: Option<usize>,
    out: Option<String>,
    scenario: Option<ScenarioFile>,
    shock_csv: Option<String>,
}

/// A `--scenario` trace, loaded and digested at parse time so every
/// consumer (run, shard header, repro line) sees one canonical schedule.
#[derive(Debug)]
struct ScenarioFile {
    schedule: Arc<Schedule>,
    digest: String,
}

impl ScenarioFile {
    fn load(path: &str) -> Result<ScenarioFile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read scenario `{path}`: {e}"))?;
        let schedule = parse_trace(&text).map_err(|e| format!("scenario `{path}`: {e}"))?;
        let digest = schedule.digest();
        Ok(ScenarioFile { schedule: Arc::new(schedule), digest })
    }

    /// A fresh per-trial cursor over the shared schedule.
    fn cursor(&self) -> ScheduleCursor {
        ScheduleCursor::new(Arc::clone(&self.schedule))
    }
}

/// Which streaming reduction `--reduce` asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReduceMode {
    Mean,
    Quantiles,
    Convergence,
}

impl ReduceMode {
    fn name(self) -> &'static str {
        match self {
            ReduceMode::Mean => "mean",
            ReduceMode::Quantiles => "quantiles",
            ReduceMode::Convergence => "convergence",
        }
    }

    fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "mean" => Ok(ReduceMode::Mean),
            "quantiles" => Ok(ReduceMode::Quantiles),
            "convergence" => Ok(ReduceMode::Convergence),
            other => Err(format!("unknown reduction `{other}`")),
        }
    }
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            links: vec![],
            players: 0,
            protocol: "imitation".into(),
            rounds: 1000,
            lambda: 0.25,
            seed: 42,
            use_nu: true,
            trials: 1,
            threads: Ensemble::default_threads(),
            engine: EngineKind::Aggregate,
            rng: RngMode::Xoshiro,
            reduce: None,
            shard: None,
            num_shards: None,
            out: None,
            scenario: None,
            shock_csv: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--links" => {
                    let v = it.next().ok_or("--links needs a value")?;
                    o.links = v
                        .split(',')
                        .map(|s| {
                            s.trim().parse::<f64>().map_err(|e| format!("bad link `{s}`: {e}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--players" => {
                    o.players = it
                        .next()
                        .ok_or("--players needs a value")?
                        .parse()
                        .map_err(|e| format!("bad player count: {e}"))?;
                }
                "--protocol" => {
                    o.protocol = it.next().ok_or("--protocol needs a value")?.clone();
                }
                "--rounds" => {
                    o.rounds = it
                        .next()
                        .ok_or("--rounds needs a value")?
                        .parse()
                        .map_err(|e| format!("bad round count: {e}"))?;
                }
                "--lambda" => {
                    o.lambda = it
                        .next()
                        .ok_or("--lambda needs a value")?
                        .parse()
                        .map_err(|e| format!("bad lambda: {e}"))?;
                }
                "--seed" => {
                    o.seed = it
                        .next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|e| format!("bad seed: {e}"))?;
                }
                "--no-nu" => o.use_nu = false,
                "--trials" => {
                    o.trials = it
                        .next()
                        .ok_or("--trials needs a value")?
                        .parse()
                        .map_err(|e| format!("bad trial count: {e}"))?;
                    if o.trials == 0 {
                        return Err("--trials must be positive (a 0-trial ensemble is just the \
                                    identity reduction)"
                            .into());
                    }
                }
                "--threads" => {
                    o.threads = it
                        .next()
                        .ok_or("--threads needs a value")?
                        .parse()
                        .map_err(|e| format!("bad thread count: {e}"))?;
                    if o.threads == 0 {
                        return Err("--threads must be positive".into());
                    }
                }
                "--engine" => {
                    o.engine = match it.next().ok_or("--engine needs a value")?.as_str() {
                        "aggregate" => EngineKind::Aggregate,
                        "player" | "player-level" => EngineKind::PlayerLevel,
                        other => return Err(format!("unknown engine `{other}`")),
                    };
                }
                "--rng" => {
                    let v = it.next().ok_or("--rng needs a value")?;
                    o.rng = RngMode::parse(v)
                        .ok_or_else(|| format!("unknown rng mode `{v}` (xoshiro|counter)"))?;
                }
                "--lanes" => {
                    // Inert (see USAGE): only the value is checked.
                    let w: usize = it
                        .next()
                        .ok_or("--lanes needs a value")?
                        .parse()
                        .map_err(|e| format!("bad lane width: {e}"))?;
                    if ![8, 16, 32, 64].contains(&w) {
                        return Err(format!("--lanes must be one of 8, 16, 32, 64 (got {w})"));
                    }
                }
                "--reduce" => {
                    o.reduce =
                        Some(ReduceMode::from_name(it.next().ok_or("--reduce needs a value")?)?);
                }
                "--shard" => {
                    o.shard = Some(
                        it.next()
                            .ok_or("--shard needs a value")?
                            .parse()
                            .map_err(|e| format!("bad shard index: {e}"))?,
                    );
                }
                "--num-shards" => {
                    let n: usize = it
                        .next()
                        .ok_or("--num-shards needs a value")?
                        .parse()
                        .map_err(|e| format!("bad shard count: {e}"))?;
                    if n == 0 {
                        return Err("--num-shards must be positive".into());
                    }
                    o.num_shards = Some(n);
                }
                "--out" => {
                    o.out = Some(it.next().ok_or("--out needs a value")?.clone());
                }
                "--scenario" => {
                    let path = it.next().ok_or("--scenario needs a trace file")?;
                    o.scenario = Some(ScenarioFile::load(path)?);
                }
                "--shock-csv" => {
                    o.shock_csv = Some(it.next().ok_or("--shock-csv needs a value")?.clone());
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if o.links.is_empty() {
            return Err("--links is required".into());
        }
        if o.players == 0 {
            return Err("--players is required and must be positive".into());
        }
        // `--reduce --trials 1` is deliberately allowed: reduction is
        // defined for every trial count (0 trials is the identity, 1 trial
        // is identity + one absorb), so a single-trial "ensemble" is just
        // a well-defined small sweep.
        if o.shock_csv.is_some() && o.scenario.is_none() {
            return Err("--shock-csv needs --scenario (without scheduled shocks there is \
                        nothing to recover from)"
                .into());
        }
        Ok(o)
    }

    fn game(&self) -> Result<CongestionGame, String> {
        if self.links.iter().any(|a| !a.is_finite() || *a <= 0.0) {
            return Err("link coefficients must be positive".into());
        }
        let game = CongestionGame::singleton(
            self.links.iter().map(|&a| Affine::linear(a).into()).collect(),
            self.players,
        )
        .map_err(|e| e.to_string())?;
        // The check every run start makes (the CLI attaches no base
        // loads), here so a run fails before it prints anything.
        for r in (0..game.num_resources() as u32).map(ResourceId::new) {
            game.check_latency_domain(r, 0).map_err(|e| e.to_string())?;
        }
        Ok(game)
    }

    fn protocol(&self) -> Result<Protocol, String> {
        let imitation = {
            let p = ImitationProtocol::new(self.lambda).map_err(|e| e.to_string())?;
            if self.use_nu {
                p
            } else {
                p.with_nu_rule(NuRule::None)
            }
        };
        match self.protocol.as_str() {
            "imitation" => Ok(imitation.into()),
            "exploration" => {
                Ok(ExplorationProtocol::new(self.lambda).map_err(|e| e.to_string())?.into())
            }
            "combined" => Protocol::combined(
                imitation,
                ExplorationProtocol::new(self.lambda).map_err(|e| e.to_string())?,
                0.5,
            )
            .map_err(|e| e.to_string()),
            other => Err(format!("unknown protocol `{other}`")),
        }
    }

    /// Deterministic digest of everything that shapes a sweep's streams and
    /// reduction (threads excluded — results are invariant to the thread
    /// count).
    /// Written into every shard header so `merge` can reject partials from
    /// a differently-configured run and rebuild the right reducer.
    fn config_digest(&self) -> String {
        let links: Vec<String> = self.links.iter().map(|a| a.to_bits().to_string()).collect();
        format!(
            "links={};players={};protocol={};rounds={};lambda={};nu={};engine={:?};reduce={};\
             trials={};scenario={}",
            links.join(","),
            self.players,
            self.protocol,
            self.rounds,
            self.lambda.to_bits(),
            self.use_nu,
            self.engine,
            self.reduce.map_or("none", ReduceMode::name),
            self.trials,
            self.scenario_digest(),
        )
    }

    /// The scenario schedule's digest, or `none` — the value every
    /// digest/banner/header renders so stationary and shocked runs are
    /// distinguishable (and differently-shocked shard sets unmergeable).
    fn scenario_digest(&self) -> &str {
        self.scenario.as_ref().map_or("none", |s| s.digest.as_str())
    }

    fn engine_name(&self) -> &'static str {
        match self.engine {
            EngineKind::Aggregate => "aggregate",
            EngineKind::PlayerLevel => "player",
        }
    }

    /// The one-line reproducibility header `run` and `shard` print before
    /// any numbers: rng mode, base seed, and engine (plus the sweep shape),
    /// so every reported figure is reconstructible from this line alone.
    fn repro_header(&self) -> String {
        format!(
            "# repro: rng={} seed={} engine={} trials={} rounds={} scenario={}",
            self.rng.name(),
            self.seed,
            self.engine_name(),
            self.trials,
            self.rounds,
            self.scenario_digest(),
        )
    }
}

/// Look up one `key=value` entry of a shard header's config digest.
fn config_value<'a>(config: &'a str, key: &str) -> Option<&'a str> {
    config.split(';').find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

fn params(game: &CongestionGame) -> Result<(), Failure> {
    let p = game.params();
    outln!("links: {}, players: {}", game.num_resources(), game.total_players());
    outln!("elasticity bound d   = {}", p.d);
    outln!("slope bound ν        = {}", p.nu);
    outln!("max slope β          = {}", p.beta);
    outln!("min latency ℓ_min    = {}", p.ell_min);
    outln!("protocol damping λ/d = λ/{}", p.damping());
    Ok(())
}

fn optimum(game: &CongestionGame) -> Result<(), Failure> {
    let ls = LinearSingleton::analyze(game).map_err(|e| e.to_string())?;
    outln!("A_Γ = {:.6}", ls.a_gamma());
    outln!("fractional optimum average latency n/A_Γ = {:.6}", ls.fractional_optimum_cost());
    for e in 0..game.num_resources() {
        outln!(
            "  link {e}: a = {}, fractional load {:.2}{}",
            ls.coefficients()[e],
            ls.fractional_load(e),
            if ls.is_useless(e) { "  (useless)" } else { "" }
        );
    }
    Ok(())
}

/// The random start state every `run`/`shard` invocation with the same
/// `--seed` derives (shards must agree on it exactly).
fn start_state(game: &CongestionGame, opts: &Options) -> Result<State, String> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(opts.seed);
    let mut counts = vec![0u64; game.num_strategies()];
    for _ in 0..game.total_players() {
        use rand::Rng;
        counts[rng.gen_range(0..game.num_strategies())] += 1;
    }
    State::from_counts(game, counts).map_err(|e| e.to_string())
}

/// The stop rule every `run`/`shard` invocation uses.
fn stop_spec(opts: &Options) -> StopSpec {
    StopSpec::new(vec![StopCondition::ImitationStable, StopCondition::MaxRounds(opts.rounds)])
        .with_check_every(4)
}

fn simulate(game: &CongestionGame, opts: &Options) -> Result<(), Failure> {
    // Settle everything that can fail on the flags alone before printing
    // anything or drawing the O(n) start state.
    let protocol = opts.protocol()?;
    let ensemble_run = opts.trials > 1 || opts.reduce.is_some();
    if let Some(path) = &opts.shock_csv {
        if ensemble_run {
            return Err("--shock-csv analyzes a single trajectory; drop --trials/--reduce \
                        (ensembles summarize via --reduce instead)"
                .into());
        }
        // Fail before the run, not after it: create the file now (the
        // summary overwrites it at the end).
        std::fs::File::create(path).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    outln!("{}", opts.repro_header());
    // Random start, then run. In xoshiro mode the single-run stream is the
    // historical `SmallRng::seed_from_u64(--seed)`; counter mode runs as
    // trial 0 of the keyed sweep.
    let mut rng = match opts.rng {
        RngMode::Xoshiro => {
            DrawStream::from_small_rng(rand::rngs::SmallRng::seed_from_u64(opts.seed))
        }
        RngMode::Counter => DrawStream::for_trial(RngMode::Counter, opts.seed, 0),
    };
    let state = start_state(game, opts)?;
    outln!(
        "start: Φ = {:.3}, L_av = {:.4}, loads {:?}",
        potential(game, &state),
        average_latency(game, &state),
        state.loads()
    );
    let stop = stop_spec(opts);
    if ensemble_run {
        return simulate_ensemble(game, opts, protocol, state, &stop);
    }
    let mut sim =
        Simulation::new(game, protocol, state).map_err(|e| e.to_string())?.with_engine(opts.engine);
    if let Some(sc) = &opts.scenario {
        sim = sim.with_hook(Box::new(sc.cursor()));
    }
    if opts.shock_csv.is_some() {
        // Re-convergence is scored on the full-resolution trajectory.
        sim = sim.with_recording(RecordConfig::every(1));
    }
    let mut series = RecordSeries::new();
    let summary = sim.run_observed(&stop, &mut rng, &mut series).map_err(|e| e.to_string())?;
    outln!(
        "after {} rounds ({:?}): Φ = {:.3}, L_av = {:.4}, loads {:?}",
        summary.rounds,
        summary.reason,
        sim.potential(),
        average_latency(game, sim.state()),
        sim.state().loads()
    );
    if let Some(path) = &opts.shock_csv {
        use congames::dynamics::Observer as _;
        let records = series.finish(&summary);
        let shocks = shock_recovery(&records, SHOCK_EPSILON);
        shock_recovery_csv(&shocks)
            .write_to(path)
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        outln!(
            "wrote re-convergence summary for {} shocks (ε = {SHOCK_EPSILON}) to {path}",
            shocks.len()
        );
    }
    Ok(())
}

/// Record cadence for the `mean` reduction: keeps the per-round table
/// ≲ 64 indices however long the run budget is.
fn mean_cadence(rounds: u64) -> u64 {
    (rounds / 64).max(1)
}

/// The `mean` reducer: per-round statistics over on-cadence records. Each
/// trial's forced stop record can land off the cadence, which would blend
/// different round numbers into one index — filter to on-cadence records
/// so every reduced row averages one exact round across trials.
fn mean_reducer(
    cadence: u64,
) -> MapItem<Vec<RoundRecord>, impl Fn(Vec<RoundRecord>) -> Vec<RoundRecord> + Clone, PerRoundStats>
{
    MapItem::new(
        move |records: Vec<RoundRecord>| {
            records.into_iter().filter(|r| r.round % cadence == 0).collect()
        },
        PerRoundStats::new(),
    )
}

fn summary_rounds(s: RunSummary) -> f64 {
    s.rounds as f64
}

fn summary_potential(s: RunSummary) -> f64 {
    s.potential
}

/// The `quantiles` reducer: convergence-round and final-potential sketches.
type QuantilesReducer = (
    MapItem<RunSummary, fn(RunSummary) -> f64, ScalarStats>,
    MapItem<RunSummary, fn(RunSummary) -> f64, ScalarStats>,
);

fn quantiles_reducer() -> QuantilesReducer {
    (
        MapItem::new(summary_rounds as fn(RunSummary) -> f64, ScalarStats::new()),
        MapItem::new(summary_potential as fn(RunSummary) -> f64, ScalarStats::new()),
    )
}

fn print_mean_report(stats: &PerRoundStats, cadence: u64) -> Result<(), Failure> {
    outln!("  per-round means over {} trials (recorded every {} rounds):", stats.trials(), cadence);
    outln!("  {:>8}  {:>14}  {:>12}  {:>10}", "round", "mean Φ ± ci95", "mean L_av", "moves");
    let step = (stats.len() / 16).max(1);
    for r in stats.rounds().iter().step_by(step) {
        outln!(
            "  {:>8.0}  {:>9.2} ± {:<6.2} {:>10.4}  {:>10.2}",
            r.round.mean(),
            r.potential.mean(),
            r.potential.ci95(),
            r.l_av.mean(),
            r.migrations.mean(),
        );
    }
    Ok(())
}

fn print_quantiles_report(rounds: &ScalarStats, potential: &ScalarStats) -> Result<(), Failure> {
    outln!("  {:>10}  {:>12}  {:>12}", "quantile", "rounds", "final Φ");
    for q in [0.10, 0.25, 0.50, 0.75, 0.90] {
        outln!(
            "  {:>10}  {:>12.1}  {:>12.3}",
            format!("q{:02.0}", q * 100.0),
            rounds.quantile(q),
            potential.quantile(q),
        );
    }
    outln!(
        "  rounds mean {:.1} ± {:.1}, range [{:.0}, {:.0}]",
        rounds.mean(),
        rounds.ci95(),
        rounds.min(),
        rounds.max()
    );
    // One bad latency must not abort a sweep, but it must not vanish
    // either: surface the tally whenever anything non-finite was absorbed.
    let bad = rounds.non_finite() + potential.non_finite();
    if bad > 0 {
        outln!("  non-finite samples excluded from the quantiles: {bad}");
    }
    Ok(())
}

fn print_convergence_report(hist: &ConvergenceHistogram) -> Result<(), Failure> {
    for (reason, stats) in hist.observed() {
        outln!(
            "  {:?}: {} trials, rounds mean {:.1} (min {:.0}, max {:.0})",
            reason,
            stats.count(),
            stats.rounds.mean(),
            stats.envelope.min(),
            stats.envelope.max()
        );
        for (k, &count) in stats.buckets().iter().enumerate().filter(|(_, &c)| c > 0) {
            let (lo, hi) = ReasonStats::bucket_range(k);
            outln!("      rounds {:>6}–{:<6} {:>6} trials", lo, hi - 1, count);
        }
    }
    Ok(())
}

/// The ensemble `run --trials` and `shard` sweep: engine, RNG, trials,
/// seed, threads and scenario hook, all from the flags.
fn ensemble<'g>(
    game: &'g CongestionGame,
    opts: &Options,
    protocol: Protocol,
    start: State,
) -> Result<Ensemble<'g>, String> {
    let mut ensemble = Ensemble::new(game, protocol, start)
        .map_err(|e| e.to_string())?
        .engine(opts.engine)
        .rng_mode(opts.rng)
        .trials(opts.trials)
        .base_seed(opts.seed)
        .threads(opts.threads);
    if let Some(sc) = &opts.scenario {
        let schedule = Arc::clone(&sc.schedule);
        ensemble =
            ensemble.with_round_hook(move || Box::new(ScheduleCursor::new(Arc::clone(&schedule))));
    }
    Ok(ensemble)
}

/// Run `--trials` independent replicas in parallel and print per-ensemble
/// summaries; the numbers are identical for every `--threads` value.
fn simulate_ensemble(
    game: &CongestionGame,
    opts: &Options,
    protocol: Protocol,
    start: State,
    stop: &StopSpec,
) -> Result<(), Failure> {
    let ensemble = ensemble(game, opts, protocol, start)?;
    outln!("ensemble of {} trials ({} threads, seed {}):", opts.trials, opts.threads, opts.seed);
    match opts.reduce {
        None => {
            let results = ensemble
                .run_with(stop, |sim, out| {
                    (out.rounds as f64, out.potential, average_latency(game, sim.state()))
                })
                .map_err(|e| e.to_string())?;
            let rounds: Vec<f64> = results.iter().map(|r| r.0).collect();
            let potentials: Vec<f64> = results.iter().map(|r| r.1).collect();
            let latencies: Vec<f64> = results.iter().map(|r| r.2).collect();
            let (r, p, l) =
                (Summary::of(&rounds), Summary::of(&potentials), Summary::of(&latencies));
            outln!("  rounds: mean {:.1} (min {:.0}, max {:.0})", r.mean(), r.min(), r.max());
            outln!("  final Φ: mean {:.3} ± {:.3}", p.mean(), p.sd());
            outln!("  final L_av: mean {:.4} ± {:.4}", l.mean(), l.sd());
        }
        Some(ReduceMode::Mean) => {
            let cadence = mean_cadence(opts.rounds);
            let stats = ensemble
                .recording(RecordConfig::every(cadence))
                .run_reduced(stop, |_trial| RecordSeries::new(), mean_reducer(cadence))
                .map_err(|e| e.to_string())?
                .into_inner();
            print_mean_report(&stats, cadence)?;
        }
        Some(ReduceMode::Quantiles) => {
            let (rounds, potential) = ensemble
                .run_reduced(stop, |_trial| FinalSummary, quantiles_reducer())
                .map_err(|e| e.to_string())?;
            print_quantiles_report(rounds.inner(), potential.inner())?;
        }
        Some(ReduceMode::Convergence) => {
            let hist = ensemble
                .run_reduced(stop, |_trial| FinalSummary, ConvergenceHistogram::new())
                .map_err(|e| e.to_string())?;
            print_convergence_report(&hist)?;
        }
    }
    Ok(())
}

/// `congames shard`: run one slice of a `--reduce` sweep and write its
/// reduction-tree leaves (one partial per 32-trial block) to `--out`.
fn shard(game: &CongestionGame, opts: &Options) -> Result<(), Failure> {
    let mode = opts.reduce.ok_or("shard needs --reduce (the partial file carries a reducer)")?;
    let shard = opts.shard.ok_or("shard needs --shard")?;
    let num_shards = opts.num_shards.ok_or("shard needs --num-shards")?;
    let out = opts.out.as_deref().ok_or("shard needs --out")?;
    if shard >= num_shards {
        return Err(format!("--shard {shard} is out of range for --num-shards {num_shards}").into());
    }
    let protocol = opts.protocol()?;
    outln!("{}", opts.repro_header());
    let start = start_state(game, opts)?;
    let stop = stop_spec(opts);
    let ensemble = ensemble(game, opts, protocol, start)?;
    let range = ensemble.shard_trials(shard, num_shards);
    let header = ShardHeader {
        base_seed: opts.seed,
        trials: opts.trials as u64,
        trial_lo: range.start as u64,
        trial_hi: range.end as u64,
        shard: shard as u32,
        num_shards: num_shards as u32,
        rng_mode: opts.rng,
        reducer_id: String::new(), // filled in per reducer below
        config: opts.config_digest(),
    };
    // Fail before the run, not after it: create the file now.
    let mut file = std::fs::File::create(out).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    let bytes = match mode {
        ReduceMode::Mean => {
            let cadence = mean_cadence(opts.rounds);
            let reducer = mean_reducer(cadence);
            let blocks = ensemble
                .recording(RecordConfig::every(cadence))
                .run_reduced_shard(shard, num_shards, &stop, |_t| RecordSeries::new(), &reducer)
                .map_err(|e| e.to_string())?;
            encode_shard_file(&ShardHeader { reducer_id: reducer.wire_id(), ..header }, &blocks)
        }
        ReduceMode::Quantiles => {
            let reducer = quantiles_reducer();
            let blocks = ensemble
                .run_reduced_shard(shard, num_shards, &stop, |_t| FinalSummary, &reducer)
                .map_err(|e| e.to_string())?;
            encode_shard_file(&ShardHeader { reducer_id: reducer.wire_id(), ..header }, &blocks)
        }
        ReduceMode::Convergence => {
            let reducer = ConvergenceHistogram::new();
            let blocks = ensemble
                .run_reduced_shard(shard, num_shards, &stop, |_t| FinalSummary, &reducer)
                .map_err(|e| e.to_string())?;
            encode_shard_file(&ShardHeader { reducer_id: reducer.wire_id(), ..header }, &blocks)
        }
    };
    file.write_all(&bytes).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    outln!(
        "wrote shard {}/{}: trials [{}, {}) of {}, {} bytes to {}",
        shard,
        num_shards,
        range.start,
        range.end,
        opts.trials,
        bytes.len(),
        out
    );
    Ok(())
}

/// `congames merge`: validate and merge every shard's partial file (given
/// in shard order) and print the same report `run --reduce` prints.
fn merge(args: &[String]) -> Result<(), Failure> {
    let mut csv_out: Option<String> = None;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--csv" => csv_out = Some(it.next().ok_or("--csv needs a value")?.clone()),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`").into());
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        return Err("merge needs the shard files, in shard order".into());
    }
    let files: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| std::fs::read(p).map_err(|e| format!("cannot read `{p}`: {e}")))
        .collect::<Result<_, _>>()?;
    let headers: Vec<ShardHeader> = files
        .iter()
        .zip(&paths)
        .map(|(bytes, p)| decode_shard_header(bytes).map_err(|e| format!("{p}: {e}")))
        .collect::<Result<_, _>>()?;
    validate_shard_sequence(&headers).map_err(|e| e.to_string())?;
    let first = &headers[0];
    let mode = ReduceMode::from_name(
        config_value(&first.config, "reduce")
            .ok_or("shard file config carries no `reduce` entry")?,
    )?;
    let rounds: u64 = config_value(&first.config, "rounds")
        .and_then(|v| v.parse().ok())
        .ok_or("shard file config carries no `rounds` entry")?;
    // Settle `--csv` before any payload is decoded or any report line is
    // printed: reject it where no table exists, and create the file now.
    if let Some(path) = &csv_out {
        if mode == ReduceMode::Quantiles {
            return Err("--csv is only supported for mean/convergence merges".into());
        }
        std::fs::File::create(path).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    // Banner only after every payload validated and merged — a failing
    // merge must not open with a success-looking line.
    let banner = || -> Result<(), Failure> {
        outln!(
            "merged {} shards ({} trials, seed {}, rng {}, scenario {}):",
            headers.len(),
            first.trials,
            first.base_seed,
            first.rng_mode,
            config_value(&first.config, "scenario").unwrap_or("none"),
        );
        Ok(())
    };
    // Decode every shard's leaves and replay the single-process merge
    // chain in global block order — bit-identical to `run_reduced`.
    fn merge_files<R: WireReduce>(
        prototype: &R,
        files: &[Vec<u8>],
        paths: &[&String],
    ) -> Result<R, String> {
        let mut leaves = Vec::new();
        for (bytes, p) in files.iter().zip(paths) {
            let (_, blocks) =
                decode_shard_file(prototype, bytes).map_err(|e| format!("{p}: {e}"))?;
            leaves.extend(blocks);
        }
        Ok(merge_partials(prototype.identity(), leaves))
    }
    match mode {
        ReduceMode::Mean => {
            let cadence = mean_cadence(rounds);
            let stats = merge_files(&mean_reducer(cadence), &files, &paths)?.into_inner();
            banner()?;
            print_mean_report(&stats, cadence)?;
            if let Some(path) = csv_out {
                per_round_stats_csv(&stats)
                    .write_to(&path)
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            }
        }
        ReduceMode::Quantiles => {
            let (rounds, potential) = merge_files(&quantiles_reducer(), &files, &paths)?;
            banner()?;
            print_quantiles_report(rounds.inner(), potential.inner())?;
        }
        ReduceMode::Convergence => {
            let hist = merge_files(&ConvergenceHistogram::new(), &files, &paths)?;
            banner()?;
            print_convergence_report(&hist)?;
            if let Some(path) = csv_out {
                convergence_csv(&hist)
                    .write_to(&path)
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(extra: &[&str]) -> Result<Options, String> {
        let mut args: Vec<String> =
            ["--links", "1,2", "--players", "10"].iter().map(|s| s.to_string()).collect();
        args.extend(extra.iter().map(|s| s.to_string()));
        Options::parse(&args)
    }

    #[test]
    fn reduce_with_a_single_trial_is_allowed() {
        // Reduction is defined for every trial count; `--trials 1` (the
        // default) must not be rejected.
        let o = opts(&["--reduce", "quantiles"]).unwrap();
        assert_eq!(o.trials, 1);
        assert_eq!(o.reduce, Some(ReduceMode::Quantiles));
        let o = opts(&["--reduce", "mean", "--trials", "1"]).unwrap();
        assert_eq!(o.reduce, Some(ReduceMode::Mean));
    }

    #[test]
    fn zero_trials_error_mentions_the_identity_reduction() {
        let err = opts(&["--trials", "0"]).unwrap_err();
        assert!(err.contains("identity reduction"), "{err}");
    }

    #[test]
    fn unknown_reduction_is_rejected() {
        let err = opts(&["--reduce", "median"]).unwrap_err();
        assert!(err.contains("unknown reduction"), "{err}");
    }

    #[test]
    fn shard_flags_parse() {
        let o = opts(&[
            "--trials",
            "96",
            "--reduce",
            "convergence",
            "--shard",
            "1",
            "--num-shards",
            "3",
            "--out",
            "part1.cgshard",
        ])
        .unwrap();
        assert_eq!(o.shard, Some(1));
        assert_eq!(o.num_shards, Some(3));
        assert_eq!(o.out.as_deref(), Some("part1.cgshard"));
        assert!(opts(&["--num-shards", "0"]).is_err());
    }

    #[test]
    fn rng_flag_parses_and_defaults_to_xoshiro() {
        assert_eq!(opts(&[]).unwrap().rng, RngMode::Xoshiro);
        assert_eq!(opts(&["--rng", "counter"]).unwrap().rng, RngMode::Counter);
        assert_eq!(opts(&["--rng", "xoshiro"]).unwrap().rng, RngMode::Xoshiro);
        let err = opts(&["--rng", "philox"]).unwrap_err();
        assert!(err.contains("unknown rng mode"), "{err}");
    }

    #[test]
    fn lanes_flag_parses_and_is_validated() {
        // The inert flag parses with any backend, engine or reduction.
        for extra in
            [&["--rng", "counter", "--reduce", "quantiles"][..], &[], &["--engine", "player"]]
        {
            let args: Vec<&str> = ["--lanes", "32"].iter().chain(extra).copied().collect();
            assert!(opts(&args).is_ok(), "{args:?}");
        }
        // The width must still be one of the old lane counts.
        let err = opts(&["--rng", "counter", "--lanes", "12", "--reduce", "mean"]).unwrap_err();
        assert!(err.contains("--lanes must be one of 8, 16, 32, 64 (got 12)"), "{err}");
        let err = opts(&["--lanes", "wide"]).unwrap_err();
        assert!(err.contains("bad lane width"), "{err}");
    }

    #[test]
    fn config_digest_excludes_the_lane_width() {
        // Shards run with the inert `--lanes` must merge with shards run
        // without it: the digest (like threads) must not see the flag.
        let base = opts(&["--rng", "counter", "--trials", "96", "--reduce", "mean"]).unwrap();
        let laned =
            opts(&["--rng", "counter", "--trials", "96", "--reduce", "mean", "--lanes", "32"])
                .unwrap();
        assert_eq!(base.config_digest(), laned.config_digest());
    }

    #[test]
    fn repro_header_reconstructs_the_run() {
        // The header must carry the rng mode, base seed, and engine — the
        // complete recipe for every stream the run draws from.
        let o = opts(&["--rng", "counter", "--seed", "7", "--engine", "player", "--trials", "8"])
            .unwrap();
        assert_eq!(
            o.repro_header(),
            "# repro: rng=counter seed=7 engine=player trials=8 rounds=1000 scenario=none"
        );
        let o = opts(&[]).unwrap();
        assert_eq!(
            o.repro_header(),
            "# repro: rng=xoshiro seed=42 engine=aggregate trials=1 rounds=1000 scenario=none"
        );
    }

    #[test]
    fn config_digest_round_trips_through_lookup() {
        let o = opts(&["--trials", "96", "--reduce", "mean", "--rounds", "200"]).unwrap();
        let cfg = o.config_digest();
        assert_eq!(config_value(&cfg, "reduce"), Some("mean"));
        assert_eq!(config_value(&cfg, "rounds"), Some("200"));
        assert_eq!(config_value(&cfg, "trials"), Some("96"));
        assert_eq!(config_value(&cfg, "scenario"), Some("none"));
        assert_eq!(config_value(&cfg, "missing"), None);
    }

    /// Write a trace to a unique temp file and return its path.
    fn temp_trace(name: &str, text: &str) -> String {
        let path = std::env::temp_dir().join(format!("congames-cli-test-{name}.trace"));
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn scenario_flag_loads_and_digests_the_trace() {
        let path = temp_trace("digest", "# congames-trace v1\n100,scale_latency,0,4\n");
        let o = opts(&["--scenario", &path]).unwrap();
        let digest = o.scenario_digest().to_string();
        assert_eq!(digest.len(), 16, "digest is 16 hex chars: {digest}");
        assert!(digest.chars().all(|c| c.is_ascii_hexdigit()));
        // Every reproducibility surface carries the digest.
        assert!(o.repro_header().ends_with(&format!("scenario={digest}")), "{}", o.repro_header());
        assert_eq!(config_value(&o.config_digest(), "scenario"), Some(digest.as_str()));
        // A different schedule yields a different digest (so mixed-scenario
        // shard sets hit the config-mismatch rejection).
        let other = temp_trace("digest-other", "# congames-trace v1\n200,scale_latency,0,4\n");
        let o2 = opts(&["--scenario", &other]).unwrap();
        assert_ne!(o2.scenario_digest(), digest);
    }

    #[test]
    fn malformed_scenario_is_rejected_with_line_context() {
        let path = temp_trace("bad", "# congames-trace v1\n100,scale_latency,0\n");
        let err = opts(&["--scenario", &path]).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = opts(&["--scenario", "/nonexistent/x.trace"]).unwrap_err();
        assert!(err.contains("cannot read scenario"), "{err}");
    }

    #[test]
    fn shock_csv_requires_a_scenario() {
        let err = opts(&["--shock-csv", "out.csv"]).unwrap_err();
        assert!(err.contains("--shock-csv needs --scenario"), "{err}");
    }
}
