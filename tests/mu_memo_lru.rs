//! The player-level kernel's μ sources on a class too large for the μ table.
//!
//! A class whose `2·S²` μ values exceed the table budget evaluates μ per
//! decision; a small class reads μ from the table filled once per class
//! visit. Under pure imitation the players on a sparse start never leave
//! the occupied links, so a 1088-link class with six occupied links plays
//! the same game as a 6-link class with the same latencies — and both μ
//! sources must give the same trajectory bit for bit.

use congames::dynamics::{EngineKind, ImitationProtocol, NuRule, Protocol, Simulation};
use congames::model::{Affine, CongestionGame, State};
use congames_testutil::rng::fixture_rng;

/// `S` parallel links `ℓ_i(x) = (1+i)·x`, players spread over the first
/// `support` links only.
fn sparse_game(s: usize, support: usize, n: u64) -> (CongestionGame, State) {
    let game = CongestionGame::singleton(
        (0..s).map(|i| Affine::linear(1.0 + i as f64).into()).collect(),
        n,
    )
    .expect("valid game");
    let mut counts = vec![0u64; s];
    let share = n / support as u64;
    for c in counts.iter_mut().take(support) {
        *c = share;
    }
    counts[0] += n - share * support as u64;
    let state = State::from_counts(&game, counts).expect("valid start");
    (game, state)
}

fn protocol() -> Protocol {
    ImitationProtocol::paper_default().with_nu_rule(NuRule::None).into()
}

/// Run `rounds` player-level rounds and return the per-round counts.
fn run_player_level(
    game: &CongestionGame,
    start: &State,
    rounds: u64,
    seed_label: &str,
) -> Vec<Vec<u64>> {
    let mut sim = Simulation::new(game, protocol(), start.clone())
        .expect("valid simulation")
        .with_engine(EngineKind::PlayerLevel);
    let mut rng = fixture_rng(seed_label, 21);
    let mut trajectory = Vec::new();
    for _ in 0..rounds {
        sim.step(&mut rng).expect("step");
        trajectory.push(sim.state().counts().to_vec());
    }
    trajectory
}

/// S = 1088 ⇒ 2·S² ≈ 2.37M > 2²¹ μ values, so every decision evaluates μ;
/// its trajectory must equal the tabled 6-link class's bitwise on the
/// occupied links and leave the other 1082 links empty.
#[test]
fn huge_class_hits_the_lru_rows_bit_identically() {
    let (huge, huge_start) = sparse_game(1088, 6, 3000);
    let (small, small_start) = sparse_game(6, 6, 3000);
    let untabled = run_player_level(&huge, &huge_start, 5, "mu-lru/huge");
    let tabled = run_player_level(&small, &small_start, 5, "mu-lru/huge");
    assert_eq!(untabled.len(), tabled.len());
    for (round, (wide, narrow)) in untabled.iter().zip(&tabled).enumerate() {
        assert_eq!(&wide[..6], &narrow[..], "round {round}: occupied links differ");
        assert!(
            wide[6..].iter().all(|&c| c == 0),
            "round {round}: imitation reached an empty link"
        );
        assert_eq!(wide.iter().sum::<u64>(), 3000);
    }
    assert_ne!(
        untabled.last().unwrap()[..],
        huge_start.counts()[..],
        "the dynamics must move players"
    );
}
