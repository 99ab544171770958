//! Property-based tests of the reducer wire encoding: for every stock
//! reducer, `encode → decode` is the bit-level identity and
//! `encode → decode → merge` equals the in-memory merge bitwise — the
//! property `congames merge` relies on to reproduce single-process
//! `run_reduced` output exactly. A structural fuzz of the shard files the
//! CLI writes, and deterministic rejection tests (truncated frame, flipped
//! byte, wrong version, wrong seed), ride along.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use congames::dynamics::wire::{
    decode_shard_file, decode_shard_header, encode_shard_file, fnv1a64, validate_shard_sequence,
    ShardHeader, WireCursor, WireError, WireReduce, MAGIC, WIRE_VERSION,
};
use congames::dynamics::{
    ConvergenceHistogram, Ensemble, FinalSummary, ImitationProtocol, MapItem, MinMax,
    PerRoundStats, QuantileSketch, RecordConfig, RecordSeries, Reducer, RoundRecord, RunSummary,
    ScalarStats, StopSpec, Welford, STOP_REASONS,
};
use congames::sampling::RngMode;
use congames_testutil::games;
use proptest::prelude::*;

fn samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6f64..1.0e6, 1..200)
}

/// A reducer fed `xs`, starting from `prototype.identity()`.
fn fed<R: Reducer>(prototype: &R, xs: impl IntoIterator<Item = R::Item>) -> R {
    let mut r = prototype.identity();
    for x in xs {
        r.absorb(x);
    }
    r
}

/// One encode→decode round trip against `prototype`.
fn round_trip<R: WireReduce>(prototype: &R, value: &R) -> R {
    let mut buf = Vec::new();
    value.encode_partial(&mut buf);
    let mut cur = WireCursor::new(&buf);
    let decoded = prototype.decode_partial(&mut cur).expect("round trip decodes");
    assert_eq!(cur.remaining(), 0, "decode must consume the whole frame");
    decoded
}

/// The tentpole property for one reducer: the round trip is the identity,
/// and merging round-tripped partials is bitwise equal to merging the
/// in-memory originals.
fn assert_wire_faithful<R: WireReduce + PartialEq + std::fmt::Debug + Clone>(
    prototype: &R,
    a: R,
    b: R,
) {
    assert_eq!(round_trip(prototype, &a), a);
    assert_eq!(round_trip(prototype, &b), b);
    let mut in_memory = a.clone();
    in_memory.merge(b.clone());
    let mut over_wire = round_trip(prototype, &a);
    over_wire.merge(round_trip(prototype, &b));
    assert_eq!(over_wire, in_memory, "wire trip changed the merge result");
}

fn summaries(xs: &[f64]) -> impl Iterator<Item = RunSummary> + '_ {
    xs.iter().enumerate().map(|(i, &x)| RunSummary {
        reason: STOP_REASONS[i % STOP_REASONS.len()],
        rounds: x.abs() as u64,
        potential: x,
    })
}

fn records(xs: &[f64]) -> Vec<RoundRecord> {
    xs.iter()
        .enumerate()
        .map(|(i, &x)| RoundRecord {
            round: i as u64,
            potential: x,
            l_av: x / 2.0,
            l_av_plus: x / 2.0 + 1.0,
            max_latency: x.abs(),
            migrations: (i % 7) as u64,
            support: i % 3 + 1,
            unsatisfied_fraction: if i % 2 == 0 { Some(x.fract()) } else { None },
            shock: i % 5 == 0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn welford_and_minmax_survive_the_wire(xs in samples(), cut in 0.0f64..1.0) {
        let i = (cut * xs.len() as f64) as usize;
        let w = Welford::new();
        assert_wire_faithful(&w, fed(&w, xs[..i].iter().copied()), fed(&w, xs[i..].iter().copied()));
        let m = MinMax::new();
        assert_wire_faithful(&m, fed(&m, xs[..i].iter().copied()), fed(&m, xs[i..].iter().copied()));
    }

    #[test]
    fn quantile_sketch_survives_the_wire_including_non_finite(
        xs in samples(),
        cut in 0.0f64..1.0,
        inject_nan in any::<bool>(),
    ) {
        let i = (cut * xs.len() as f64) as usize;
        let proto = QuantileSketch::default();
        let mut a = fed(&proto, xs[..i].iter().copied());
        if inject_nan {
            a.push(f64::NAN);
            a.push(f64::INFINITY);
        }
        let b = fed(&proto, xs[i..].iter().copied());
        assert_wire_faithful(&proto, a, b);
    }

    #[test]
    fn scalar_stats_and_combinators_survive_the_wire(xs in samples(), cut in 0.0f64..1.0) {
        let i = (cut * xs.len() as f64) as usize;
        let s = ScalarStats::new();
        assert_wire_faithful(&s, fed(&s, xs[..i].iter().copied()), fed(&s, xs[i..].iter().copied()));
        // Tuple of MapItems over RunSummary — the `--reduce quantiles` shape.
        let proto = (
            MapItem::new(|s: RunSummary| s.rounds as f64, ScalarStats::new()),
            MapItem::new(|s: RunSummary| s.potential, ScalarStats::new()),
        );
        assert_wire_faithful(
            &proto,
            fed(&proto, summaries(&xs[..i])),
            fed(&proto, summaries(&xs[i..])),
        );
    }

    #[test]
    fn per_round_stats_survive_the_wire(xs in samples(), cut in 0.0f64..1.0) {
        let i = (cut * xs.len() as f64) as usize;
        let proto = MapItem::new(|r: Vec<RoundRecord>| r, PerRoundStats::new());
        // Each "trial" contributes one record series; uneven lengths
        // exercise the ragged per-index table.
        let a = fed(&proto, [records(&xs[..i])]);
        let b = fed(&proto, [records(&xs[i..]), records(&xs[..i.min(3)])]);
        assert_wire_faithful(&proto, a, b);
    }

    #[test]
    fn convergence_histogram_survives_the_wire(xs in samples(), cut in 0.0f64..1.0) {
        let i = (cut * xs.len() as f64) as usize;
        let proto = ConvergenceHistogram::new();
        assert_wire_faithful(&proto, fed(&proto, summaries(&xs[..i])), fed(&proto, summaries(&xs[i..])));
    }

    /// Any single flipped bit in a shard file must be detected: either the
    /// header no longer parses/validates, or the payload checksum fails —
    /// never a silently different merge input. (Truncation is the
    /// deterministic tests' job below.)
    #[test]
    fn any_flipped_byte_is_rejected(xs in samples(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let w = Welford::new();
        let header = sample_header("welford");
        let blocks = vec![fed(&w, xs.iter().copied())];
        let mut bytes = encode_shard_file(&header, &blocks);
        let pos = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        // The file must not decode to the original content with a valid
        // header: either some decode stage errors, or (if the flip landed
        // in ignorable padding — it can't, every byte is load-bearing) the
        // content differs.
        match decode_shard_file(&w, &bytes) {
            Err(_) => {}
            Ok((h, decoded)) => {
                prop_assert!(
                    h != header || decoded != blocks,
                    "flipped bit {bit} at byte {pos} went undetected"
                );
            }
        }
    }
}

/// The `--reduce mean` reducer at cadence 4: per-round statistics over
/// the on-cadence records.
fn mean_reducer(
) -> MapItem<Vec<RoundRecord>, impl Fn(Vec<RoundRecord>) -> Vec<RoundRecord> + Clone, PerRoundStats>
{
    MapItem::new(
        |records: Vec<RoundRecord>| records.into_iter().filter(|r| r.round % 4 == 0).collect(),
        PerRoundStats::new(),
    )
}

type ScalarOf = MapItem<RunSummary, fn(RunSummary) -> f64, ScalarStats>;

/// The `--reduce quantiles` reducer: convergence rounds and final potential.
fn quantiles_reducer() -> (ScalarOf, ScalarOf) {
    (
        MapItem::new(|s| s.rounds as f64, ScalarStats::new()),
        MapItem::new(|s| s.potential, ScalarStats::new()),
    )
}

/// One valid shard file for each reducer the CLI writes (mean, quantiles,
/// convergence), from one real 80-trial sweep: three block frames each.
fn cli_shard_files() -> &'static [Vec<u8>; 3] {
    static FILES: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    FILES.get_or_init(|| {
        let game = games::affine_singleton(120);
        let start = games::geometric_state(&game);
        let ensemble = || {
            Ensemble::new(&game, ImitationProtocol::paper_default().into(), start.clone())
                .expect("valid ensemble")
                .trials(80)
                .base_seed(7)
                .threads(1)
        };
        let stop = StopSpec::max_rounds(12);
        let header = |reducer_id: String, mode: &str| ShardHeader {
            base_seed: 7,
            trials: 80,
            trial_lo: 0,
            trial_hi: 80,
            shard: 0,
            num_shards: 1,
            rng_mode: RngMode::Xoshiro,
            reducer_id,
            config: format!("reduce={mode};rounds=12"),
        };
        let mean = mean_reducer();
        let blocks = ensemble()
            .recording(RecordConfig::every(4))
            .run_reduced_shard(0, 1, &stop, |_| RecordSeries::new(), &mean)
            .expect("mean shard runs");
        let mean = encode_shard_file(&header(mean.wire_id(), "mean"), &blocks);
        let quantiles = quantiles_reducer();
        let blocks = ensemble()
            .run_reduced_shard(0, 1, &stop, |_| FinalSummary, &quantiles)
            .expect("quantiles shard runs");
        let quantiles = encode_shard_file(&header(quantiles.wire_id(), "quantiles"), &blocks);
        let hist = ConvergenceHistogram::new();
        let blocks = ensemble()
            .run_reduced_shard(0, 1, &stop, |_| FinalSummary, &hist)
            .expect("convergence shard runs");
        let convergence = encode_shard_file(&header(hist.wire_id(), "convergence"), &blocks);
        [mean, quantiles, convergence]
    })
}

/// Where the payload of a valid shard file starts: after the fixed header
/// fields, the two strings, the checksum and the payload length.
fn payload_at(file: &[u8]) -> usize {
    let header = decode_shard_header(file).expect("valid header");
    8 + 4 + 8 * 4 + 4 + 4 + 1 + 8 + header.reducer_id.len() + 8 + header.config.len() + 16
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Offsets of the frame-length fields of a valid payload.
fn frame_length_fields(payload: &[u8]) -> Vec<usize> {
    let mut at = 4;
    (0..u32_at(payload, 0))
        .map(|_| {
            let field = at;
            at += 4 + u32_at(payload, at) as usize;
            field
        })
        .collect()
}

/// A forged `u32` field: a small step from `orig` (a frame a few bytes
/// off) or, for odd `value`, any `u32`.
fn forged_u32(orig: u32, value: u64) -> u32 {
    if value & 1 == 0 {
        orig.wrapping_add((value >> 1) as u32 % 17).wrapping_sub(8)
    } else {
        (value >> 1) as u32
    }
}

/// One structural edit of `payload`, at relative position `at`: kind 0
/// overwrites a byte, 1 a frame length, 2 the block count, 3 an 8-byte
/// word (a tally, a table length or an `f64`); anything else deletes or
/// inserts up to 16 bytes. `frames` are the frame-length fields of the
/// unedited payload.
fn mutate(payload: &mut Vec<u8>, frames: &[usize], (kind, at, value): (u8, f64, u64)) {
    let pick = |len: usize| ((at * len as f64) as usize).min(len.saturating_sub(1));
    let put_u32 = |payload: &mut Vec<u8>, field: usize| {
        if let Some(slot) = payload.get_mut(field..field + 4) {
            let orig = u32::from_le_bytes((&*slot).try_into().expect("4 bytes"));
            slot.copy_from_slice(&forged_u32(orig, value).to_le_bytes());
        }
    };
    match kind {
        0 if !payload.is_empty() => {
            let i = pick(payload.len());
            payload[i] = value as u8;
        }
        1 if !frames.is_empty() => put_u32(payload, frames[pick(frames.len())]),
        2 => put_u32(payload, 0),
        3 if payload.len() >= 8 => {
            let i = pick(payload.len() - 7);
            let word = if value & 1 == 0 { (value >> 1) % 1024 } else { value };
            payload[i..i + 8].copy_from_slice(&word.to_le_bytes());
        }
        _ => {
            let (i, n) = (pick(payload.len() + 1), (value % 16 + 1) as usize);
            if value & 16 == 0 {
                payload.drain(i..(i + n).min(payload.len()));
            } else {
                let bytes = value.to_le_bytes();
                payload.splice(i..i, bytes.iter().cycle().take(n).copied());
            }
        }
    }
}

/// `file` with its payload replaced by `payload`, checksum and length
/// re-sealed, as a forger would write it: only the structural decoder
/// stands between it and the merger.
fn reseal(file: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = file[..payload_at(file) - 16].to_vec();
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Apply `edits` to `file`'s payload, re-seal it, and require
/// [`decode_shard_file`] to return a result or a structural error —
/// never a panic, and never a checksum error (the re-seal must hold).
fn forged_file_decodes_or_errs<R: WireReduce>(
    prototype: &R,
    file: &[u8],
    edits: &[(u8, f64, u64)],
) -> Result<(), TestCaseError> {
    let at = payload_at(file);
    let frames = frame_length_fields(&file[at..]);
    let mut payload = file[at..].to_vec();
    for &edit in edits {
        mutate(&mut payload, &frames, edit);
    }
    let forged = reseal(file, &payload);
    match catch_unwind(AssertUnwindSafe(|| decode_shard_file(prototype, &forged).map(|_| ()))) {
        Err(_) => Err(TestCaseError::Fail(format!("decode_shard_file panicked on {edits:?}"))),
        Ok(Err(err @ WireError::ChecksumMismatch { .. })) => {
            Err(TestCaseError::Fail(format!("re-sealed payload failed the checksum: {err}")))
        }
        Ok(_) => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Structural fuzz of the shard decoder: forged payload bytes, frame
    /// lengths, block counts and words behind a valid checksum decode to
    /// a result or a `WireError`, for every reducer the CLI writes.
    #[test]
    fn forged_cli_shard_files_decode_or_err(
        which in 0usize..3,
        edits in proptest::collection::vec((0u8..5, 0.0f64..1.0, any::<u64>()), 1..5),
    ) {
        let [mean, quantiles, convergence] = cli_shard_files();
        match which {
            0 => forged_file_decodes_or_errs(&mean_reducer(), mean, &edits)?,
            1 => forged_file_decodes_or_errs(&quantiles_reducer(), quantiles, &edits)?,
            _ => forged_file_decodes_or_errs(&ConvergenceHistogram::new(), convergence, &edits)?,
        }
    }
}

#[test]
fn cli_shard_files_decode_unedited() {
    let [mean, quantiles, convergence] = cli_shard_files();
    for (file, blocks) in [
        (mean, decode_shard_file(&mean_reducer(), mean).map(|(_, b)| b.len())),
        (quantiles, decode_shard_file(&quantiles_reducer(), quantiles).map(|(_, b)| b.len())),
        (
            convergence,
            decode_shard_file(&ConvergenceHistogram::new(), convergence).map(|(_, b)| b.len()),
        ),
    ] {
        assert_eq!(blocks, Ok(3), "an 80-trial sweep is three block frames");
        let at = payload_at(file);
        assert_eq!(
            reseal(file, &file[at..]),
            *file,
            "re-sealing an unedited payload is the identity"
        );
    }
}

fn sample_header(reducer_id: &str) -> ShardHeader {
    ShardHeader {
        base_seed: 42,
        trials: 96,
        trial_lo: 0,
        trial_hi: 32,
        shard: 0,
        num_shards: 3,
        rng_mode: RngMode::Xoshiro,
        reducer_id: reducer_id.into(),
        config: "links=1,2;players=10;reduce=quantiles".into(),
    }
}

fn sample_file() -> Vec<u8> {
    let mut w = Welford::new();
    for x in [1.0, 2.5, -3.0] {
        w.push(x);
    }
    encode_shard_file(&sample_header("welford"), &[w])
}

#[test]
fn truncated_frames_are_rejected_at_every_length() {
    // Every proper prefix must fail with a *precise* error — never panic,
    // never decode successfully.
    let bytes = sample_file();
    for len in 0..bytes.len() {
        let err = decode_shard_file(&Welford::new(), &bytes[..len])
            .expect_err("a proper prefix must never decode");
        assert!(
            matches!(err, WireError::Truncated { .. } | WireError::BadMagic),
            "prefix of {len} bytes gave unexpected error {err:?}"
        );
    }
}

#[test]
fn wrong_version_is_rejected() {
    let mut bytes = sample_file();
    let version_at = MAGIC.len();
    bytes[version_at] = (WIRE_VERSION + 1) as u8;
    let err = decode_shard_header(&bytes).unwrap_err();
    assert_eq!(err, WireError::UnsupportedVersion { found: WIRE_VERSION + 1 });
}

#[test]
fn wrong_seed_shards_do_not_merge() {
    let headers: Vec<ShardHeader> = (0..3u32)
        .map(|s| ShardHeader {
            shard: s,
            trial_lo: u64::from(s) * 32,
            trial_hi: u64::from(s + 1) * 32,
            ..sample_header("welford")
        })
        .collect();
    assert_eq!(validate_shard_sequence(&headers), Ok(()));
    let mut wrong = headers;
    wrong[2].base_seed = 1234;
    assert_eq!(
        validate_shard_sequence(&wrong),
        Err(WireError::SeedMismatch { expected: 42, found: 1234 })
    );
}

#[test]
fn flipped_payload_byte_fails_the_checksum() {
    let mut bytes = sample_file();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    assert!(matches!(
        decode_shard_file(&Welford::new(), &bytes),
        Err(WireError::ChecksumMismatch { .. })
    ));
}
