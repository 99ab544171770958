//! Perf-trend enforcement for CI: diff two `BENCH_throughput.json`
//! artifacts (the report the vendored criterion writes under
//! `BENCH_JSON=…`) and fail when a pinned benchmark regressed beyond the
//! threshold.
//!
//! ```text
//! bench_diff <baseline.json> <current.json> [--threshold 1.5] [--pin <id>]...
//! ```
//!
//! Without `--pin`, the built-in pinned set below is checked: the
//! benchmarks whose throughput the repo's performance story rests on. A
//! pinned case missing from the *current* report fails (a silently
//! renamed or deleted benchmark would otherwise dodge the trend check
//! forever); one missing from the *baseline* is skipped with a note (new
//! benchmarks have no history yet). Exit codes: 0 = within threshold,
//! 1 = regression (or missing pinned case), 2 = usage/parse error.
//!
//! The quick-mode numbers CI produces are noisy (50 ms measurement
//! budgets), which is why the default threshold is the generous 1.5× —
//! this catches step-change regressions (an accidental `O(n)` in the
//! aggregate kernel, a lost memoization), not percent-level drift.

use std::process::ExitCode;

/// Benchmarks that must never regress silently: the aggregate kernel's
/// `n`-independence flagship, the player-level kernel, the near-converged
/// sparse-support cases the per-class support index turns `O(support²)`
/// (both engines), the ensemble runner, the batched latency paths
/// (the big-flow `ΔΦ` walk and the latency-cache rebuild that
/// `Latency::eval_range_into`/`sum_range` accelerate), and the RNG
/// backends — raw word throughput of both generators (including the
/// batched Philox keystream behind the SIMD dispatch) plus a full round
/// under each, so counter-mode overhead can't creep past the kernels —
/// and the scenario hook: a hook-free run vs. an armed-but-idle schedule,
/// so the per-round `next_fire` poll every shocked sweep pays on every
/// non-shock round stays in the noise.
const DEFAULT_PINS: &[&str] = &[
    "round/aggregate/n10000_m64",
    "round/aggregate/n1000000_m8",
    "round/player_level/10000",
    "aggregate/near_converged/S1024_support8",
    "player_level/near_converged/S1024_support8",
    "ensemble/trials16_rounds32/t1",
    "potential/delta_walk/x4096",
    "cache_rebuild/rebuild/m64",
    "cache_rebuild/rebuild/m1024",
    "rng/raw/xoshiro",
    "rng/raw/counter",
    "rng/raw/counter_batched",
    "rng/round/xoshiro",
    "rng/round/counter",
    "scenario/shock_reconverge/none",
    "scenario/shock_reconverge/armed_idle",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!(
                "usage: bench_diff <baseline.json> <current.json> \
                 [--threshold RATIO] [--pin ID]..."
            );
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold = 1.5f64;
    let mut pins: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .ok_or("--threshold needs a value")?
                    .parse()
                    .map_err(|e| format!("bad threshold: {e}"))?;
                if !threshold.is_finite() || threshold <= 1.0 {
                    return Err("--threshold must be > 1.0".into());
                }
            }
            "--pin" => pins.push(it.next().ok_or("--pin needs a benchmark id")?.clone()),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            _ => paths.push(arg),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return Err("expected exactly two report paths".into());
    };
    let read = |path: &str| -> Result<Vec<(String, f64)>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_report(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    let pins: Vec<&str> = if pins.is_empty() {
        DEFAULT_PINS.to_vec()
    } else {
        pins.iter().map(String::as_str).collect()
    };
    let report = diff(&baseline, &current, &pins, threshold);
    print!("{}", report.text);
    Ok(report.ok)
}

/// Parsed outcome of a diff, with the printable report.
struct DiffReport {
    ok: bool,
    text: String,
}

fn lookup(report: &[(String, f64)], id: &str) -> Option<f64> {
    report.iter().find(|(rid, _)| rid == id).map(|(_, ns)| *ns)
}

fn diff(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    pins: &[&str],
    threshold: f64,
) -> DiffReport {
    use std::fmt::Write as _;
    let mut ok = true;
    let mut text = String::new();
    let _ = writeln!(text, "perf trend vs baseline (fail above {threshold:.2}x):");
    for &pin in pins {
        let cur = lookup(current, pin);
        let base = lookup(baseline, pin);
        match (base, cur) {
            (_, None) => {
                ok = false;
                let _ = writeln!(
                    text,
                    "  FAIL {pin}: missing from the current report (renamed or deleted \
                     pinned benchmark?)"
                );
            }
            (None, Some(_)) => {
                let _ = writeln!(text, "  skip {pin}: not in the baseline yet");
            }
            (Some(base), Some(cur)) => {
                // A non-positive baseline (a 0 ns entry from a degenerate
                // run, or hand-edited junk) makes the ratio meaningless —
                // `inf`/NaN would read as a huge regression (or silently
                // pass, for NaN). Skip the pin with a note instead of
                // rendering a nonsense verdict.
                if base <= 0.0 || !base.is_finite() {
                    let _ = writeln!(
                        text,
                        "  skip {pin}: non-positive baseline ({base} ns/iter) — ratio undefined, \
                         re-record the baseline"
                    );
                    continue;
                }
                let ratio = cur / base;
                let verdict = if ratio > threshold {
                    ok = false;
                    "FAIL"
                } else if ratio < 1.0 / threshold {
                    "nice"
                } else {
                    "  ok"
                };
                let _ = writeln!(
                    text,
                    "  {verdict} {pin}: {base:.1} -> {cur:.1} ns/iter ({ratio:.2}x)"
                );
            }
        }
    }
    DiffReport { ok, text }
}

/// Parse the vendored criterion's `BENCH_JSON` report:
/// `{"benchmarks": [{"id": "...", "ns_per_iter": <num>, "iters": <num>}, ...]}`.
///
/// This is a purpose-built reader for that fixed shape (no registry access
/// for a JSON crate, and the writer lives in-tree), not a general JSON
/// parser: it scans `"id"`/`"ns_per_iter"` key-value pairs in order and
/// rejects reports where the two get out of sync.
fn parse_report(text: &str) -> Result<Vec<(String, f64)>, String> {
    if !text.contains("\"benchmarks\"") {
        return Err("not a BENCH_JSON report (missing \"benchmarks\" key)".into());
    }
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(id_at) = rest.find("\"id\"") {
        rest = &rest[id_at + 4..];
        let open = rest.find('"').ok_or_else(|| "unterminated \"id\" entry".to_string())?;
        let (id, after) = read_json_string(&rest[open + 1..])
            .ok_or_else(|| "unterminated \"id\" string".to_string())?;
        rest = after;
        let key_at = rest
            .find("\"ns_per_iter\"")
            .ok_or_else(|| format!("benchmark {id}: missing ns_per_iter"))?;
        // The value must belong to this entry: no new "id" in between.
        if rest[..key_at].contains("\"id\"") {
            return Err(format!("benchmark {id}: missing ns_per_iter"));
        }
        let value_text = rest[key_at + 13..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("benchmark {id}: malformed ns_per_iter"))?
            .trim_start();
        let end = value_text
            .find([',', '}', '\n'])
            .ok_or_else(|| format!("benchmark {id}: malformed ns_per_iter"))?;
        let ns: f64 = value_text[..end]
            .trim()
            .parse()
            .map_err(|e| format!("benchmark {id}: bad ns_per_iter: {e}"))?;
        out.push((id, ns));
        rest = &value_text[end..];
    }
    Ok(out)
}

/// Read a JSON string body starting *after* the opening quote; returns the
/// unescaped content and the remainder after the closing quote. Handles
/// `\"` and `\\` (the only escapes the in-tree writer emits); any other
/// escape passes its character through.
fn read_json_string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => out.push(chars.next()?.1),
            other => out.push(other),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "benchmarks": [
    {"id": "round/aggregate/n10000_m64", "ns_per_iter": 368.4, "iters": 120000},
    {"id": "round/player_level/10000", "ns_per_iter": 43400.0, "iters": 1200},
    {"id": "aggregate/near_converged/S1024_support8", "ns_per_iter": 1425.3, "iters": 35255},
    {"id": "player_level/near_converged/S1024_support8", "ns_per_iter": 21839.2, "iters": 2290},
    {"id": "ensemble/trials16_rounds32/t1", "ns_per_iter": 901000.5, "iters": 60},
    {"id": "potential/delta_walk/x4096", "ns_per_iter": 1800.0, "iters": 25000},
    {"id": "cache_rebuild/rebuild/m64", "ns_per_iter": 950.0, "iters": 50000},
    {"id": "cache_rebuild/rebuild/m1024", "ns_per_iter": 15000.0, "iters": 3000},
    {"id": "rng/raw/xoshiro", "ns_per_iter": 1.2, "iters": 40000000},
    {"id": "rng/raw/counter", "ns_per_iter": 13.5, "iters": 3600000},
    {"id": "rng/raw/counter_batched", "ns_per_iter": 350.0, "iters": 140000},
    {"id": "rng/round/xoshiro", "ns_per_iter": 150.0, "iters": 340000},
    {"id": "rng/round/counter", "ns_per_iter": 152.0, "iters": 340000},
    {"id": "scenario/shock_reconverge/none", "ns_per_iter": 21355.7, "iters": 4700},
    {"id": "scenario/shock_reconverge/armed_idle", "ns_per_iter": 21828.3, "iters": 4600}
  ]
}
"#;

    #[test]
    fn parses_the_report_shape() {
        let parsed = parse_report(SAMPLE).unwrap();
        assert_eq!(parsed.len(), 15);
        assert_eq!(parsed[0].0, "round/aggregate/n10000_m64");
        assert_eq!(parsed[0].1, 368.4);
        assert_eq!(parsed[2].0, "aggregate/near_converged/S1024_support8");
        assert_eq!(parsed[4].1, 901000.5);
        assert_eq!(parse_report("{\n  \"benchmarks\": []\n}\n").unwrap().len(), 0);
        assert!(parse_report("hello").is_err());
    }

    #[test]
    fn parses_escaped_quotes_in_ids() {
        // The in-tree writer escapes quotes/backslashes defensively; the
        // parser must scan past the escape instead of truncating the id.
        let report = "{\"benchmarks\": [\n\
                      {\"id\": \"odd\\\"name\\\\x\", \"ns_per_iter\": 5.0, \"iters\": 1}\n]}";
        let parsed = parse_report(report).unwrap();
        assert_eq!(parsed, vec![("odd\"name\\x".to_string(), 5.0)]);
    }

    fn report(entries: &[(&str, f64)]) -> Vec<(String, f64)> {
        entries.iter().map(|(id, ns)| (id.to_string(), *ns)).collect()
    }

    #[test]
    fn within_threshold_passes() {
        let base = report(&[("a", 100.0), ("b", 50.0)]);
        let cur = report(&[("a", 140.0), ("b", 40.0)]);
        let d = diff(&base, &cur, &["a", "b"], 1.5);
        assert!(d.ok, "{}", d.text);
        assert!(d.text.contains("1.40x"));
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let base = report(&[("a", 100.0)]);
        let cur = report(&[("a", 151.0)]);
        let d = diff(&base, &cur, &["a"], 1.5);
        assert!(!d.ok);
        assert!(d.text.contains("FAIL a"), "{}", d.text);
    }

    #[test]
    fn missing_pinned_case_fails_only_for_current() {
        let base = report(&[("a", 100.0)]);
        let cur = report(&[("a", 100.0), ("new", 5.0)]);
        // Pinned case absent from the current report → fail.
        let d = diff(&base, &cur, &["a", "gone"], 1.5);
        assert!(!d.ok);
        assert!(d.text.contains("FAIL gone"));
        // Pinned case absent from the baseline → skip, still passing.
        let d = diff(&base, &cur, &["a", "new"], 1.5);
        assert!(d.ok, "{}", d.text);
        assert!(d.text.contains("skip new"));
    }

    #[test]
    fn non_positive_baseline_is_skipped_with_a_note() {
        // A 0 ns baseline entry would yield an `inf` ratio and a nonsense
        // FAIL; a negative or NaN one is equally meaningless. All three
        // must skip with a note instead of producing a verdict.
        for bad in [0.0, -3.0, f64::NAN] {
            let base = report(&[("a", bad), ("b", 100.0)]);
            let cur = report(&[("a", 120.0), ("b", 100.0)]);
            let d = diff(&base, &cur, &["a", "b"], 1.5);
            assert!(d.ok, "baseline {bad}: {}", d.text);
            assert!(d.text.contains("skip a"), "baseline {bad}: {}", d.text);
            assert!(d.text.contains("ratio undefined"), "baseline {bad}: {}", d.text);
            assert!(!d.text.contains("inf"), "baseline {bad}: {}", d.text);
            assert!(d.text.contains("  ok b"), "healthy pin must still be judged: {}", d.text);
        }
    }

    #[test]
    fn improvements_are_reported_not_failed() {
        let base = report(&[("a", 300.0)]);
        let cur = report(&[("a", 100.0)]);
        let d = diff(&base, &cur, &["a"], 1.5);
        assert!(d.ok);
        assert!(d.text.contains("nice a"), "{}", d.text);
    }

    #[test]
    fn default_pins_match_the_throughput_bench_ids() {
        // The pinned ids must stay in sync with
        // `crates/bench/benches/round_throughput.rs` (group/function/param
        // labels of the vendored criterion).
        for pin in DEFAULT_PINS {
            assert!(
                pin.starts_with("round/")
                    || pin.starts_with("aggregate/")
                    || pin.starts_with("player_level/")
                    || pin.starts_with("ensemble/")
                    || pin.starts_with("potential/")
                    || pin.starts_with("cache_rebuild/")
                    || pin.starts_with("rng/")
                    || pin.starts_with("scenario/"),
                "unexpected pin group: {pin}"
            );
        }
        let parsed = parse_report(SAMPLE).unwrap();
        for pin in DEFAULT_PINS.iter().filter(|p| !p.starts_with("round/aggregate/n1000000")) {
            assert!(
                parsed.iter().any(|(id, _)| id == pin),
                "pinned id {pin} must parse out of a report that contains it"
            );
        }
    }

    /// The sparse-support ids added with the per-class support index are
    /// accepted by the parser and covered by the default pins, so the
    /// perf-trend gate guards both sparse kernels.
    #[test]
    fn sparse_support_pins_are_parsed_and_pinned() {
        for id in [
            "aggregate/near_converged/S1024_support8",
            "player_level/near_converged/S1024_support8",
        ] {
            assert!(DEFAULT_PINS.contains(&id), "{id} missing from DEFAULT_PINS");
            let report = format!(
                "{{\n  \"benchmarks\": [\n    {{\"id\": \"{id}\", \"ns_per_iter\": 1425.3, \"iters\": 10}}\n  ]\n}}\n"
            );
            let parsed = parse_report(&report).unwrap();
            assert_eq!(parsed, vec![(id.to_string(), 1425.3)]);
            // A report carrying the new id diffs cleanly against itself,
            // and a dense-scan-sized regression of it is caught.
            let d = diff(&parsed, &parsed, &[id], 1.5);
            assert!(d.ok, "{}", d.text);
            let regressed = vec![(id.to_string(), 1425.3 * 10.4)];
            let d = diff(&parsed, &regressed, &[id], 1.5);
            assert!(!d.ok, "a fall back to the dense scan must fail the gate");
        }
    }

    /// The batched-latency bench ids added with the `eval_range_into`
    /// layer are accepted by the parser and covered by the default pins,
    /// so the perf-trend gate guards the paths that layer optimizes.
    #[test]
    fn batched_latency_pins_are_parsed_and_pinned() {
        for id in [
            "potential/delta_walk/x4096",
            "cache_rebuild/rebuild/m64",
            "cache_rebuild/rebuild/m1024",
        ] {
            assert!(DEFAULT_PINS.contains(&id), "{id} missing from DEFAULT_PINS");
            let report = format!(
                "{{\n  \"benchmarks\": [\n    {{\"id\": \"{id}\", \"ns_per_iter\": 12.5, \"iters\": 10}}\n  ]\n}}\n"
            );
            let parsed = parse_report(&report).unwrap();
            assert_eq!(parsed, vec![(id.to_string(), 12.5)]);
            // A report carrying the new id diffs cleanly against itself.
            let d = diff(&parsed, &parsed, &[id], 1.5);
            assert!(d.ok, "{}", d.text);
        }
    }

    /// The RNG-backend bench ids (raw word throughput and one full round
    /// per mode) are accepted by the parser and covered by the default
    /// pins, so a counter-mode overhead regression fails the gate.
    #[test]
    fn rng_backend_pins_are_parsed_and_pinned() {
        for id in [
            "rng/raw/xoshiro",
            "rng/raw/counter",
            "rng/raw/counter_batched",
            "rng/round/xoshiro",
            "rng/round/counter",
        ] {
            assert!(DEFAULT_PINS.contains(&id), "{id} missing from DEFAULT_PINS");
            let report = format!(
                "{{\n  \"benchmarks\": [\n    {{\"id\": \"{id}\", \"ns_per_iter\": 14.0, \"iters\": 10}}\n  ]\n}}\n"
            );
            let parsed = parse_report(&report).unwrap();
            assert_eq!(parsed, vec![(id.to_string(), 14.0)]);
            let d = diff(&parsed, &parsed, &[id], 1.5);
            assert!(d.ok, "{}", d.text);
            // A counter kernel that falls off the block-cache fast path
            // (or a Philox round-count slip) shows up as a step change.
            let regressed = vec![(id.to_string(), 14.0 * 2.0)];
            let d = diff(&parsed, &regressed, &[id], 1.5);
            assert!(!d.ok, "an RNG-backend step regression must fail the gate");
        }
    }
}
