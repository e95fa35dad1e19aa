//! Host wall-clock harnesses. Their `BENCH_*.json` files are records for
//! cross-change tracking and the throughput and overhead gates, never
//! byte-gated goldens; every simulated quantity they touch is still
//! asserted identical across the modes they compare.

use std::time::Instant;

use nesc_hypervisor::prelude::*;
use serde_json::json;

use super::Out;
use crate::hotpath::{measure_pair, HotpathConfig};
use crate::{drive_mixed, fmt, mixed_vfs, outln, MIXED_VFS};

/// Hot-path wall clock: host nanoseconds per simulated block for the
/// device data path across the extent-run batching matrix — sequential vs
/// random streams, 4 KiB vs 64 KiB requests, BTLB sizes {0, 8, 32} — each
/// both per-block (`max_run_blocks = 1`, the historical loop) and batched
/// (unbounded runs). Every pair is also cross-checked for identical
/// simulated results ([`measure_pair`] panics on divergence), so this
/// entry doubles as the timing-neutrality gate.
pub fn bench_hotpath(out: &mut Out) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut seq64_speedup_at_8 = 0.0;
    for btlb in [0usize, 8, 32] {
        for (stream, sequential) in [("seq", true), ("rand", false)] {
            for (label, blocks, requests) in [("4k", 4u64, 4000u64), ("64k", 64, 1500)] {
                let (per_block, batched) = measure_pair(HotpathConfig {
                    btlb_entries: btlb,
                    max_run_blocks: 1,
                    req_blocks: blocks,
                    sequential,
                    requests,
                });
                let speedup = per_block.wall_ns_per_block / batched.wall_ns_per_block;
                if btlb == 8 && sequential && blocks == 64 {
                    seq64_speedup_at_8 = speedup;
                }
                rows.push(vec![
                    btlb.to_string(),
                    stream.to_string(),
                    label.to_string(),
                    fmt(per_block.wall_ns_per_block),
                    fmt(batched.wall_ns_per_block),
                    format!("{}x", fmt(speedup)),
                ]);
                series.push(json!({
                    "btlb_entries": btlb,
                    "stream": stream,
                    "request": label,
                    "blocks_moved": batched.blocks,
                    "per_block_ns_per_block": per_block.wall_ns_per_block,
                    "batched_ns_per_block": batched.wall_ns_per_block,
                    "speedup": speedup,
                    "simulated_last_ns": batched.simulated_last_ns,
                    "btlb_hits": batched.btlb_hits,
                    "walks": batched.walks,
                }));
            }
        }
    }
    out.table(
        "Hot-path wall clock: ns per simulated block (per-block vs run-batched)",
        &[
            "btlb",
            "stream",
            "req",
            "ns/blk (run=1)",
            "ns/blk (batched)",
            "speedup",
        ],
        &rows,
    );
    outln!(
        out,
        "\nsequential 64K @ 8-entry BTLB speedup: {}x (target >= 3x)",
        fmt(seq64_speedup_at_8)
    );
    out.line(
        "note: btlb=0 series run the identical per-block instruction stream in both\n\
         modes (the device clamps runs to one block when the BTLB holds nothing), so\n\
         their speedup is parity within wall-clock noise (~1%).",
    );
    out.json(
        "BENCH_hotpath",
        &json!({
            "benchmark": "hot-path wall clock, run batching on vs off",
            "unit": "host ns per simulated block",
            "invariant": "simulated completion times, BTLB hit counts, and walk counts are asserted identical between modes",
            "measurement": "interleaved A/B, min of 5 repeats per mode",
            "btlb0_note": "btlb_entries=0 series execute the identical per-block code in both modes (run cap clamps to 1 when the BTLB holds nothing); speedup there is parity within ~1% wall-clock noise",
            "seq_64k_btlb8_speedup": seq64_speedup_at_8,
            "series": series,
        }),
    )
}

/// Telemetry overhead: host-side wall-clock cost of the perfmon sampler.
///
/// Runs one seeded mixed multi-VF workload four ways — telemetry off,
/// sampling at 50 µs, at 10 µs of simulated time, and at 50 µs with the
/// flight recorder — and reports host nanoseconds per simulated request
/// for each. The simulated per-request latencies must be bit-identical
/// across all modes: the sampler observes the run, it must never perturb
/// it.
pub fn telemetry_overhead(out: &mut Out) -> Result<(), String> {
    const REQUESTS: u64 = 1500;
    const REPEATS: usize = 200;
    let window = |us| TelemetryConfig::windowed(SimDuration::from_micros(us)).capacity(4096);
    let modes: [Option<TelemetryConfig>; 4] = [
        None,
        Some(window(50)),
        Some(window(10)),
        Some(window(50).flight(FlightConfig::default())),
    ];
    // Host ns per request and the simulated latencies of one round.
    let round = |tel: Option<TelemetryConfig>| -> (f64, Vec<u64>) {
        let builder = SystemBuilder::new();
        let (mut sys, disks) = mixed_vfs(match tel {
            Some(cfg) => builder.telemetry(cfg),
            None => builder,
        });
        // nesc-lint::allow(D1): this harness measures host wall-clock —
        // wall time is the subject, never an input to simulated state.
        let started = Instant::now();
        let latencies = drive_mixed(&mut sys, &disks, 77, REQUESTS, 10);
        let ns = started.elapsed().as_nanos() as f64 / REQUESTS as f64;
        (ns, latencies)
    };

    out.line("telemetry_overhead: perfmon sampler cost on the request path");
    // The repeat rounds are interleaved across modes so slow machine-load
    // drift hits every mode equally instead of biasing whichever ran last.
    let mut rounds = vec![Vec::with_capacity(REPEATS); modes.len()];
    let mut latencies = vec![Vec::new(); modes.len()];
    for _ in 0..REPEATS {
        for (i, tel) in modes.iter().enumerate() {
            let (ns, lat) = round(tel.clone());
            rounds[i].push(ns);
            latencies[i] = lat;
        }
    }
    if latencies.iter().any(|l| *l != latencies[0]) {
        return Err("telemetry and the flight recorder must not perturb simulated time".into());
    }
    // Best of a mode's rounds: the mean of the lowest tenth. The raw
    // minimum dodges noise but is itself an order statistic with real
    // jitter; averaging the quietest decile of many short rounds keeps the
    // noise-dodging while shrinking that jitter several-fold. Per-round
    // pairing is *not* robust here: one descheduled round swings a paired
    // delta by tens of percent either way, while the quiet deciles of two
    // interleaved modes both converge on an unloaded machine.
    let best = |rounds: &[f64]| {
        let mut sorted = rounds.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = (sorted.len() / 10).max(1);
        sorted[..n].iter().sum::<f64>() / n as f64
    };
    let [off, on50, on10, fl50] = [0, 1, 2, 3].map(|i| best(&rounds[i]));
    let pct = |on: f64, base: f64| 100.0 * (on - base) / base;
    // The recorder's marginal cost over telemetry alone at the same
    // window — the gated number (NESC_GATE_FLIGHT_PCT in check.sh).
    let flight_pct = pct(fl50, on50);
    out.table(
        &format!(
            "host ns per request, {REQUESTS} mixed requests x {MIXED_VFS} VFs (best of {REPEATS})"
        ),
        &["mode", "ns/request", "overhead %"],
        &[
            vec!["telemetry off".into(), fmt(off), "-".into()],
            vec!["50 us interval".into(), fmt(on50), fmt(pct(on50, off))],
            vec!["10 us interval".into(), fmt(on10), fmt(pct(on10, off))],
            vec![
                "50 us + flight recorder".into(),
                fmt(fl50),
                fmt(pct(fl50, off)),
            ],
        ],
    );
    out.line("\nsimulated per-request latencies identical across all modes");
    outln!(
        out,
        "flight recorder marginal cost over 50 us telemetry: {}%",
        fmt(flight_pct)
    );
    out.json(
        "BENCH_telemetry",
        &json!({
            "benchmark": "telemetry overhead, host wall clock",
            "unit": "host ns per simulated request",
            "invariant": "simulated per-request latencies are asserted identical across modes",
            "requests": REQUESTS,
            "off_ns_per_request": off,
            "on_50us_ns_per_request": on50,
            "on_10us_ns_per_request": on10,
            "flight_50us_ns_per_request": fl50,
            "overhead_50us_percent": pct(on50, off),
            "overhead_10us_percent": pct(on10, off),
            "overhead_flight_percent": flight_pct,
            "rounds_off": rounds[0].clone(),
            "rounds_50us": rounds[1].clone(),
            "rounds_10us": rounds[2].clone(),
            "rounds_flight": rounds[3].clone(),
        }),
    )
}
