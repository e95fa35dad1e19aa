//! Observability and scale results: the span-derived latency breakdown,
//! the golden span trace, the telemetry dashboard, the forensic dump and
//! the 1000-VF scale-out scenario.

use std::collections::BTreeMap;

use nesc_hypervisor::prelude::*;
use nesc_sim::{perfmon, validate_chrome_trace};
use nesc_workloads::scenario::Scenario;
use nesc_workloads::TenantClass;
use serde_json::{json, Value};

use super::Out;
use crate::forensic::window_trace;
use crate::{
    all_paths, drive_mixed, fmt, mixed_vfs, outln, paper_block_sizes, prune_pressure, MIXED_VFS,
};

/// Mean per-phase breakdown of one batch of traced requests.
struct Breakdown {
    /// `layer:name` -> mean ns across the batch's requests.
    phases: Vec<(String, f64)>,
    /// Mean end-to-end latency (root span duration), ns.
    total_ns: f64,
    /// Requests in the batch.
    requests: usize,
}

/// Span-derived latency breakdown — the Fig. 9 story, reattributed.
///
/// Where `fig9_latency` reports *how long* each path takes, this entry
/// reports *where the time goes*, reconstructed **from spans alone**: it
/// runs every path with tracing enabled, collects each request's root
/// span, verifies that the root's direct children exactly partition the
/// end-to-end interval (no unattributed time, no overlap), and prints the
/// per-phase means. It then re-derives the paper's headline ordering
/// (emulation > virtio > NeSC ≈ host) from the span durations and exports
/// one representative request mix as a Chrome/Perfetto trace.
pub fn latency_breakdown(out: &mut Out) -> Result<(), String> {
    const IMAGE_BYTES: u64 = 64 << 20;
    const SAMPLES: u64 = 16;
    // One traced system per path, pre-warmed so steady-state requests are
    // measured (allocation/miss handling happens during warm-up).
    let traced_system = |kind| {
        let mut sys = SystemBuilder::new().with_trampoline().tracing(true).build();
        let disk = sys.quick_disk(kind, "bd.img", IMAGE_BYTES).disk;
        sys.write(disk, 0, &[0x5Au8; 256 * 1024]);
        // Warm-up spans are not part of the measurement.
        let _ = sys.take_spans();
        (sys, disk)
    };
    // SAMPLES traced writes of `bs` bytes, reduced to their breakdown.
    let measure = |kind, bs: u64| -> Result<Breakdown, String> {
        let (mut sys, disk) = traced_system(kind);
        let payload = vec![0xC3u8; bs as usize];
        for i in 0..SAMPLES {
            sys.write(disk, (i * bs) % (128 * 1024), &payload);
        }
        let tree = SpanTree::new(sys.take_spans());
        tree.check_nesting()?;
        let roots: Vec<&Span> = tree.roots().filter(|s| s.name() == "request").collect();
        if roots.is_empty() {
            return Err("traced batch produced no request roots".into());
        }
        let mut sums: Vec<(String, u64)> = Vec::new();
        let mut total = 0u64;
        for root in &roots {
            // The root's children partition its end-to-end interval.
            tree.check_partition(root.id)?;
            for (kind, ns) in tree.child_breakdown(root.id) {
                let key = kind.as_str().to_string();
                match sums.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, t)) => *t += ns,
                    None => sums.push((key, ns)),
                }
            }
            total += root.duration_ns();
        }
        let n = roots.len() as f64;
        Ok(Breakdown {
            phases: sums.into_iter().map(|(k, ns)| (k, ns as f64 / n)).collect(),
            total_ns: total as f64 / n,
            requests: roots.len(),
        })
    };

    out.line("Span-derived latency breakdown (Fig. 9 reattributed)");

    // --- Per-path phase tables at 4 KiB writes. ---
    let mut json_paths: Vec<(String, Value)> = Vec::new();
    let mut e2e_512: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (kind, label) in all_paths() {
        let bd = measure(kind, 4096)?;
        let total_ns = bd.total_ns;
        let rows: Vec<Vec<String>> = bd
            .phases
            .iter()
            .map(|(k, ns)| vec![k.clone(), fmt(*ns / 1000.0), fmt(100.0 * ns / total_ns)])
            .collect();
        out.table(
            &format!("{label} — 4 KiB write, {} requests", bd.requests),
            &["phase", "us", "%"],
            &rows,
        );
        outln!(
            out,
            "  end-to-end: {} us (children sum exactly)",
            fmt(total_ns / 1000.0)
        );
        let phases = bd
            .phases
            .into_iter()
            .map(|(k, ns)| (k, Value::from(ns)))
            .collect();
        json_paths.push((
            label.to_string(),
            json!({ "total_ns": total_ns, "phases": Value::Object(phases) }),
        ));
        e2e_512.insert(label, measure(kind, 512)?.total_ns);
    }

    // --- The Fig. 9 ordering, re-derived from spans alone. ---
    let [nesc, virtio, emu, host] = ["NeSC", "virtio", "Emulation", "Host"].map(|l| e2e_512[l]);
    out.line("\nheadline (512B writes, from spans):");
    outln!(
        out,
        "  NeSC vs host     : {:.2}x  (paper: ~1x)",
        nesc / host
    );
    outln!(
        out,
        "  virtio vs NeSC   : {:.1}x  (paper: >6x)",
        virtio / nesc
    );
    outln!(
        out,
        "  emulation vs NeSC: {:.1}x  (paper: >20x)",
        emu / nesc
    );
    if !(emu > virtio && virtio > nesc) {
        return Err("span-derived ordering must match Fig. 9: emulation > virtio > NeSC".into());
    }

    // --- Sweep: end-to-end means per block size, per path. ---
    let mut sweep_rows = Vec::new();
    let mut sweep_json: Vec<(String, Value)> = Vec::new();
    for bs in paper_block_sizes() {
        let mut row = vec![format!("{:.1}", bs as f64 / 1024.0)];
        let mut cols: Vec<(String, Value)> = Vec::new();
        for (kind, label) in all_paths() {
            let total_ns = measure(kind, bs)?.total_ns;
            row.push(fmt(total_ns / 1000.0));
            cols.push((label.to_string(), Value::from(total_ns)));
        }
        sweep_rows.push(row);
        sweep_json.push((bs.to_string(), Value::Object(cols)));
    }
    let mut headers = vec!["KB"];
    headers.extend(all_paths().iter().map(|&(_, l)| l));
    out.table("Write latency from spans [us]", &headers, &sweep_rows);

    // --- Perfetto export: one request per path, in one trace. ---
    let mut all_spans = Vec::new();
    for (kind, _) in all_paths() {
        let (mut sys, disk) = traced_system(kind);
        sys.write(disk, 0, &[0x11u8; 4096]);
        let mut buf = [0u8; 4096];
        sys.read(disk, 0, &mut buf);
        all_spans.extend(sys.take_spans());
    }
    let doc = chrome_trace_json(&all_spans);
    let events = validate_chrome_trace(&doc)?;
    outln!(
        out,
        "\nPerfetto trace: {events} events from {} spans",
        all_spans.len()
    );
    out.json("latency_breakdown_trace", &doc)?;
    out.json(
        "latency_breakdown",
        &json!({
            "samples_per_point": SAMPLES,
            "breakdown_4k_write": Value::Object(json_paths),
            "sweep_write_ns": Value::Object(sweep_json),
        }),
    )
}

/// Golden trace: the full span tree of one small, fixed workload.
///
/// The simulator is a deterministic discrete-event model, so the same
/// workload must always produce the *identical* span forest — same ids,
/// same parents, same timestamps, same attributes. This entry runs a
/// fixed three-request workload (a NeSC-direct write + read and a virtio
/// write) with tracing on and serializes every span; any timing or
/// instrumentation change that alters the trace must update the golden
/// deliberately.
pub fn golden_trace(out: &mut Out) -> Result<(), String> {
    let mut sys = SystemBuilder::new()
        .capacity_blocks(64 * 1024)
        .tracing(true)
        .build();
    let direct = sys
        .quick_disk(DiskKind::NescDirect, "golden_d.img", 4 << 20)
        .disk;
    let virtio = sys
        .quick_disk(DiskKind::Virtio, "golden_v.img", 4 << 20)
        .disk;
    sys.write(direct, 0, &[0xAAu8; 8192]);
    let mut buf = [0u8; 4096];
    sys.read(direct, 4096, &mut buf);
    sys.write(virtio, 0, &[0xBBu8; 4096]);

    let tree = SpanTree::new(sys.take_spans());
    tree.check_nesting()?;
    let mut requests = 0;
    for root in tree.roots().filter(|s| s.name() == "request") {
        tree.check_partition(root.id)?;
        requests += 1;
    }
    outln!(
        out,
        "golden trace: {} spans, {} request roots",
        tree.spans().len(),
        requests
    );
    let spans: Vec<Value> = tree
        .spans()
        .iter()
        .map(|s| {
            let attrs = s
                .attrs
                .iter()
                .map(|(k, v)| (k.as_str().to_string(), Value::from(v)))
                .collect();
            json!({
                "id": s.id.0,
                "parent": s.parent.0,
                "layer": s.layer(),
                "name": s.name(),
                "start_ns": s.start.as_nanos(),
                "end_ns": s.end.as_nanos(),
                "attrs": Value::Object(attrs),
            })
        })
        .collect();
    out.json(
        "golden_trace",
        &json!({
            "workload": "direct write 8KiB + direct read 4KiB + virtio write 4KiB",
            "requests": requests,
            "spans": spans,
        }),
    )
}

/// The prune-pressure watchdog rules: the miss-interrupt storm, and
/// rewalk tail latency while it lasts.
fn prune_watch() -> TelemetryConfig {
    TelemetryConfig::windowed(SimDuration::from_micros(100))
        .capacity(4096)
        .rule_text("core.miss_interrupts above 0 for 3")
        .rule_text("hv.rewalk_p99_ns above 0 for 3 while core.miss_interrupts above 0")
}

/// Renders `values` as one bar character per window (most recent 64).
fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = &values[values.len().saturating_sub(64)..];
    let max = tail.iter().copied().max().unwrap_or(0);
    tail.iter()
        .map(|&v| {
            if max == 0 {
                BARS[0]
            } else {
                BARS[(v as usize * 7) / max as usize]
            }
        })
        .collect()
}

fn series_values(sampler: &nesc_sim::Sampler, name: &str) -> Vec<u64> {
    sampler
        .series_by_name(name)
        .map(|s| s.samples().map(|(_, v)| v).collect())
        .unwrap_or_default()
}

fn anomalies_json(events: &[AnomalyEvent]) -> Value {
    Value::Array(
        events
            .iter()
            .map(|a| {
                json!({
                    "rule": a.rule.clone(),
                    "rule_index": a.rule_index,
                    "text": a.text.clone(),
                    "series": a.series.clone(),
                    "window": a.window,
                    "at_ns": a.at.as_nanos(),
                    "value": a.value,
                    "consecutive": a.consecutive,
                })
            })
            .collect(),
    )
}

fn write_anomalies(out: &mut Out, title: &str, events: &[AnomalyEvent]) {
    outln!(out, "\n--- {title}: anomalies ---");
    if events.is_empty() {
        out.line("  (none)");
        return;
    }
    for a in events.iter().take(5) {
        outln!(
            out,
            "  window {:>4} @ {:>8} us  {} = {}  [rule {}: {}]",
            a.window,
            a.at.as_nanos() / 1_000,
            a.series,
            a.value,
            a.rule_index,
            a.text
        );
    }
}

/// nesc-report — the telemetry dashboard and its machine-readable golden.
///
/// Runs two deterministic scenarios through the perfmon sampler:
///
/// 1. **mixed** — three NeSC VFs under a seeded mixed read/write workload;
///    renders a per-VF dashboard (sparkline request rates, latency
///    percentiles, a per-window table) and records the full time series
///    as `telemetry_mixed.json`, with the raw CSV and the span trace
///    merged with the sampler's counter tracks (`telemetry_trace.json`)
///    beside it.
/// 2. **prune-pressure** — the tree-pruning ablation configuration with an
///    SLO watchdog attached; sustained miss-interrupt traffic must trip at
///    least one deterministic anomaly, shown in the dashboard and recorded
///    in the golden.
pub fn nesc_report(out: &mut Out) -> Result<(), String> {
    const INTERVAL_US: u64 = 50;
    const REQUESTS: u64 = 240;
    out.line("nesc-report: deterministic telemetry dashboard");

    // ------------------------------------------------------- mixed run
    let cfg = TelemetryConfig::windowed(SimDuration::from_micros(INTERVAL_US))
        .capacity(4096)
        // A latency SLO that healthy traffic must not trip.
        .rule_text("hv.vf0.p99_ns above 2000000 for 3");
    let (mut sys, disks) = mixed_vfs(SystemBuilder::new().tracing(true).telemetry(cfg));
    drive_mixed(&mut sys, &disks, 2016, REQUESTS, 20);
    // Idle past the open window so the tail is committed, then drop the
    // partial window.
    sys.think(SimDuration::from_micros(2 * INTERVAL_US));
    sys.telemetry_finish();

    let spans = sys.take_spans();
    let tel = sys.telemetry().ok_or("telemetry is enabled")?;
    let sampler = tel.sampler();
    let windows = sampler.closed_windows();
    outln!(
        out,
        "\nmixed workload: {MIXED_VFS} VFs, {REQUESTS} requests, {windows} windows of {INTERVAL_US} us"
    );

    // Per-VF summary with request-rate sparklines.
    let rows: Vec<Vec<String>> = (0..MIXED_VFS)
        .map(|i| {
            let reqs = series_values(sampler, &format!("hv.vf{i}.requests"));
            let bytes: u64 = series_values(sampler, &format!("hv.vf{i}.bytes"))
                .iter()
                .sum();
            let p99 = series_values(sampler, &format!("hv.vf{i}.p99_ns"))
                .into_iter()
                .max()
                .unwrap_or(0);
            vec![
                format!("vf{i}"),
                reqs.iter().sum::<u64>().to_string(),
                (bytes >> 10).to_string(),
                (p99 / 1_000).to_string(),
                sparkline(&reqs),
            ]
        })
        .collect();
    out.table(
        "Per-VF accounting (whole run)",
        &["vf", "requests", "KiB", "max p99 us", "requests/window"],
        &rows,
    );

    // Per-window tail: the last 12 windows in detail.
    let rows: Vec<Vec<String>> = (windows.saturating_sub(12)..windows)
        .map(|w| {
            let mut row = vec![
                w.to_string(),
                (sampler.window_end(w).as_nanos() / 1_000).to_string(),
            ];
            for i in 0..MIXED_VFS {
                let v = |suffix: &str| {
                    sampler
                        .series_by_name(&format!("hv.vf{i}.{suffix}"))
                        .and_then(|s| s.value_at(w))
                        .unwrap_or(0)
                };
                row.push(v("requests").to_string());
                row.push((v("p99_ns") / 1_000).to_string());
            }
            row
        })
        .collect();
    out.table(
        "Last 12 windows",
        &[
            "window", "end us", "vf0 req", "vf0 p99", "vf1 req", "vf1 p99", "vf2 req", "vf2 p99",
        ],
        &rows,
    );

    // Device-utilization sparklines.
    out.line("\n--- utilization (ppm per window) ---");
    for name in [
        "core.btlb_hit_ppm",
        "core.walk_busy_ppm",
        "storage.media_util_ppm",
        "pcie.link_up_util_ppm",
        "pcie.link_down_util_ppm",
    ] {
        outln!(
            out,
            "  {name:<26} {}",
            sparkline(&series_values(sampler, name))
        );
    }
    write_anomalies(out, "mixed", tel.anomalies());

    let mixed_series = perfmon::series_json(sampler);
    let mixed_digest = format!("{:016x}", perfmon::digest_hash(sampler));
    let mixed_anomalies = anomalies_json(tel.anomalies());
    out.file("telemetry_mixed.csv", perfmon::series_csv(sampler));
    let mut trace = chrome_trace_json(&spans);
    perfmon::merge_counter_tracks(&mut trace, &mixed_series);
    out.json("telemetry_trace", &trace)?;

    // --------------------------------------------- prune-pressure run
    let (sys, _) = prune_pressure(SystemBuilder::new().telemetry(prune_watch()), 4);
    let tel = sys.telemetry().ok_or("telemetry is enabled")?;
    let miss_interrupts = sys.device().stats().miss_interrupts;
    outln!(
        out,
        "\nprune-pressure ablation: {miss_interrupts} miss interrupts, rewalk storm under watch"
    );
    for name in ["core.miss_interrupts", "hv.rewalk_p99_ns"] {
        outln!(
            out,
            "  {name:<26} {}",
            sparkline(&series_values(tel.sampler(), name))
        );
    }
    write_anomalies(out, "prune-pressure", tel.anomalies());
    if tel.anomalies().is_empty() {
        return Err("prune pressure must trip the watchdog deterministically".into());
    }
    out.json(
        "telemetry_mixed",
        &json!({
            "series": mixed_series,
            "anomalies": mixed_anomalies,
            "digest": mixed_digest,
            "prune_pressure": json!({
                "miss_interrupts": miss_interrupts,
                "rewalks": series_values(tel.sampler(), "hv.rewalks").iter().sum::<u64>(),
                "anomalies": anomalies_json(tel.anomalies()),
            }),
        }),
    )
}

/// Forensics — anomaly-triggered flight-recorder dump.
///
/// Re-runs the pruning-pressure storm (the configuration whose
/// miss-interrupt traffic trips the SLO watchdog) with span tracing and
/// the flight recorder enabled. When the watchdog first fires, the
/// telemetry layer snapshots the flight ring (the last span rows), the
/// worst-K exemplar span trees, and the active window series into a
/// forensic dump.
///
/// The scenario runs **twice** with the same seed and the two serialized
/// dumps must be byte-identical — the recorder is part of the
/// deterministic surface. The worst request's span phases must tile it
/// and sum to the latency the tally timed; the checks query the typed
/// snapshot, which is rendered only for the byte comparison and the
/// file. Writes the dump (`forensic_dump.json`) and its re-export as a
/// Perfetto trace
/// (`forensic_window_trace.json`): exemplar span swimlanes merged with
/// one counter track per telemetry series.
pub fn forensics(out: &mut Out) -> Result<(), String> {
    let run = || -> Result<(ForensicSnapshot, String), String> {
        let builder = SystemBuilder::new()
            .tracing(true)
            .telemetry(prune_watch())
            .flight(FlightConfig::default().capacity(16384));
        let (sys, _) = prune_pressure(builder, 4);
        let tel = sys.telemetry().ok_or("telemetry is enabled")?;
        let dump = tel
            .forensic_dump()
            .ok_or("the prune storm must trip the watchdog")?;
        let text = serde_json::to_string_pretty(&dump.to_json()).map_err(|e| e.to_string())?;
        Ok((dump.clone(), text))
    };

    out.line("Forensics: anomaly-triggered flight-recorder dump");
    out.line("(prune-pressure trigger, tracing + flight recorder on, same-seed double run)");
    let (dump, first) = run()?;
    if first != run()?.1 {
        return Err("same-seed forensic dumps must be byte-identical".into());
    }
    outln!(
        out,
        "\n  double-run check: {} bytes, byte-identical",
        first.len()
    );

    let (anomaly, flight) = (&dump.anomaly, &dump.flight);
    outln!(
        out,
        "  anomaly: {} (series {}, window {})",
        anomaly.text,
        anomaly.series,
        anomaly.window
    );
    outln!(
        out,
        "  flight ring: {} span rows retained ({} written, {} dropped), {} exemplars",
        flight.rows.len(),
        flight.total,
        flight.dropped,
        flight.exemplars.len()
    );

    let worst = flight.worst_exemplar().ok_or("dump has no exemplars")?;
    let rows: Vec<Vec<String>> = flight
        .checked_breakdown(worst)?
        .into_iter()
        .map(|(name, ns)| {
            let share = 100.0 * ns as f64 / worst.latency_ns.max(1) as f64;
            vec![
                name.to_string(),
                fmt(ns as f64 / 1000.0),
                format!("{share:.1}"),
            ]
        })
        .collect();
    out.table(
        &format!(
            "Worst request: seq {} on disk {} ({} us end-to-end)",
            worst.seq,
            worst.disk,
            fmt(worst.latency_ns as f64 / 1000.0)
        ),
        &["phase", "us", "% of total"],
        &rows,
    );
    out.line("\n  the span phases tile the request and sum to its tallied latency.");

    let trace = window_trace(flight, &dump.series);
    validate_chrome_trace(&trace)?;
    out.file("forensic_dump.json", first);
    out.json("forensic_window_trace", &trace)
}

/// Scale-out study — datacenter tenancy on one self-virtualizing
/// controller.
///
/// The paper's prototype runs a handful of VFs; this entry asks what the
/// architecture does at datacenter tenant counts: 1000 VFs (850 steady +
/// 100 bursty + 50 noisy neighbors) declared as a `ScenarioSpec` and
/// replayed as one deterministic open-loop tape. Records per-tenant p99
/// latency plus the fleet fairness curves (Jain index, Lorenz latency
/// share) as `scale_mixed.json`.
pub fn scale_out(out: &mut Out) -> Result<(), String> {
    let scenario = Scenario::datacenter_mix();
    let vfs = scenario.spec().total_tenants();
    outln!(out, "Scale-out: {vfs} tenant VFs on one NeSC controller");
    let rep = scenario
        .run()
        .map_err(|e| format!("invalid scenario: {e}"))?;

    let mut rows = Vec::new();
    for class in [
        TenantClass::Steady,
        TenantClass::Bursty,
        TenantClass::NoisyNeighbor,
    ] {
        let outcomes: Vec<_> = rep.tenants.iter().filter(|t| t.class == class).collect();
        if outcomes.is_empty() {
            continue;
        }
        let reqs: u64 = outcomes.iter().map(|t| t.requests).sum();
        let mean_p99 = outcomes.iter().map(|t| t.p99_ns).sum::<u64>() / outcomes.len() as u64;
        rows.push(vec![
            class.label().to_string(),
            outcomes.len().to_string(),
            reqs.to_string(),
            format!("{:.1}", mean_p99 as f64 / 1e3),
            format!("{:.1}", rep.class_worst_p99_ns(class) as f64 / 1e3),
        ]);
    }
    out.table(
        "Per-class latency",
        &[
            "class",
            "tenants",
            "requests",
            "mean p99 (us)",
            "worst p99 (us)",
        ],
        &rows,
    );
    outln!(
        out,
        "fleet: {} requests, makespan {:.2} ms sim, Jain {} permille, {} SLO violations",
        rep.total_requests,
        rep.makespan.as_nanos() as f64 / 1e6,
        rep.jain_permille,
        rep.slo_violations,
    );
    outln!(
        out,
        "lorenz latency-share curve (permille): {:?}",
        rep.lorenz_permille
    );

    let classes: Vec<_> = rep
        .tenants
        .iter()
        .map(|t| t.class.label().to_string())
        .collect();
    let p99s: Vec<u64> = rep.tenants.iter().map(|t| t.p99_ns).collect();
    let means: Vec<u64> = rep.tenants.iter().map(|t| t.mean_ns).collect();
    let errors: u64 = rep.tenants.iter().map(|t| t.errors).sum();
    out.json(
        "scale_mixed",
        &json!({
            "name": rep.name,
            "seed": rep.seed,
            "vfs": vfs,
            "total_requests": rep.total_requests,
            "total_bytes": rep.total_bytes,
            "makespan_ns": rep.makespan.as_nanos(),
            "jain_permille": rep.jain_permille,
            "lorenz_permille": rep.lorenz_permille,
            "slo_violations": rep.slo_violations,
            "errors": errors,
            "digest": format!("{:016x}", rep.digest),
            "tenant_class": classes,
            "tenant_p99_ns": p99s,
            "tenant_mean_ns": means,
        }),
    )
}
