//! The traced run: per-layer numbers, never end-to-end ones.
//!
//! It (1) probes each layer's public functions, (2) replays the first
//! stream requests through each rung in turn — codec only, library,
//! in-process server, TCP — with a span around every call, (3) runs a few
//! rounds of every workload for the ledgers and cache counters they leave
//! behind, and (4) runs the chosen workload both untraced and traced, for
//! the load generator's diagnostics and the tracing overhead. Spans are
//! kept in memory and written to `spans.jsonl` at the end.

use std::fs::File;
use std::io::BufWriter;
use std::time::Instant;

use serve::{Frame, Response, DEFAULT_MAX_FRAME};

use crate::fixture::{out_root, ScratchDir, Sizes};
use crate::harness::{
    median_over, stolen_cpu_share, throughput_cv, timed_rounds, Check, RoundSummary, Workload,
};
use crate::lib_batch::LibBatch;
use crate::probes::{self, Probes};
use crate::report::Metric;
use crate::serve_open::ServeOpen;
use crate::serving::TENANTS;
use crate::span::{NoTrace, SpanLog, Tracer, ROOT};
use crate::stats::{median, percentile_sorted};
use crate::stream::method_of;
use crate::train::Train;
use crate::wire_closed::{request_for, WireClosed};

/// What a traced run produced.
pub struct TracedOutcome {
    /// Per-layer metrics, in `report::PER_LAYER` order.
    pub metrics: Vec<Metric>,
    /// Output checks of every workload touched.
    pub checks: Vec<Check>,
    /// Operations attempted by the chosen workload's rounds.
    pub attempted: u64,
    /// Of those, how many were not answered OK.
    pub failed: u64,
    /// Where the spans went.
    pub spans_path: std::path::PathBuf,
}

/// Rounds of one workload in the traced run.
struct Phase {
    untraced: Vec<RoundSummary>,
    /// Only for the chosen workload.
    traced: Vec<RoundSummary>,
}

/// Warm-up, `trace_rounds` untraced rounds and — for the chosen workload
/// — as many traced ones.
fn phase<W: Workload>(w: &mut W, sizes: &Sizes, chosen: bool, log: &mut SpanLog) -> Phase {
    let n = sizes.trace_rounds;
    w.round(0, &mut NoTrace);
    let untraced = timed_rounds(w, sizes, 1, n, &mut NoTrace);
    let traced = if chosen {
        timed_rounds(w, sizes, 1 + n, n, log)
    } else {
        Vec::new()
    };
    Phase { untraced, traced }
}

/// Median duration in ns of the spans called `name`.
fn p50_ns(log: &SpanLog, name: &str) -> f64 {
    percentile_sorted(&log.durations_sorted(name), 50.0) as f64
}

/// Replays stream requests `0..n` through each rung in turn.
fn replay(
    wire: &mut WireClosed,
    n: u64,
    check_staircase: bool,
    log: &mut SpanLog,
    out: &mut Vec<Metric>,
) -> Vec<Check> {
    let (fx, served, client) = wire.parts();
    let reference = &served.reference;
    let mut push = |name, value, unit| out.push(Metric { name, value, unit });

    // Rung 0 — codec only: the request and its reply, encoded and decoded.
    let rung = log.enter("rung.codec", ROOT, 0);
    let (mut request_bytes, mut response_bytes, mut codec_ok) = (0usize, 0usize, true);
    for i in 0..n {
        let prediction = reference.predict_checked(fx.request(i), method_of(i));
        let request = Frame::Request(request_for(fx, i));
        let span = log.enter("serve.codec.encode_request", rung, i);
        let bytes = request.encode();
        log.exit(span);
        let span = log.enter("serve.codec.decode_request", rung, i);
        let decoded = Frame::decode(&bytes, DEFAULT_MAX_FRAME);
        log.exit(span);
        codec_ok &= matches!(decoded, Ok(Frame::Request(_)));
        request_bytes += bytes.len();
        let reply = Frame::Response(Response { id: i, prediction });
        let span = log.enter("serve.codec.encode_response", rung, i);
        let bytes = reply.encode();
        log.exit(span);
        let span = log.enter("serve.codec.decode_response", rung, i);
        let decoded = Frame::decode(&bytes, DEFAULT_MAX_FRAME);
        log.exit(span);
        codec_ok &= matches!(decoded, Ok(Frame::Response(r)) if r.prediction == prediction);
        response_bytes = bytes.len();
    }
    log.exit(rung);

    // Rung 1 — the library call.
    let rung = log.enter("rung.library", ROOT, 0);
    let mut degraded = 0u64;
    for i in 0..n {
        let span = log.enter("core.predictor.predict_checked", rung, i);
        let p = reference.predict_checked(fx.request(i), method_of(i));
        log.exit(span);
        degraded += u64::from(p.degraded);
    }
    log.exit(rung);

    // Rung 2 — the in-process server, one blocking request at a time.
    let rung = log.enter("rung.tenant_server", ROOT, 0);
    let mut server_ok = true;
    for i in 0..n {
        let query = fx.request(i).clone();
        let span = log.enter("serve.tenant.predict", rung, i);
        let submit = log.enter("serve.tenant.submit", span, i);
        let pending = served.server.submit(TENANTS[0], query, method_of(i), None);
        log.exit(submit);
        let wait = log.enter("serve.tenant.wait", span, i);
        let answer = pending.and_then(|p| p.wait());
        log.exit(wait);
        log.exit(span);
        server_ok &= answer.is_ok();
    }
    log.exit(rung);

    // Rung 3 — the TCP door, one client.
    let rung = log.enter("rung.tcp", ROOT, 0);
    let mut tcp_ok = true;
    for i in 0..n {
        let request = request_for(fx, i);
        let span = log.enter("serve.net.request", rung, i);
        let answer = client.request(request);
        log.exit(span);
        tcp_ok &= matches!(answer, Ok(Ok(_)));
    }
    log.exit(rung);

    let codec: Vec<f64> = [
        "serve.codec.encode_request",
        "serve.codec.decode_request",
        "serve.codec.encode_response",
        "serve.codec.decode_response",
    ]
    .iter()
    .map(|name| p50_ns(log, name))
    .collect();
    let checked_ns = p50_ns(log, "core.predictor.predict_checked");
    let tenant_us = p50_ns(log, "serve.tenant.predict") / 1e3;
    let tcp_us = p50_ns(log, "serve.net.request") / 1e3;
    push("core.predictor.checked_ns_per_query", checked_ns, "ns");
    push(
        "core.predictor.degraded_share",
        degraded as f64 / n as f64,
        "share",
    );
    push(
        "serve.tenant.submit_ns",
        p50_ns(log, "serve.tenant.submit"),
        "ns",
    );
    push("serve.tenant.predict_us_p50", tenant_us, "us");
    push(
        "serve.tenant.handoff_self_us",
        tenant_us - checked_ns / 1e3,
        "us",
    );
    push("serve.codec.encode_request_ns", codec[0], "ns");
    push("serve.codec.decode_request_ns", codec[1], "ns");
    push("serve.codec.encode_response_ns", codec[2], "ns");
    push("serve.codec.decode_response_ns", codec[3], "ns");
    push(
        "serve.codec.request_bytes_mean",
        request_bytes as f64 / n as f64,
        "bytes",
    );
    push("serve.codec.response_bytes", response_bytes as f64, "bytes");
    push("serve.net.roundtrip_us_p50", tcp_us, "us");
    push(
        "serve.net.self_us",
        tcp_us - tenant_us - codec.iter().sum::<f64>() / 1e3,
        "us",
    );
    let mut checks = vec![
        Check::new("replay: frames survive encode → decode", codec_ok),
        Check::new("replay: every in-process request was answered", server_ok),
        Check::new("replay: every TCP request was answered", tcp_ok),
    ];
    if check_staircase {
        checks.push(Check::new(
            "staircase: library < in-process server < TCP",
            checked_ns / 1e3 < tenant_us && tenant_us < tcp_us,
        ));
    }
    checks
}

/// Median time of connecting (and dropping) a client, µs.
fn connect_us(wire: &WireClosed, reps: usize, log: &mut SpanLog) -> f64 {
    let micros: Vec<f64> = (0..reps.max(1) as u64)
        .map(|rep| {
            let span = log.enter("serve.net.connect", ROOT, rep);
            let t = Instant::now();
            let client = serve::Client::connect(wire.addr());
            let us = t.elapsed().as_secs_f64() * 1e6;
            log.exit(span);
            drop(client);
            us
        })
        .collect();
    median(&micros)
}

/// Runs the traced benchmark for `chosen` (one of `report::WORKLOADS`).
pub fn run(chosen: &str, sizes: &Sizes, seed: u64) -> TracedOutcome {
    let scratch = ScratchDir::create().expect("scratch directory under the target dir");
    let dir = scratch.path();
    let mut log = SpanLog::new(Instant::now());
    let mut checks = Vec::new();

    // Every workload is set up once; the wire one also hosts the replay.
    let mut wire = WireClosed::set_up(sizes, seed, &dir.join("wire"));
    let mut probed = Probes::new(&mut log, sizes.probe_reps);
    {
        let (fx, served, _) = wire.parts();
        probes::collection(&mut probed, fx, sizes, seed);
        probes::training(&mut probed, fx, seed, dir);
        probes::inference(&mut probed, fx, &served.reference);
        probes::serving(&mut probed, fx, sizes, dir);
    }
    let mut metrics = probed.finish();
    checks.extend(replay(
        &mut wire,
        sizes.replay as u64,
        sizes.check_orderings,
        &mut log,
        &mut metrics,
    ));
    metrics.push(Metric {
        name: "serve.net.connect_us",
        value: connect_us(&wire, sizes.probe_reps * 4, &mut log),
        unit: "us",
    });

    let wire_phase = phase(&mut wire, sizes, chosen == WireClosed::NAME, &mut log);
    let net = wire.net_stats();
    let mut open = ServeOpen::set_up(sizes, seed, &dir.join("open"));
    let open_phase = phase(&mut open, sizes, chosen == ServeOpen::NAME, &mut log);
    let ledgers = open.stats();
    let mut lib = LibBatch::set_up(sizes, seed, &dir.join("lib"));
    let lib_phase = phase(&mut lib, sizes, chosen == LibBatch::NAME, &mut log);
    let cache = lib.pred_cache_stats();
    let mut train = Train::set_up(sizes, seed, &dir.join("train"));
    let train_phase = phase(&mut train, sizes, chosen == Train::NAME, &mut log);
    // The train op through its public stages, whatever workload was chosen.
    let staged = train.op(u64::MAX / 2, &mut log).is_ok();
    checks.push(Check::new("traced train op promoted", staged));

    let mut push = |name, value, unit| metrics.push(Metric { name, value, unit });
    push(
        "core.pred_cache.hit_share",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "share",
    );
    push("core.pred_cache.evictions", cache.evictions as f64, "count");
    push("core.pred_cache.entries", cache.entries as f64, "count");
    let sum = |f: fn(&serve::ServeStatsSnapshot) -> u64| ledgers.iter().map(f).sum::<u64>() as f64;
    push(
        "serve.stats.mean_batch",
        sum(|s| s.batched_jobs) / sum(|s| s.batches).max(1.0),
        "count",
    );
    push(
        "serve.stats.largest_batch",
        ledgers.iter().map(|s| s.largest_batch).max().unwrap_or(0) as f64,
        "count",
    );
    push("serve.stats.shed", sum(|s| s.shed()), "count");
    push(
        "serve.stats.deadline_missed",
        sum(|s| s.deadline_missed),
        "count",
    );
    push("serve.stats.degraded", sum(|s| s.degraded), "count");
    push("serve.net.accepted", net.accepted as f64, "count");
    push("serve.net.served", net.served as f64, "count");
    push("serve.net.aborted", net.aborted as f64, "count");
    push(
        "serve.net.malformed_frames",
        net.malformed_frames as f64,
        "count",
    );

    let picked = match chosen {
        LibBatch::NAME => &lib_phase,
        ServeOpen::NAME => &open_phase,
        WireClosed::NAME => &wire_phase,
        _ => &train_phase,
    };
    let untraced_p50 = median_over(&picked.untraced, |r| r.p50_us);
    push(
        "client.throughput",
        median_over(&picked.untraced, |r| r.throughput),
        "1/s",
    );
    push("client.latency_p50_us", untraced_p50, "us");
    push(
        "client.latency_p90_us",
        median_over(&picked.untraced, |r| r.p90_us),
        "us",
    );
    push(
        "client.latency_p99_us",
        median_over(&picked.untraced, |r| r.p99_us),
        "us",
    );
    push(
        "client.latency_max_us",
        picked.untraced.iter().map(|r| r.max_us).fold(0.0, f64::max),
        "us",
    );
    push(
        "client.gen_late_p99_us",
        median_over(&picked.untraced, |r| r.gen_late_p99_us),
        "us",
    );
    push("client.round_cv", throughput_cv(&picked.untraced), "ratio");
    push(
        "client.stolen_cpu_share",
        stolen_cpu_share(&picked.untraced),
        "share",
    );
    push(
        "trace.overhead_share",
        median_over(&picked.traced, |r| r.p50_us) / untraced_p50 - 1.0,
        "share",
    );
    // In `wire_closed` the chain is strictly serial per client, so the
    // rungs' self times (which telescope to the one-client round trip)
    // must account for the untraced two-client latency.
    let roundtrip = metrics
        .iter()
        .find(|m| m.name == "serve.net.roundtrip_us_p50")
        .map_or(f64::NAN, |m| m.value);
    metrics.push(Metric {
        name: "trace.wire_sum_over_untraced",
        value: roundtrip / median_over(&wire_phase.untraced, |r| r.p50_us),
        unit: "ratio",
    });

    for verified in [wire.verify(), open.verify(), lib.verify(), train.verify()] {
        checks.extend(verified.checks);
    }
    checks.extend(wire.tear_down());
    checks.extend(open.tear_down());
    checks.extend(lib.tear_down());
    checks.extend(train.tear_down());

    let rounds = picked.untraced.iter().chain(&picked.traced);
    let attempted: u64 = rounds.clone().map(|r| r.attempted).sum();
    let ok: u64 = rounds.map(|r| r.ok).sum();

    std::fs::create_dir_all(out_root()).expect("output directory under the target dir");
    let spans_path = out_root().join("spans.jsonl");
    let mut file = BufWriter::new(File::create(&spans_path).expect("spans.jsonl is writable"));
    log.write_jsonl(&mut file).expect("spans.jsonl is writable");
    std::io::Write::flush(&mut file).expect("spans.jsonl is writable");
    metrics.push(Metric {
        name: "trace.spans",
        value: log.spans().len() as f64,
        unit: "count",
    });

    TracedOutcome {
        metrics,
        checks,
        attempted,
        failed: attempted - ok,
        spans_path,
    }
}
