//! The `serve-cold` and `serve-edit` workloads against the real
//! `ftbar-cli serve` daemon: two connections from this one process, closed
//! loop (each connection sends its next request only after the reply to the
//! previous one), so at most two requests are ever in flight.
//!
//! Every reply is checked afterwards, outside the measured window, against
//! the in-process reference `server::direct_response`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ftbar_core::reschedule::{reschedule, schedule_retained, ScheduleArtifacts};
use ftbar_core::{ftbar, FtbarConfig, Schedule};
use ftbar_model::{spec, Problem, TICKS_PER_UNIT};
use ftbar_service::cache::canonical_key;
use ftbar_service::proto::{parse_request, render_ok, with_id, Request};
use ftbar_service::server::{direct_response, ServerConfig, ServerState};
use ftbar_service::{JobResult, SchedulerKind};
use serde::Value;

use crate::daemon::{num, Conn, Daemon};
use crate::stats::{geomean, median, quantile, samples_beyond, supported_quantile};
use crate::streams::{
    cold_request, critical_path_units, schedule_frame, schedule_request, EditKind, EditLineage,
};
use crate::trace::Tracer;
use crate::{compile, par_map, Opts, Outcome};

/// Which request stream the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Distinct generated specs: every request misses the cache.
    Cold,
    /// Two design lineages of edits, what-ifs and repeats.
    Edit,
}

/// The per-layer metrics only the traced serve runs measure; the compile
/// workload reports them as 0.
pub const SERVICE_METRICS: &[&str] = &[
    "model.spec.parse_ms",
    "model.spec.parse_share",
    "service.proto.parse_request_ms",
    "service.proto.render_ms",
    "service.cache.canonical_key_ms",
    "service.cache.hit_frac",
    "service.cache.entry_bytes",
    "service.cache.evictions_per_req",
    "service.server.frame_core_ms",
    "service.server.transport_ms",
    "service.server.unaccounted_ms",
    "service.reschedule.repair_frac",
    "service.requests.degraded",
    "service.requests.timeout",
    "service.requests.overloaded",
    "service.requests.too_large",
    "core.reschedule.retain_ms",
    "core.reschedule.retain_overhead",
    "core.reschedule.repair_ms",
    "core.reschedule.replayed_frac",
    "cli.serve.ready_ms",
];

/// Client connections, and so requests in flight. The host has two CPUs
/// and the daemon two workers; more in flight would only queue.
const CONNS: usize = 2;
/// Replies a measured run collects at least: p90, the reported tail, then
/// rests on 100 replies beyond it, and p99 (printed, not gated) on 10.
const MIN_REPLIES: usize = 1000;
/// A run stops at this multiple of `--seconds` even short of
/// [`MIN_REPLIES`] (and then fails).
const MAX_STRETCH: f64 = 3.0;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Cold warm-up requests per connection, sent before the measured window
/// so the daemon's allocator and stores reach their working size. The
/// `serve-edit` warm-up is each lineage's baseline.
const WARM_PER_CONN: usize = 4;
/// The cold warm-up requests are positions `WARM_FROM..` of the stream of
/// this fixed seed: the same in every run (so set-up time does not vary
/// with the seed), and never a position a measured run reaches.
const WARM_SEED: u64 = 0x5EED_C01D;
const WARM_FROM: u64 = 1 << 32;

/// Where a request's content comes from, so it can be regenerated.
#[derive(Debug, Clone, Copy)]
enum Source {
    Cold { seed: u64, index: u64 },
    Edit { conn: usize, step: u64 },
}

/// One reply as the client saw it.
struct Rec {
    source: Source,
    latency_ms: f64,
    hash: u64,
    ok_status: bool,
    degraded: bool,
    makespan_units: f64,
    ops: usize,
    kind: Option<EditKind>,
}

fn digest(s: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

fn record(
    source: Source,
    latency: Duration,
    reply: &str,
    ops: usize,
    kind: Option<EditKind>,
) -> Rec {
    // The id, status and makespan all sit at the front of a reply; the
    // schedule (when asked for) follows them.
    let head = &reply[..reply.len().min(400)];
    let makespan_units = head
        .split("\"makespan_ticks\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|d| d.parse::<u64>().ok())
        .map_or(0.0, |t| t as f64 / TICKS_PER_UNIT as f64);
    Rec {
        source,
        latency_ms: latency.as_secs_f64() * 1e3,
        hash: digest(reply),
        ok_status: head.contains("\"status\": \"ok\""),
        degraded: head.contains("\"degraded\": true"),
        makespan_units,
        ops,
        kind,
    }
}

/// A daemon with its warmed-up connections and request streams.
struct Session {
    daemon: Daemon,
    conns: Vec<Conn>,
    lineages: Vec<Option<EditLineage>>,
    warm_frames: Vec<String>,
    warm: Vec<Rec>,
}

/// Generates the inputs, spawns the daemon, waits until it answers and
/// warms it up: [`WARM_PER_CONN`] cold requests per connection, or each
/// `serve-edit` lineage's baseline, whose retained schedule later edits
/// repair.
fn set_up(opts: &Opts, mix: Mix, rep: usize) -> Result<Session, String> {
    let bin = opts
        .daemon
        .as_ref()
        .ok_or("the serve workloads need --daemon PATH")?;
    let mut lineages: Vec<Option<EditLineage>> = (0..CONNS)
        .map(|c| (mix == Mix::Edit).then(|| EditLineage::new(opts.seed, c as u64, opts.smoke)))
        .collect();
    let socket = opts
        .out_dir
        .join(format!("d{}-{rep}.sock", std::process::id()));
    let daemon = Daemon::spawn(bin, socket)?;
    let mut conns = Vec::new();
    for _ in 0..CONNS {
        conns.push(daemon.connect().map_err(|e| format!("connect: {e}"))?);
    }
    let mut warm_frames = Vec::new();
    let mut warm = Vec::new();
    for (c, conn) in conns.iter_mut().enumerate() {
        let warm_count = if mix == Mix::Edit { 1 } else { WARM_PER_CONN };
        for j in 0..warm_count {
            let (frame, source, ops, kind) = match &mut lineages[c] {
                None => {
                    let index = WARM_FROM + (c * WARM_PER_CONN + j) as u64;
                    let (p, req) = cold_request(WARM_SEED, index, opts.smoke);
                    let source = Source::Cold {
                        seed: WARM_SEED,
                        index,
                    };
                    (schedule_frame(&req), source, p.alg().op_count(), None)
                }
                Some(l) => {
                    let s = l.next_step();
                    let source = Source::Edit {
                        conn: c,
                        step: s.step,
                    };
                    (s.frame, source, s.answers.alg().op_count(), Some(s.kind))
                }
            };
            let t = Instant::now();
            let reply = conn.send(&frame).map_err(|e| format!("warm-up: {e}"))?;
            warm.push(record(source, t.elapsed(), &reply, ops, kind));
            warm_frames.push(frame);
        }
    }
    Ok(Session {
        daemon,
        conns,
        lineages,
        warm_frames,
        warm,
    })
}

/// The next request of connection `c`: its frame, source, size and kind.
fn next_request(
    opts: &Opts,
    c: usize,
    lineage: Option<&mut EditLineage>,
    next_index: &AtomicU64,
) -> (String, Source, usize, Option<EditKind>) {
    match lineage {
        None => {
            let index = next_index.fetch_add(1, Ordering::Relaxed);
            let (p, req) = cold_request(opts.seed, index, opts.smoke);
            let source = Source::Cold {
                seed: opts.seed,
                index,
            };
            (schedule_frame(&req), source, p.alg().op_count(), None)
        }
        Some(l) => {
            let s = l.next_step();
            let source = Source::Edit {
                conn: c,
                step: s.step,
            };
            (s.frame, source, s.answers.alg().op_count(), Some(s.kind))
        }
    }
}

/// The closed loop: each connection thread generates its next request
/// (untimed think time), sends it and waits for the reply, until the
/// window has passed and [`MIN_REPLIES`] replies are in. Returns the
/// replies and the elapsed seconds.
fn measure(opts: &Opts, sess: &mut Session) -> Result<(Vec<Rec>, f64), String> {
    let min_replies = if opts.smoke { 0 } else { MIN_REPLIES };
    let next_index = AtomicU64::new(0);
    let replies = AtomicUsize::new(0);
    let start = Instant::now();
    let stop = || {
        let t = start.elapsed().as_secs_f64();
        (t >= opts.seconds && replies.load(Ordering::Relaxed) >= min_replies)
            || t >= opts.seconds * MAX_STRETCH
    };
    let results = std::thread::scope(|s| {
        let workers: Vec<_> = sess
            .conns
            .iter_mut()
            .zip(sess.lineages.iter_mut())
            .enumerate()
            .map(|(c, (conn, lineage))| {
                let (stop, next_index, replies) = (&stop, &next_index, &replies);
                s.spawn(move || -> Result<(Vec<Rec>, Instant), String> {
                    let mut recs = Vec::new();
                    while !stop() {
                        let (frame, source, ops, kind) =
                            next_request(opts, c, lineage.as_mut(), next_index);
                        let t = Instant::now();
                        let reply = conn
                            .send(&frame)
                            .map_err(|e| format!("connection {c}: {e}"))?;
                        let latency = t.elapsed();
                        recs.push(record(source, latency, &reply, ops, kind));
                        replies.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok((recs, Instant::now()))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut recs = Vec::new();
    let mut end = start;
    for r in results {
        let (mut rs, e) = r?;
        recs.append(&mut rs);
        end = end.max(e);
    }
    Ok((recs, (end - start).as_secs_f64()))
}

/// Verdict on one reply.
struct Checked {
    ok: bool,
    makespan_over_cp: Option<f64>,
}

/// Checks every reply against `direct_response` for the same request,
/// outside the measured window: cold requests independently, edit
/// lineages one per thread (each replays in order). A `reschedule` reply must equal the direct response for
/// the parent with the edit applied. Returns one verdict per record, in
/// order.
fn verify(opts: &Opts, mix: Mix, recs: &[Rec]) -> Vec<Checked> {
    let check = |rec: &Rec, expected: &str, answers: &Problem| {
        let same = rec.hash == digest(expected);
        Checked {
            ok: same && rec.ok_status && !rec.degraded,
            makespan_over_cp: (rec.ok_status && rec.makespan_units > 0.0)
                .then(|| rec.makespan_units / critical_path_units(answers)),
        }
    };
    match mix {
        Mix::Cold => par_map(recs, |rec| {
            let Source::Cold { seed, index } = rec.source else {
                unreachable!("cold runs record cold sources")
            };
            let (problem, req) = cold_request(seed, index, opts.smoke);
            check(rec, &direct_response(&req), &problem)
        }),
        Mix::Edit => {
            let conns: Vec<usize> = (0..CONNS).collect();
            let per_conn = par_map(&conns, |&conn| {
                let mut mine: Vec<(u64, usize)> = recs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| match r.source {
                        Source::Edit { conn: c, step } if c == conn => Some((step, i)),
                        _ => None,
                    })
                    .collect();
                mine.sort_unstable();
                let mut lineage = EditLineage::new(opts.seed, conn as u64, opts.smoke);
                let mut bodies: HashMap<u64, String> = HashMap::new();
                let mut done = Vec::new();
                let mut step = lineage.next_step();
                for (want, i) in mine {
                    while step.step < want {
                        step = lineage.next_step();
                    }
                    let body = bodies.entry(step.key).or_insert_with(|| {
                        let mut req = schedule_request(
                            String::new(),
                            spec::print_problem(&step.answers),
                            false,
                        );
                        req.id = None;
                        direct_response(&req)
                    });
                    let expected = with_id(Some(&step.id), body);
                    done.push((i, check(&recs[i], &expected, &step.answers)));
                }
                done
            });
            let mut out: Vec<Option<Checked>> = (0..recs.len()).map(|_| None).collect();
            for (i, c) in per_conn.into_iter().flatten() {
                out[i] = Some(c);
            }
            out.into_iter()
                .map(|c| c.expect("every record was checked"))
                .collect()
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Daemon lifecycle failures, broken connections, and a measured run
/// short of [`MIN_REPLIES`].
pub fn run(opts: &Opts, mix: Mix) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready_ms = Vec::new();
    let mut session = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(previous) = session.take() {
            let Session { daemon, conns, .. } = previous;
            drop(conns);
            daemon.shutdown()?;
        }
        let t = Instant::now();
        let s = set_up(opts, mix, rep)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready_ms.push(s.daemon.ready_ms);
        session = Some(s);
    }
    let mut sess = session.expect("set up at least once");

    let mut out = Outcome::default();
    let mut tracer = Tracer::default();
    let mut layer = LayerCounts::default();
    let (mut recs, elapsed) = if opts.trace {
        traced(opts, &mut sess, &mut tracer, &mut layer)?
    } else {
        measure(opts, &mut sess)?
    };
    let status = sess.daemon.status()?;
    let peak_rss_mb = sess.daemon.peak_rss_mb().ok_or("no VmHWM for the daemon")?;
    let Session {
        daemon,
        conns,
        warm,
        ..
    } = sess;
    drop(conns);
    daemon.shutdown()?;

    let n_measured = recs.len();
    let n_warm = warm.len();
    recs.extend(warm);
    let checked = verify(opts, mix, &recs);
    let failed_warm = checked[n_measured..].iter().filter(|c| !c.ok).count();
    let checked = &checked[..n_measured];
    let recs = &recs[..n_measured];

    out.attempted = n_measured as u64;
    out.failed = checked.iter().filter(|c| !c.ok).count() as u64;
    out.correct = out.failed == 0 && failed_warm == 0 && layer.frame_mismatches == 0;
    if failed_warm > 0 {
        out.notes
            .push(format!("{failed_warm} warm-up replies failed verification"));
    }
    if layer.frame_mismatches > 0 {
        out.notes.push(format!(
            "{} in-process frame replies differ from the daemon's",
            layer.frame_mismatches
        ));
    }
    let degraded = recs.iter().filter(|r| r.degraded).count();
    out.notes.push(format!(
        "replies: {n_measured} in {elapsed:.3} s (+{n_warm} warm-up), failed {}, degraded {degraded}",
        out.failed
    ));
    out.notes.push(format!("setup samples (s): {setup_s:?}"));
    out.notes.push(format!(
        "daemon status at the end: {}",
        render_status(&status)
    ));
    if mix == Mix::Edit {
        let mut kinds: BTreeMap<String, (usize, usize, Vec<f64>)> = BTreeMap::new();
        for (r, c) in recs.iter().zip(checked) {
            let e = kinds
                .entry(format!("{:?}", r.kind.expect("edit records carry a kind")))
                .or_default();
            e.0 += 1;
            e.1 += usize::from(!c.ok);
            e.2.push(r.latency_ms);
        }
        for (kind, (n, bad, lat)) in kinds {
            out.notes.push(format!(
                "kind {kind:<10} {n:>6} requests, {bad} failed, median {:.3} ms",
                median(&lat).unwrap_or(0.0)
            ));
        }
    }

    let lat: Vec<f64> = recs.iter().map(|r| r.latency_ms).collect();
    let pct = |q: f64| quantile(&lat, q).unwrap_or(0.0);
    out.notes.push(format!(
        "latency ms over {} replies: p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} ({} beyond p99)",
        lat.len(),
        pct(0.5),
        pct(0.9),
        pct(0.95),
        pct(0.99),
        samples_beyond(lat.len(), 0.99)
    ));
    let mut slowest: Vec<&Rec> = recs.iter().collect();
    slowest.sort_by(|a, b| b.latency_ms.total_cmp(&a.latency_ms));
    for r in slowest.iter().take(12) {
        out.notes.push(format!(
            "slow reply {:>9.3} ms  n={:<4} {:?} {:?}",
            r.latency_ms, r.ops, r.kind, r.source
        ));
    }
    let m = &mut out.metrics;
    if opts.trace {
        for name in compile::COMPILE_METRICS {
            m.insert((*name).into(), 0.0);
        }
        let sent = (n_measured + n_warm) as f64;
        let hits = num(&status, &["cache", "hits"])?;
        let misses = num(&status, &["cache", "misses"])?;
        let entries = num(&status, &["cache", "entries"])?;
        let repairs = num(&status, &["reschedule", "repairs"])?;
        let fallbacks = num(&status, &["reschedule", "fallbacks"])?;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        m.insert("service.cache.hit_frac".into(), ratio(hits, hits + misses));
        m.insert(
            "service.cache.entry_bytes".into(),
            ratio(num(&status, &["cache", "bytes"])?, entries),
        );
        m.insert(
            "service.cache.evictions_per_req".into(),
            num(&status, &["cache", "evictions"])? / sent,
        );
        m.insert(
            "service.reschedule.repair_frac".into(),
            ratio(repairs, repairs + fallbacks),
        );
        for code in ["degraded", "timeout", "overloaded", "too_large"] {
            m.insert(
                format!("service.requests.{code}"),
                num(&status, &["requests", code])?,
            );
        }
        m.insert(
            "cli.serve.ready_ms".into(),
            median(&ready_ms).expect("ready samples"),
        );
        layer_metrics(&tracer, &layer, m);
        let path = opts
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.notes.push(format!(
            "spans written to {}; mirrored bodies differing from the daemon's: {}",
            path.display(),
            layer.mirror_drift
        ));
    } else {
        if n_measured < MIN_REPLIES && !opts.smoke {
            return Err(format!(
                "{n_measured} replies in {elapsed:.1} s; a run needs {MIN_REPLIES}"
            ));
        }
        let tail = supported_quantile(&lat, 0.9)
            .or(opts.smoke.then(|| lat.iter().copied().fold(0.0, f64::max)))
            .ok_or("too few replies for p90")?;
        let ops: usize = recs.iter().map(|r| r.ops).sum();
        let ratios: Vec<f64> = checked.iter().filter_map(|c| c.makespan_over_cp).collect();
        m.insert("setup_s".into(), median(&setup_s).expect("setup samples"));
        m.insert("req_per_s".into(), n_measured as f64 / elapsed);
        m.insert("compile_ops_per_s".into(), ops as f64 / elapsed);
        m.insert("req_p50_ms".into(), median(&lat).ok_or("no replies")?);
        m.insert("req_tail_ms".into(), tail);
        m.insert(
            "sched_geomean_ms".into(),
            geomean(&lat).ok_or("no replies")?,
        );
        m.insert(
            "makespan_over_cp".into(),
            geomean(&ratios).ok_or("no successful replies")?,
        );
        m.insert(
            "ok_frac".into(),
            1.0 - out.failed as f64 / n_measured as f64,
        );
        m.insert("peak_rss_mb".into(), peak_rss_mb);
    }
    Ok(out)
}

fn render_status(v: &Value) -> String {
    let mut parts = Vec::new();
    for (section, keys) in [
        (
            "cache",
            &["hits", "misses", "evictions", "entries", "bytes"][..],
        ),
        (
            "requests",
            &["ok", "degraded", "timeout", "overloaded", "too_large"][..],
        ),
        ("reschedule", &["repairs", "fallbacks", "artifacts"][..]),
    ] {
        for k in keys {
            if let Ok(x) = num(v, &[section, k]) {
                parts.push(format!("{section}.{k}={x}"));
            }
        }
    }
    parts.join(" ")
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

const SPAN_REQUEST: &str = "request";
const SPAN_ROUNDTRIP: &str = "service.server.roundtrip";
const SPAN_FRAME_CORE: &str = "service.server.frame_core";
const SPAN_LAYERS: &str = "layers";
const SPAN_PARSE_REQUEST: &str = "service.proto.parse_request";
const SPAN_SPEC_PARSE: &str = "model.spec.parse";
const SPAN_CANONICAL: &str = "service.cache.canonical_key";
const SPAN_RETAIN: &str = "core.reschedule.retain";
const SPAN_REPAIR: &str = "core.reschedule.repair";
const SPAN_RENDER: &str = "service.proto.render";
/// A plain `ftbar::schedule` of each retained problem, outside the layer
/// sum: the base of `core.reschedule.retain_overhead`.
const SPAN_PLAIN: &str = "core.ftbar.schedule";
/// The layer calls a frame's work is made of.
const LAYER_SPANS: [&str; 6] = [
    SPAN_PARSE_REQUEST,
    SPAN_SPEC_PARSE,
    SPAN_CANONICAL,
    SPAN_RETAIN,
    SPAN_REPAIR,
    SPAN_RENDER,
];

/// Counts the traced run keeps beside its spans.
#[derive(Default)]
struct LayerCounts {
    steps_replayed: usize,
    steps_total: usize,
    frame_mismatches: usize,
    mirror_drift: usize,
}

/// Retained artifacts the mirror repairs from, keyed by canonical key;
/// first in, first out, like the daemon's store but roomier.
#[derive(Default)]
struct Artifacts {
    map: HashMap<String, Arc<ScheduleArtifacts>>,
    order: VecDeque<String>,
}

impl Artifacts {
    const CAP: usize = 64;

    fn insert(&mut self, key: String, a: ScheduleArtifacts) {
        if self.map.insert(key.clone(), Arc::new(a)).is_none() {
            self.order.push_back(key);
            if self.order.len() > Self::CAP {
                let old = self.order.pop_front().expect("non-empty");
                self.map.remove(&old);
            }
        }
    }
}

fn job_result(problem: &Problem, schedule: Schedule, include_schedule: bool) -> JobResult {
    JobResult {
        scheduler: SchedulerKind::Ftbar,
        npf: problem.npf(),
        ops: problem.alg().op_count(),
        procs: problem.arch().proc_count(),
        makespan: schedule.makespan(),
        completion: schedule.completion(),
        replicas: schedule.replica_count(),
        comms: schedule.comm_count(),
        rtc_met: problem.rtc().map(|rtc| schedule.makespan() <= rtc),
        schedule: include_schedule.then_some(schedule),
    }
}

/// Cache hits and reschedule repairs of the in-process frame core so far.
fn frame_counters(state: &ServerState) -> Result<(f64, f64), String> {
    let v: Value = serde_json::from_str(state.handle_frame("{\"op\": \"status\"}").response())
        .map_err(|e| format!("in-process status: {e}"))?;
    Ok((
        num(&v, &["cache", "hits"])?,
        num(&v, &["reschedule", "repairs"])?,
    ))
}

/// Re-runs, span by span, the layer calls the frame core made for `frame`:
/// request parse; on a cache miss also spec parse, canonical keys, the
/// retained schedule or the repair, and rendering. Returns the mirrored
/// reply and, when a schedule was retained, the problem it was for.
fn mirror(
    tracer: &mut Tracer,
    k: u64,
    frame: &str,
    hit: bool,
    repaired: bool,
    store: &mut Artifacts,
    counts: &mut LayerCounts,
) -> Result<Option<(String, Option<Problem>)>, String> {
    let req = tracer
        .time(SPAN_PARSE_REQUEST, k, || parse_request(frame))
        .map_err(|e| format!("mirror: {e}"))?;
    if hit {
        return Ok(None);
    }
    let config = FtbarConfig::default();
    let key_of = |p: &Problem, include| canonical_key(p, SchedulerKind::Ftbar, "adaptive", include);
    let (base, edit) = match req {
        Request::Schedule(r) => (r, None),
        Request::Reschedule(r) => (r.base, Some(r.edit)),
        _ => return Err("mirror: unexpected request kind".into()),
    };
    let include = base.include_schedule;
    let problem = tracer
        .time(SPAN_SPEC_PARSE, k, || spec::parse_problem(&base.spec))
        .map_err(|e| format!("mirror: {e}"))?;
    let key = tracer.time(SPAN_CANONICAL, k, || key_of(&problem, include));
    let (schedule, artifacts, retained) = match edit {
        Some(edit) if repaired => {
            let prev = match store.map.get(&key) {
                Some(a) => Arc::clone(a),
                None => Arc::new(
                    schedule_retained(&problem, &config)
                        .map_err(|e| e.to_string())?
                        .1,
                ),
            };
            let out = tracer
                .time(SPAN_REPAIR, k, || reschedule(&prev, &edit))
                .map_err(|e| format!("mirror repair: {e}"))?;
            counts.steps_replayed += out.report.steps_replayed();
            counts.steps_total += out.report.steps_total;
            (out.schedule, out.artifacts, false)
        }
        edit => {
            let (s, a) = tracer
                .time(SPAN_RETAIN, k, || -> Result<_, String> {
                    let target = match &edit {
                        Some(e) => e.apply(&problem).map_err(|e| e.to_string())?,
                        None => problem.clone(),
                    };
                    schedule_retained(&target, &config).map_err(|e| e.to_string())
                })
                .map_err(|e| format!("mirror retain: {e}"))?;
            (s, a, true)
        }
    };
    let answered = artifacts.problem().clone();
    let key = tracer.time(SPAN_CANONICAL, k, || key_of(&answered, include));
    let body = tracer.time(SPAN_RENDER, k, || {
        render_ok(None, &job_result(&answered, schedule, include), false)
    });
    store.insert(key, artifacts);
    Ok(Some((
        with_id(base.id.as_deref(), &body),
        retained.then_some(answered),
    )))
}

/// The traced run: one request at a time, alternating connections. Each
/// request goes to the daemon (round trip), then through an in-process
/// frame core with the daemon's default configuration (the same frames in
/// the same order, so its cache and artifact store evolve alike), then
/// through [`mirror`]. Spans are kept in `tracer`.
fn traced(
    opts: &Opts,
    sess: &mut Session,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<(Vec<Rec>, f64), String> {
    let state = ServerState::new(ServerConfig::default());
    let workers = state.spawn_workers();
    let result = (|| {
        let mut store = Artifacts::default();
        for frame in &sess.warm_frames {
            let mut ignore = Tracer::default();
            let (hits, repairs) = frame_counters(&state)?;
            state.handle_frame(frame);
            let (hits2, repairs2) = frame_counters(&state)?;
            mirror(
                &mut ignore,
                0,
                frame,
                hits2 > hits,
                repairs2 > repairs,
                &mut store,
                counts,
            )?;
        }
        let next_index = AtomicU64::new(0);
        let start = Instant::now();
        let mut recs = Vec::new();
        let mut k = 0u64;
        while start.elapsed().as_secs_f64() < opts.seconds || k < 2 * CONNS as u64 {
            let c = (k % CONNS as u64) as usize;
            let (frame, source, ops, kind) =
                next_request(opts, c, sess.lineages[c].as_mut(), &next_index);
            tracer.begin(SPAN_REQUEST, k);
            let conn = &mut sess.conns[c];
            let mut round_trip = |tracer: &mut Tracer| -> Result<(String, Duration), String> {
                let t = Instant::now();
                let reply = tracer
                    .time(SPAN_ROUNDTRIP, k, || conn.send(&frame))
                    .map_err(|e| format!("connection {c}: {e}"))?;
                Ok((reply, t.elapsed()))
            };
            // Every other pair of requests runs the frame core first, so
            // neither side carries an order effect into `transport_ms`.
            let daemon_first = (k / 2).is_multiple_of(2);
            let early = if daemon_first {
                Some(round_trip(tracer)?)
            } else {
                None
            };
            let (hits, repairs) = frame_counters(&state)?;
            let local = tracer.time(SPAN_FRAME_CORE, k, || state.handle_frame(&frame));
            let (hits2, repairs2) = frame_counters(&state)?;
            let (reply, latency) = match early {
                Some(r) => r,
                None => round_trip(tracer)?,
            };
            tracer.begin(SPAN_LAYERS, k);
            let mirrored = mirror(
                tracer,
                k,
                &frame,
                hits2 > hits,
                repairs2 > repairs,
                &mut store,
                counts,
            )?;
            tracer.end();
            if let Some((body, Some(problem))) = &mirrored {
                tracer
                    .time(SPAN_PLAIN, k, || ftbar::schedule(problem))
                    .map_err(|e| e.to_string())?;
                counts.mirror_drift += usize::from(*body != reply);
            } else if let Some((body, None)) = &mirrored {
                counts.mirror_drift += usize::from(*body != reply);
            }
            tracer.end();
            counts.frame_mismatches += usize::from(local.response() != reply);
            recs.push(record(source, latency, &reply, ops, kind));
            k += 1;
        }
        Ok((recs, start.elapsed().as_secs_f64()))
    })();
    state.begin_shutdown();
    for w in workers {
        w.join()
            .map_err(|_| "in-process worker panicked".to_owned())?;
    }
    result
}

/// Derives the per-layer metrics from the traced run's spans.
fn layer_metrics(tracer: &Tracer, counts: &LayerCounts, m: &mut BTreeMap<String, f64>) {
    let med = |name: &str| median(&tracer.durations_ms(name)).unwrap_or(0.0);
    let total = |name: &str| tracer.durations_ms(name).iter().sum::<f64>();
    let frame_core = tracer.per_request_ms(SPAN_FRAME_CORE);
    let roundtrip = tracer.per_request_ms(SPAN_ROUNDTRIP);
    let mut layers: BTreeMap<u64, f64> = BTreeMap::new();
    for name in LAYER_SPANS {
        for (k, ms) in tracer.per_request_ms(name) {
            *layers.entry(k).or_insert(0.0) += ms;
        }
    }
    let transport: Vec<f64> = frame_core
        .iter()
        .map(|(k, fc)| roundtrip.get(k).copied().unwrap_or(0.0) - fc)
        .collect();
    let unaccounted: Vec<f64> = frame_core
        .iter()
        .map(|(k, fc)| fc - layers.get(k).copied().unwrap_or(0.0))
        .collect();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.insert("model.spec.parse_ms".into(), med(SPAN_SPEC_PARSE));
    m.insert(
        "model.spec.parse_share".into(),
        ratio(total(SPAN_SPEC_PARSE), frame_core.values().sum()),
    );
    m.insert(
        "service.proto.parse_request_ms".into(),
        med(SPAN_PARSE_REQUEST),
    );
    m.insert("service.proto.render_ms".into(), med(SPAN_RENDER));
    m.insert("service.cache.canonical_key_ms".into(), med(SPAN_CANONICAL));
    m.insert("service.server.frame_core_ms".into(), med(SPAN_FRAME_CORE));
    m.insert(
        "service.server.transport_ms".into(),
        median(&transport).unwrap_or(0.0),
    );
    m.insert(
        "service.server.unaccounted_ms".into(),
        median(&unaccounted).unwrap_or(0.0),
    );
    m.insert("core.reschedule.retain_ms".into(), med(SPAN_RETAIN));
    m.insert(
        "core.reschedule.retain_overhead".into(),
        ratio(total(SPAN_RETAIN), total(SPAN_PLAIN)),
    );
    m.insert("core.reschedule.repair_ms".into(), med(SPAN_REPAIR));
    m.insert(
        "core.reschedule.replayed_frac".into(),
        ratio(counts.steps_replayed as f64, counts.steps_total as f64),
    );
}
