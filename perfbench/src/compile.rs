//! The `compile` workload: in-process `ftbar::schedule` with the shipped
//! defaults, single-threaded, over the fixed suite of
//! [`crate::streams::compile_suite`]. The seed orders each pass.

use std::collections::BTreeMap;
use std::time::Instant;

use ftbar_core::{analysis, basic, ftbar, validate, FtbarConfig, Pressure, Schedule};
use ftbar_model::Time;

use crate::stats::{
    geomean, median, permutation, quantile, samples_beyond, supported_quantile, Rng,
};
use crate::streams::{compile_suite, critical_path_units, Group, Member};
use crate::trace::Tracer;
use crate::{daemon, par_map, Opts, Outcome};

/// Suite passes every run makes at least: 6 × 18 members = 108 calls, so
/// p90 has ten calls beyond it (see `stats::samples_beyond`).
const MIN_PASSES: usize = 6;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Builds the suite and loads the pinned golden schedules.
fn setup(smoke: bool) -> Result<(Vec<Member>, BTreeMap<&'static str, Schedule>), String> {
    let suite = compile_suite(smoke);
    let mut goldens = BTreeMap::new();
    for name in suite.iter().filter_map(|m| m.golden) {
        let path = format!("tests/golden/ftbar_{name}.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let pinned: Schedule =
            serde_json::from_str(text.trim()).map_err(|e| format!("{path}: {e}"))?;
        goldens.insert(name, pinned);
    }
    Ok((suite, goldens))
}

/// Checks one output of each member outside timing: the validator finds no
/// violation, the failure analysis confirms every pattern of up to `Npf`
/// processor failures is masked, and the golden instances equal their
/// pinned schedules. Returns the members whose output failed, with the
/// reason.
fn verify(
    suite: &[Member],
    outputs: &[Schedule],
    goldens: &BTreeMap<&'static str, Schedule>,
) -> Vec<(usize, String)> {
    let mut bad = Vec::new();
    for (i, m) in suite.iter().enumerate() {
        if let Some(g) = m.golden {
            if outputs[i] != goldens[g] {
                bad.push((
                    i,
                    format!("{} differs from tests/golden/ftbar_{g}.json", m.name),
                ));
            }
        }
    }
    // Largest first, so the two threads finish together.
    let mut tasks: Vec<(usize, bool)> = (0..suite.len())
        .flat_map(|i| [(i, true), (i, false)])
        .collect();
    tasks.sort_by_key(|&(i, _)| std::cmp::Reverse(suite[i].problem.alg().op_count()));
    let found = par_map(&tasks, |&(i, structural)| {
        let (p, s) = (&suite[i].problem, &outputs[i]);
        if structural {
            let v = validate::validate(p, s);
            let first = v.first()?;
            Some((
                i,
                format!("{}: {} violations, first {first:?}", suite[i].name, v.len()),
            ))
        } else {
            (!analysis::analyze(p, s).tolerated).then(|| {
                (
                    i,
                    format!("{}: a failure pattern is not masked", suite[i].name),
                )
            })
        }
    });
    bad.extend(found.into_iter().flatten());
    bad
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (unreadable golden files) and scheduling errors.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        built = Some(setup(opts.smoke)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (suite, goldens) = built.expect("set up at least once");
    let mut out = if opts.trace {
        traced(opts, &suite, &goldens)?
    } else {
        measured(opts, &suite, &goldens)?
    };
    let setup = median(&setup_s).expect("set-up samples");
    out.notes.push(format!("setup samples (s): {setup_s:?}"));
    if !opts.trace {
        out.metrics.insert("setup_s".into(), setup);
    }
    Ok(out)
}

/// One schedule call per member per pass, in a seeded order per pass,
/// until the window has passed and every member has [`MIN_PASSES`] calls.
fn passes(
    opts: &Opts,
    n: usize,
    mut call: impl FnMut(usize, usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        for i in permutation(n, &mut Rng::at(opts.seed, pass as u64)) {
            call(pass, i)?;
        }
        pass += 1;
    }
    Ok(pass)
}

fn measured(
    opts: &Opts,
    suite: &[Member],
    goldens: &BTreeMap<&'static str, Schedule>,
) -> Result<Outcome, String> {
    let n = suite.len();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut first: Vec<Option<Schedule>> = vec![None; n];
    let mut drifted = vec![false; n];
    let n_passes = passes(opts, n, |_, i| {
        let problem = std::hint::black_box(&suite[i].problem);
        let t = Instant::now();
        let s = ftbar::schedule(problem).map_err(|e| format!("{}: {e}", suite[i].name))?;
        let s = std::hint::black_box(s);
        times[i].push(t.elapsed().as_secs_f64() * 1e3);
        match &first[i] {
            None => first[i] = Some(s),
            Some(f) => drifted[i] |= *f != s,
        }
        Ok(())
    })?;
    // Peak memory of the scheduling itself, before verification allocates.
    let peak_rss_mb =
        daemon::vm_hwm_mb("/proc/self/status").ok_or("no VmHWM in /proc/self/status")?;
    let outputs: Vec<Schedule> = first
        .into_iter()
        .map(|s| s.expect("every member ran"))
        .collect();
    let bad = verify(suite, &outputs, goldens);

    let mut out = Outcome::default();
    for (i, m) in suite.iter().enumerate() {
        if drifted[i] {
            out.notes
                .push(format!("{}: schedule changed between passes", m.name));
        }
    }
    for (_, why) in &bad {
        out.notes.push(format!("verification failed: {why}"));
    }
    out.attempted = times.iter().map(|t| t.len() as u64).sum();
    out.failed = suite
        .iter()
        .enumerate()
        .filter(|(i, _)| drifted[*i] || bad.iter().any(|(b, _)| b == i))
        .map(|(i, _)| times[i].len() as u64)
        .sum();
    out.correct = out.failed == 0;

    // Every member weighs the same in the rates: the N=10000 point alone
    // would otherwise carry them, and its parallel sweep is the most
    // host-sensitive time in the suite (it is a per-layer metric).
    let med: Vec<f64> = times.iter().map(|t| median(t).expect("samples")).collect();
    let geo_ms = geomean(&med).expect("positive times");
    let per_member_ops: Vec<f64> = suite
        .iter()
        .zip(&med)
        .map(|(m, ms)| m.problem.alg().op_count() as f64 / (ms / 1e3))
        .collect();
    let calls: Vec<f64> = times.iter().flatten().copied().collect();
    let tail = match supported_quantile(&calls, 0.9) {
        Some(t) => t,
        None if opts.smoke => calls.iter().copied().fold(0.0, f64::max),
        None => {
            return Err(format!(
                "{} calls leave fewer than ten beyond p90",
                calls.len()
            ))
        }
    };
    let ratios: Vec<f64> = suite
        .iter()
        .zip(&outputs)
        .filter(|(m, _)| m.problem.npf() > 0)
        .map(|(m, s)| s.makespan().as_units() / critical_path_units(&m.problem))
        .collect();
    let m = &mut out.metrics;
    m.insert(
        "compile_ops_per_s".into(),
        geomean(&per_member_ops).expect("positive rates"),
    );
    m.insert("req_per_s".into(), 1e3 / geo_ms);
    m.insert("req_p50_ms".into(), median(&med).expect("members"));
    m.insert("req_tail_ms".into(), tail);
    m.insert("sched_geomean_ms".into(), geo_ms);
    m.insert(
        "makespan_over_cp".into(),
        geomean(&ratios).expect("positive ratios"),
    );
    m.insert(
        "ok_frac".into(),
        1.0 - out.failed as f64 / out.attempted as f64,
    );
    m.insert("peak_rss_mb".into(), peak_rss_mb);
    out.notes
        .push(format!("passes: {n_passes}, calls: {}", out.attempted));
    let pct = |q: f64| quantile(&calls, q).unwrap_or(0.0);
    out.notes.push(format!(
        "latency ms over {} calls: p50 {:.3} p90 {:.3} ({} beyond p90) p95 {:.3} max {:.3}",
        calls.len(),
        pct(0.5),
        pct(0.9),
        samples_beyond(calls.len(), 0.9),
        pct(0.95),
        pct(1.0)
    ));
    for (i, mbr) in suite.iter().enumerate() {
        out.notes.push(format!(
            "member {:<22} n={:<6} npf={} median {:>10.3} ms over {} calls",
            mbr.name,
            mbr.problem.alg().op_count(),
            mbr.problem.npf(),
            med[i],
            times[i].len()
        ));
    }
    Ok(out)
}

/// The per-layer metrics only the traced compile run measures; the serve
/// workloads report them as 0.
pub const COMPILE_METRICS: &[&str] = &[
    "core.pressure_ms",
    "core.ftbar.schedule_ms.small",
    "core.ftbar.schedule_ms.n1000",
    "core.ftbar.schedule_ms.n2000",
    "core.ftbar.schedule_ms.n10000",
    "core.ftbar.serial_ms.n2000",
    "core.ftbar.serial_ms.n10000",
    "core.ftbar.nodup_ms.small",
    "core.ftbar.nodup_ms.n1000",
    "core.basic.non_ft_ms",
    "core.basic.ft_overhead_pct",
    "core.sweep.probes.n1000",
    "core.sweep.recomputes.n1000",
    "core.sweep.orbit_hits.n1000",
    "core.sweep.bound_skips.n1000",
    "core.sweep.skipped_ops.n1000",
    "core.schedule.replicas.n1000",
    "core.schedule.duplicated.n1000",
    "core.schedule.comms.n1000",
    "core.sweep.probes.n10000",
    "core.sweep.recomputes.n10000",
    "core.sweep.orbit_hits.n10000",
    "core.sweep.bound_skips.n10000",
    "core.sweep.skipped_ops.n10000",
    "core.schedule.replicas.n10000",
    "core.schedule.duplicated.n10000",
    "core.schedule.comms.n10000",
];

/// Span names of the traced compile run; the request id of a span is
/// `pass << 16 | member`.
const SPAN_PRESSURE: &str = "core.pressure";
const SPAN_SCHEDULE: &str = "core.ftbar.schedule";
const SPAN_SERIAL: &str = "core.ftbar.serial";
const SPAN_NODUP: &str = "core.ftbar.nodup";
const SPAN_NON_FT: &str = "core.basic.non_ft";

fn traced(
    opts: &Opts,
    suite: &[Member],
    goldens: &BTreeMap<&'static str, Schedule>,
) -> Result<Outcome, String> {
    let n = suite.len();
    let serial = FtbarConfig {
        parallel_cutoff: usize::MAX,
        ..FtbarConfig::default()
    };
    let nodup = FtbarConfig {
        no_duplication: true,
        ..FtbarConfig::default()
    };
    let mut tracer = Tracer::default();
    let mut first: Vec<Option<ftbar::FtbarOutcome>> = vec![None; n];
    let mut mismatches = Vec::new();
    passes(opts, n, |pass, i| {
        let m = &suite[i];
        let req = (pass as u64) << 16 | i as u64;
        let err = |e: ftbar_core::ScheduleError| format!("{}: {e}", m.name);
        tracer.time(SPAN_PRESSURE, req, || Pressure::new(&m.problem));
        let out = tracer
            .time(SPAN_SCHEDULE, req, || {
                ftbar::schedule_with(&m.problem, &FtbarConfig::default())
            })
            .map_err(err)?;
        if matches!(m.group, Group::N2000 | Group::N10000) {
            let s = tracer
                .time(SPAN_SERIAL, req, || {
                    ftbar::schedule_with(&m.problem, &serial)
                })
                .map_err(err)?;
            if s.schedule != out.schedule {
                mismatches.push(format!("{}: serial sweep differs from the default", m.name));
            }
        }
        if matches!(m.group, Group::Small | Group::N1000) {
            tracer
                .time(SPAN_NODUP, req, || ftbar::schedule_with(&m.problem, &nodup))
                .map_err(err)?;
        }
        if let Some(src) = m.twin_of {
            let s = tracer
                .time(SPAN_NON_FT, req, || {
                    basic::schedule_non_ft(&suite[src].problem)
                })
                .map_err(err)?;
            if s != out.schedule {
                mismatches.push(format!("{}: schedule_non_ft differs from the twin", m.name));
            }
        }
        if first[i].is_none() {
            first[i] = Some(out);
        }
        Ok(())
    })?;
    let path = opts
        .out_dir
        .join(format!("trace-compile-seed{}.jsonl", opts.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let firsts: Vec<ftbar::FtbarOutcome> = first
        .into_iter()
        .map(|o| o.expect("every member ran"))
        .collect();
    let outputs: Vec<Schedule> = firsts.iter().map(|o| o.schedule.clone()).collect();
    let bad = verify(suite, &outputs, goldens);

    let mut out = Outcome::default();
    out.notes.extend(mismatches.iter().cloned());
    out.notes.extend(
        bad.iter()
            .map(|(_, why)| format!("verification failed: {why}")),
    );
    out.attempted = tracer.durations_ms(SPAN_SCHEDULE).len() as u64;
    out.failed = if mismatches.is_empty() && bad.is_empty() {
        0
    } else {
        out.attempted
    };
    out.correct = out.failed == 0;
    out.notes
        .push(format!("spans written to {}", path.display()));

    // Per-member median of each span name.
    let member_median = |name: &str| -> Vec<Option<f64>> {
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); n];
        for s in tracer.spans().iter().filter(|s| s.name == name) {
            per[(s.request & 0xFFFF) as usize].push(s.ms());
        }
        per.iter().map(|v| median(v)).collect()
    };
    let in_group = |g: Group| -> Vec<usize> { (0..n).filter(|&i| suite[i].group == g).collect() };
    let group_geomean = |med: &[Option<f64>], g: Group| -> f64 {
        let v: Vec<f64> = in_group(g).into_iter().filter_map(|i| med[i]).collect();
        geomean(&v).unwrap_or(0.0)
    };
    // The first member of a group stands for it: N=1000 at Npf 1.
    let first_of = |med: &[Option<f64>], g: Group| -> f64 {
        in_group(g).first().and_then(|&i| med[i]).unwrap_or(0.0)
    };
    let sched = member_median(SPAN_SCHEDULE);
    let serial_med = member_median(SPAN_SERIAL);
    let nodup_med = member_median(SPAN_NODUP);
    let non_ft = member_median(SPAN_NON_FT);

    let m = &mut out.metrics;
    for name in crate::serve::SERVICE_METRICS {
        m.insert((*name).into(), 0.0);
    }
    let pressure_per_pass: Vec<f64> = {
        let mut per: BTreeMap<u64, f64> = BTreeMap::new();
        for s in tracer.spans().iter().filter(|s| s.name == SPAN_PRESSURE) {
            *per.entry(s.request >> 16).or_insert(0.0) += s.ms();
        }
        per.into_values().collect()
    };
    m.insert(
        "core.pressure_ms".into(),
        median(&pressure_per_pass).unwrap_or(0.0),
    );
    m.insert(
        "core.ftbar.schedule_ms.small".into(),
        group_geomean(&sched, Group::Small),
    );
    m.insert(
        "core.ftbar.schedule_ms.n1000".into(),
        first_of(&sched, Group::N1000),
    );
    m.insert(
        "core.ftbar.schedule_ms.n2000".into(),
        first_of(&sched, Group::N2000),
    );
    m.insert(
        "core.ftbar.schedule_ms.n10000".into(),
        first_of(&sched, Group::N10000),
    );
    m.insert(
        "core.ftbar.serial_ms.n2000".into(),
        first_of(&serial_med, Group::N2000),
    );
    m.insert(
        "core.ftbar.serial_ms.n10000".into(),
        first_of(&serial_med, Group::N10000),
    );
    m.insert(
        "core.ftbar.nodup_ms.small".into(),
        group_geomean(&nodup_med, Group::Small),
    );
    m.insert(
        "core.ftbar.nodup_ms.n1000".into(),
        first_of(&nodup_med, Group::N1000),
    );
    m.insert(
        "core.basic.non_ft_ms".into(),
        group_geomean(&non_ft, Group::NonFt),
    );
    let pairs: Vec<(Time, Time)> = in_group(Group::NonFt)
        .into_iter()
        .map(|i| {
            let src = suite[i].twin_of.expect("twins name their source");
            (outputs[src].makespan(), outputs[i].makespan())
        })
        .collect();
    m.insert(
        "core.basic.ft_overhead_pct".into(),
        mean_overhead_pct(&pairs),
    );
    for (g, label) in [(Group::N1000, "n1000"), (Group::N10000, "n10000")] {
        let i = in_group(g)[0];
        let stats = firsts[i].sweep_stats.unwrap_or_default();
        let s = &outputs[i];
        for (name, v) in [
            ("core.sweep.probes", stats.probes),
            ("core.sweep.recomputes", stats.recomputes),
            ("core.sweep.orbit_hits", stats.orbit_hits),
            ("core.sweep.bound_skips", stats.bound_skips),
            ("core.sweep.skipped_ops", stats.skipped_ops),
            ("core.schedule.replicas", s.replica_count() as u64),
            (
                "core.schedule.duplicated",
                s.replicas().iter().filter(|r| r.duplicated).count() as u64,
            ),
            ("core.schedule.comms", s.comm_count() as u64),
        ] {
            m.insert(format!("{name}.{label}"), v as f64);
        }
    }
    Ok(out)
}

/// The paper's fault-tolerance overhead (§4.4), averaged over
/// `(FT makespan, non-FT makespan)` pairs.
fn mean_overhead_pct(pairs: &[(Time, Time)]) -> f64 {
    let sum: f64 = pairs
        .iter()
        .map(|&(ft, non_ft)| basic::overhead_percent(ft, non_ft))
        .sum();
    sum / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_matches_hand_computation() {
        let t = Time::from_units;
        // (120 - 90) / 120 = 25%; (100 - 100) / 100 = 0%; (50 - 40) / 50 = 20%.
        assert_eq!(basic::overhead_percent(t(120.0), t(90.0)), 25.0);
        let pairs = [
            (t(120.0), t(90.0)),
            (t(100.0), t(100.0)),
            (t(50.0), t(40.0)),
        ];
        assert!((mean_overhead_pct(&pairs) - 15.0).abs() < 1e-12);
    }
}
