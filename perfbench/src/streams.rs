//! Every input the benchmark sends, as a pure function of the seed.
//!
//! * [`compile_suite`] — the fixed problem suite of the `compile` workload;
//!   the seed only orders it.
//! * [`cold_request`] — request `i` of the `serve-cold` stream: a distinct
//!   generated spec per index.
//! * [`EditLineage`] — one connection's `serve-edit` stream: a design
//!   lineage of chained edits, what-if edits off its baseline, structural
//!   edits and repeats.

use std::collections::VecDeque;
use std::sync::Arc;

use ftbar_core::edit::ProblemEdit;
use ftbar_model::{paper_example, spec, Problem, Time, TICKS_PER_UNIT};
use ftbar_service::proto::{render_edit, ScheduleRequest};
use ftbar_service::SchedulerKind;
use ftbar_workload::presets::{problem_on, scheduling_point, Topology};
use ftbar_workload::{layered, timing, LayeredConfig, TimingConfig};

use crate::stats::Rng;

/// Deadline every request asks for. Far above any latency the workloads
/// produce, so the daemon never degrades a request for lack of headroom.
pub const TIMEOUT_MS: u64 = 600_000;

/// Which per-layer group a suite member reports under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The paper example, the pinned golden instances and the N=300 members.
    Small,
    /// The N=1000 scheduling points (Npf 1 and 2).
    N1000,
    /// The N=2000 scheduling point: the parallel sweep engages here.
    N2000,
    /// The N=10000 scheduling point.
    N10000,
    /// An Npf=0 twin of another member (the non-fault-tolerant baseline).
    NonFt,
}

/// One problem of the `compile` suite.
pub struct Member {
    /// Stable label, e.g. `n300-ring4` or `paper-npf0`.
    pub name: String,
    /// Reporting group.
    pub group: Group,
    /// The problem `ftbar::schedule` runs on.
    pub problem: Problem,
    /// The pinned schedule under `tests/golden/`, for the four golden
    /// instances.
    pub golden: Option<&'static str>,
    /// For an Npf=0 twin, the index of the fault-tolerant member it mirrors.
    pub twin_of: Option<usize>,
}

/// The `compile` suite: the paper example and the other three pinned golden
/// instances, N=300 on each topology family, the N=1000 scheduling point at
/// Npf 1 and 2, the N=2000 and N=10000 points, and Npf=0 twins of the
/// paper, N=300 and N=1000 (Npf 1) members. `smoke` shrinks every generated
/// member so the whole suite schedules in milliseconds.
pub fn compile_suite(smoke: bool) -> Vec<Member> {
    let (n300, n1000, n2000, n10000) = if smoke {
        (30, 60, 80, 100)
    } else {
        (300, 1000, 2000, 10_000)
    };
    let mut m = Vec::new();
    let mut push = |name: String, group, problem, golden| {
        m.push(Member {
            name,
            group,
            problem,
            golden,
            twin_of: None,
        })
    };
    push("paper".into(), Group::Small, paper_example(), Some("paper"));
    push(
        "ring4_seed11".into(),
        Group::Small,
        problem_on(Topology::Ring, 24, 1.5, 11),
        Some("ring4_seed11"),
    );
    push(
        "mesh3x2_seed12".into(),
        Group::Small,
        problem_on(Topology::Mesh, 24, 1.5, 12),
        Some("mesh3x2_seed12"),
    );
    push(
        "hypercube3_seed13".into(),
        Group::Small,
        problem_on(Topology::Hypercube, 24, 1.5, 13),
        Some("hypercube3_seed13"),
    );
    for (i, topo) in Topology::ALL.into_iter().enumerate() {
        push(
            format!("n{n300}-{}", topo.name()),
            Group::Small,
            problem_on(topo, n300, 5.0, 300 + i as u64),
            None,
        );
    }
    let p1000 = scheduling_point(n1000);
    let p1000_npf2 = p1000
        .with_npf(2)
        .expect("four processors carry three replicas");
    push(format!("n{n1000}"), Group::N1000, p1000, None);
    push(format!("n{n1000}-npf2"), Group::N1000, p1000_npf2, None);
    push(
        format!("n{n2000}"),
        Group::N2000,
        scheduling_point(n2000),
        None,
    );
    push(
        format!("n{n10000}"),
        Group::N10000,
        scheduling_point(n10000),
        None,
    );
    for src in [0, 4, 5, 6, 7, 8] {
        let problem = m[src]
            .problem
            .with_npf(0)
            .expect("npf 0 is always feasible");
        m.push(Member {
            name: format!("{}-npf0", m[src].name),
            group: Group::NonFt,
            problem,
            golden: None,
            twin_of: Some(src),
        });
    }
    m
}

/// The critical path of `problem` with every operation at its fastest
/// allowed execution time and every communication free: a lower bound on
/// any schedule's makespan, in time units.
pub fn critical_path_units(problem: &Problem) -> f64 {
    let alg = problem.alg();
    let mut bottom = vec![0.0_f64; alg.op_count()];
    for &op in alg.topo_order().iter().rev() {
        let fastest = problem
            .exec()
            .allowed_procs(op)
            .filter_map(|p| problem.exec().get(op, p))
            .map(Time::as_units)
            .fold(f64::INFINITY, f64::min);
        let tail = alg
            .sched_succs(op)
            .map(|(_, s)| bottom[s.index()])
            .fold(0.0, f64::max);
        bottom[op.index()] = fastest + tail;
    }
    bottom.into_iter().fold(0.0, f64::max)
}

/// The wire frame of a `schedule` request.
pub fn schedule_frame(req: &ScheduleRequest) -> String {
    format!(
        "{{\"op\": \"schedule\", \"id\": {}, \"spec\": {}, \"timeout_ms\": {}, \"include_schedule\": {}}}",
        json_string(req.id.as_deref().expect("every request has an id")),
        json_string(&req.spec),
        req.timeout_ms.expect("every request sets a deadline"),
        req.include_schedule
    )
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// A `schedule` request for `spec` as the benchmark sends it.
pub fn schedule_request(id: String, spec: String, include_schedule: bool) -> ScheduleRequest {
    ScheduleRequest {
        id: Some(id),
        spec,
        scheduler: SchedulerKind::Ftbar,
        npf: None,
        strategy: None,
        timeout_ms: Some(TIMEOUT_MS),
        include_schedule,
    }
}

/// Request `index` of the `serve-cold` stream: its generated problem and
/// the request carrying it.
///
/// Sizes follow a seeded low-discrepancy sequence over N in [20, 300]
/// (`smoke`: [20, 50]) so every run covers the size range evenly; odd
/// indices ask for the full schedule, and the topology cycles through the
/// four families every two indices, so each family sees both reply shapes;
/// Npf is 1 or 2, CCR in [1, 5]. Each index draws its own
/// generator seed, so every spec is distinct and every request misses the
/// daemon's cache.
pub fn cold_request(seed: u64, index: u64, smoke: bool) -> (Problem, ScheduleRequest) {
    let mut rng = Rng::at(seed ^ 0xC01D, index);
    let offset = Rng::new(seed).unit();
    let u = (offset + index as f64 * 0.618_033_988_749_894_9).fract();
    let span = if smoke { 31.0 } else { 281.0 };
    let n_ops = 20 + (u * span) as usize;
    let topo = Topology::from_index((index / 2) as usize);
    let npf = 1 + rng.below(2) as u32;
    let ccr = 1.0 + 4.0 * rng.unit();
    let gen_seed = rng.next_u64();
    let alg = layered(&LayeredConfig {
        n_ops,
        seed: gen_seed,
        ..Default::default()
    });
    let problem = timing(
        alg,
        topo.arch(),
        &TimingConfig {
            ccr,
            npf,
            seed: gen_seed,
            ..Default::default()
        },
    )
    .expect("generated problems are valid");
    let req = schedule_request(
        format!("c{index}"),
        spec::print_problem(&problem),
        index % 2 == 1,
    );
    (problem, req)
}

/// What a `serve-edit` request does to its lineage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// The lineage's first request: schedule the baseline (warm-up).
    Baseline,
    /// A timing tweak applied to the previous variant.
    Chained,
    /// A timing tweak applied to the lineage's baseline.
    WhatIf,
    /// A `forbid_proc` edit applied to the previous variant.
    Structural,
    /// A repeat of one of the last 16 requests.
    Repeat,
}

/// One request of a `serve-edit` lineage.
pub struct EditStep {
    /// Position in the lineage (0 is the baseline).
    pub step: u64,
    /// Request id, unique per run.
    pub id: String,
    /// The wire frame.
    pub frame: String,
    /// What the request does.
    pub kind: EditKind,
    /// Identifies the request's content (spec and edit, not the id):
    /// repeats share the key of the request they repeat.
    pub key: u64,
    /// The problem the reply answers (the parent with the edit applied).
    pub answers: Arc<Problem>,
}

/// The most recent requests a repeat may copy.
const REPEAT_WINDOW: usize = 16;

#[derive(Clone)]
struct Sent {
    spec_json: Arc<str>,
    edit: ProblemEdit,
    key: u64,
    answers: Arc<Problem>,
}

/// One connection's `serve-edit` stream. Connection 0 edits a fixed N=400
/// design on the fully connected 4-processor machine, connection 1 one on
/// the 4-processor ring (`smoke`: N=40). Each step draws, from the seed and
/// its position: ~20% a repeat of one of the last 16 requests, ~20% a
/// what-if tweak of the baseline, ~3% a structural `forbid_proc` on the
/// current variant, and otherwise a chained `tweak_exec`/`tweak_comm` of
/// the current variant.
pub struct EditLineage {
    seed: u64,
    conn: u64,
    step: u64,
    baseline: Arc<Problem>,
    baseline_json: Arc<str>,
    current: Arc<Problem>,
    current_json: Arc<str>,
    history: VecDeque<Sent>,
}

impl EditLineage {
    /// The lineage of connection `conn` under `seed`.
    pub fn new(seed: u64, conn: u64, smoke: bool) -> Self {
        let topo = if conn.is_multiple_of(2) {
            Topology::Full
        } else {
            Topology::Ring
        };
        let n_ops = if smoke { 40 } else { 400 };
        // The baselines are fixed: the seed varies only the edits, so runs
        // on different seeds measure the same designs.
        let baseline = Arc::new(problem_on(topo, n_ops, 2.0, 400 + conn));
        let baseline_json: Arc<str> = json_string(&spec::print_problem(&baseline)).into();
        EditLineage {
            seed,
            conn,
            step: 0,
            current: Arc::clone(&baseline),
            current_json: Arc::clone(&baseline_json),
            baseline,
            baseline_json,
            history: VecDeque::new(),
        }
    }

    /// The next request of the lineage. The first is the baseline's
    /// `schedule` request; every later one is a `reschedule`.
    pub fn next_step(&mut self) -> EditStep {
        let k = self.step;
        self.step += 1;
        let id = format!("e{}-{k}", self.conn);
        if k == 0 {
            let frame = format!(
                "{{\"op\": \"schedule\", \"id\": {}, \"spec\": {}, \"timeout_ms\": {TIMEOUT_MS}}}",
                json_string(&id),
                self.baseline_json
            );
            return EditStep {
                step: k,
                id,
                frame,
                kind: EditKind::Baseline,
                key: content_key(&self.baseline_json, None),
                answers: Arc::clone(&self.baseline),
            };
        }
        let mut rng = Rng::at(self.seed ^ (0xED17 + self.conn), k);
        let r = rng.unit();
        let (kind, sent) = if r < 0.2 && !self.history.is_empty() {
            let j = rng.below(self.history.len());
            (EditKind::Repeat, self.history[j].clone())
        } else if r < 0.4 {
            let edit = tweak(&self.baseline, &mut rng);
            let answers = Arc::new(edit.apply(&self.baseline).expect("tweaks apply"));
            let spec_json = Arc::clone(&self.baseline_json);
            let key = content_key(&spec_json, Some(&edit));
            (
                EditKind::WhatIf,
                Sent {
                    spec_json,
                    edit,
                    key,
                    answers,
                },
            )
        } else {
            let (kind, edit) = if r < 0.43 {
                (EditKind::Structural, forbid(&self.current, &mut rng))
            } else {
                (EditKind::Chained, tweak(&self.current, &mut rng))
            };
            let answers = Arc::new(edit.apply(&self.current).expect("generated edits apply"));
            let spec_json = Arc::clone(&self.current_json);
            let key = content_key(&spec_json, Some(&edit));
            self.current_json = json_string(&spec::print_problem(&answers)).into();
            self.current = Arc::clone(&answers);
            (
                kind,
                Sent {
                    spec_json,
                    edit,
                    key,
                    answers,
                },
            )
        };
        let frame = format!(
            "{{\"op\": \"reschedule\", \"id\": {}, \"spec\": {}, \"timeout_ms\": {TIMEOUT_MS}, \"edit\": {}}}",
            json_string(&id),
            sent.spec_json,
            render_edit(&sent.edit)
        );
        let step = EditStep {
            step: k,
            id,
            frame,
            kind,
            key: sent.key,
            answers: Arc::clone(&sent.answers),
        };
        if kind != EditKind::Repeat {
            self.history.push_back(sent);
            if self.history.len() > REPEAT_WINDOW {
                self.history.pop_front();
            }
        }
        step
    }
}

/// A 64-bit identity of a request's content.
fn content_key(spec_json: &str, edit: Option<&ProblemEdit>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    spec_json.hash(&mut h);
    edit.map(ProblemEdit::describe).hash(&mut h);
    h.finish()
}

/// `units` scaled by a factor in [0.5, 1.5), rounded to whole ticks.
fn scaled(units: f64, rng: &mut Rng) -> f64 {
    let ticks = (units * (0.5 + rng.unit()) * TICKS_PER_UNIT as f64)
        .round()
        .max(1.0);
    ticks / TICKS_PER_UNIT as f64
}

/// A `tweak_exec` (half the time) or `tweak_comm` edit of `p`.
fn tweak(p: &Problem, rng: &mut Rng) -> ProblemEdit {
    let alg = p.alg();
    if rng.unit() < 0.5 || alg.dep_count() == 0 {
        let op = alg
            .ops()
            .nth(rng.below(alg.op_count()))
            .expect("op in range");
        let allowed: Vec<_> = p.exec().allowed_procs(op).collect();
        let proc = allowed[rng.below(allowed.len())];
        let units = p.exec().get(op, proc).expect("allowed pair").as_units();
        ProblemEdit::TweakExec {
            op: alg.op(op).name().to_owned(),
            proc: p.arch().proc(proc).name().to_owned(),
            units: scaled(units, rng),
        }
    } else {
        let dep = alg
            .deps()
            .nth(rng.below(alg.dep_count()))
            .expect("dep in range");
        let (src, dst) = alg.dep_endpoints(dep);
        ProblemEdit::TweakComm {
            src: alg.op(src).name().to_owned(),
            dst: alg.op(dst).name().to_owned(),
            units: scaled(p.comm().avg_units(dep).max(0.001), rng),
        }
    }
}

/// A `forbid_proc` edit of `p` that leaves the operation more than the
/// `Npf + 1` processors its replicas need; a timing tweak when no operation
/// has a processor to spare.
fn forbid(p: &Problem, rng: &mut Rng) -> ProblemEdit {
    let alg = p.alg();
    let need = p.npf() as usize + 1;
    let spare: Vec<_> = alg
        .ops()
        .filter(|&op| p.exec().allowed_procs(op).count() > need)
        .collect();
    if spare.is_empty() {
        return tweak(p, rng);
    }
    let op = spare[rng.below(spare.len())];
    let allowed: Vec<_> = p.exec().allowed_procs(op).collect();
    let proc = allowed[rng.below(allowed.len())];
    ProblemEdit::ForbidProc {
        op: alg.op(op).name().to_owned(),
        proc: p.arch().proc(proc).name().to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_stream_is_a_pure_function_of_the_seed() {
        for i in 0..6 {
            let (_, a) = cold_request(11, i, true);
            let (_, b) = cold_request(11, i, true);
            assert_eq!(schedule_frame(&a), schedule_frame(&b));
        }
        let differs = (0..6).any(|i| {
            schedule_frame(&cold_request(11, i, true).1)
                != schedule_frame(&cold_request(12, i, true).1)
        });
        assert!(differs, "another seed must give another stream");
    }

    #[test]
    fn cold_requests_are_distinct_and_in_range() {
        let mut specs = std::collections::HashSet::new();
        for i in 0..40 {
            let (p, req) = cold_request(3, i, true);
            assert!((20..=50).contains(&p.alg().op_count()));
            assert!((1..=2).contains(&p.npf()));
            assert_eq!(req.include_schedule, i % 2 == 1);
            assert!(
                specs.insert(req.spec),
                "request {i} repeats an earlier spec"
            );
        }
    }

    fn frames(seed: u64, conn: u64, n: usize) -> Vec<String> {
        let mut l = EditLineage::new(seed, conn, true);
        (0..n).map(|_| l.next_step().frame).collect()
    }

    #[test]
    fn edit_stream_is_a_pure_function_of_the_seed() {
        assert_eq!(frames(5, 0, 40), frames(5, 0, 40));
        assert_eq!(frames(5, 1, 40), frames(5, 1, 40));
        assert_ne!(frames(5, 0, 40), frames(6, 0, 40));
        assert_ne!(frames(5, 0, 40), frames(5, 1, 40));
    }

    #[test]
    fn edit_stream_mixes_every_kind_and_every_edit_applies() {
        let mut l = EditLineage::new(9, 0, true);
        let mut seen = std::collections::HashMap::new();
        for _ in 0..400 {
            let s = l.next_step();
            *seen.entry(format!("{:?}", s.kind)).or_insert(0usize) += 1;
        }
        for kind in ["Baseline", "Chained", "WhatIf", "Structural", "Repeat"] {
            assert!(seen.contains_key(kind), "no {kind} step in {seen:?}");
        }
        let chained = seen["Chained"] + seen["Structural"];
        assert!((200..=280).contains(&chained), "{seen:?}");
    }

    #[test]
    fn critical_path_takes_the_fastest_processor() {
        let p = paper_example();
        let cp = critical_path_units(&p);
        let s = ftbar_core::ftbar::schedule(&p).unwrap();
        assert!(cp > 0.0 && cp <= s.makespan().as_units());
    }

    #[test]
    fn suite_has_the_documented_members() {
        let suite = compile_suite(true);
        assert_eq!(suite.len(), 18);
        assert_eq!(suite.iter().filter(|m| m.golden.is_some()).count(), 4);
        for m in suite.iter().filter(|m| m.group == Group::NonFt) {
            assert_eq!(m.problem.npf(), 0);
            assert!(m.twin_of.is_some());
        }
    }
}
