//! `serve-mixed-2k`: a snapshot service over 2,000 papers driven
//! in-process through protocol lines by two threads, so the load fits two
//! cores, with the engine's worker pool pinned to 1:
//!
//! - a reader runs a closed loop of `QUERY` lines (the timed op, measured
//!   from send);
//! - a writer sends `COMMIT` lines on a schedule paced by the reader: one
//!   commit comes due each time the reader has finished another
//!   [`READS_PER_COMMIT`] reads. The reader never waits for the writer,
//!   and each commit is measured from the moment it came due, so writer
//!   stalls count. Nine in ten set `Score` cells and patch incrementally;
//!   one in ten inserts a `Writes` tuple and rebuilds cold.
//!
//! Every commit invalidates the query extensions, and after a cold commit
//! the next read re-grounds the base. The history of installs and answers
//! is checked against cold re-computation after the timed window.

use crate::compose::{ratio, Counters};
use crate::stats::{json_str, ms, peak_rss_mb, Summary};
use crate::trace::{self, Tracer};
use crate::{set_up, Args, Run, Stream};
use carl::{
    check_history, digest_answer, handle_request, CarlEngine, CommitStats, HistoryEvent,
    HistoryLog, SnapshotEngine,
};
use carl_datagen::{generate_synthetic_review, SyntheticReviewConfig};
use reldb::{Instance, Mutation, UnitKey, Value};
use std::collections::HashSet;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Reads per commit: three rotations of the five queries, about 20
/// commits per second at the reader's pace. Under a schedule fixed in wall
/// time the reads per epoch follow the reader's speed, and with them the
/// share of reads that ground their query's extension on a new epoch, so
/// a slow stretch of host time would slow the reads once directly and
/// again through the mix. Pacing by reads keeps every epoch's mix the same.
const READS_PER_COMMIT: usize = 15;
/// The fastest reader the schedule and the read log are sized for.
const MAX_READS_PER_S: usize = 2_000;
/// Commits generated per second of window.
const COMMITS_PER_S: usize = MAX_READS_PER_S / READS_PER_COMMIT;
const CELLS_PER_BATCH: usize = 4;
/// Every tenth commit is structural.
const STRUCTURAL_EVERY: usize = 10;
const PAPERS: usize = 2_000;
const AUTHORS: usize = 400;
/// History thread ids: set-up priming and the timed reader.
const PRIMING: usize = 0;
const READER: usize = 1;

struct Commit {
    line: String,
    mutations: Vec<Mutation>,
}

struct Setup {
    svc: SnapshotEngine,
    base: Instance,
    /// Query texts and their `QUERY` lines.
    queries: Vec<(String, String)>,
    commits: Vec<Commit>,
    history: HistoryLog,
}

/// SplitMix64: the commit schedule's deterministic generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `n` commits: score batches, with every tenth structural. Structural
/// commits alternate between inserting a `Writes` tuple the instance does
/// not hold (so it really is structural) and deleting the tuple the one
/// before inserted, so the instance does not grow with the run: with
/// inserts alone, reads in a 3-minute run slowed from 3.8 to 7 ms.
fn schedule(seed: u64, instance: &Instance, n: usize) -> Vec<Commit> {
    let mut rng = SplitMix(seed ^ 0x5eed_c0de);
    let writes: HashSet<UnitKey> = instance
        .skeleton()
        .relationship_tuples("Writes")
        .iter()
        .cloned()
        .collect();
    let mut inserted = None;
    (0..n)
        .map(|k| {
            let mut specs = Vec::new();
            let mut mutations = Vec::new();
            if k % STRUCTURAL_EVERY == STRUCTURAL_EVERY - 1 {
                let tuple = |(a, p): (usize, usize)| {
                    vec![Value::from(format!("a{a}")), Value::from(format!("p{p}"))]
                };
                if let Some((a, p)) = inserted.take() {
                    specs.push(format!("delete Writes a{a} p{p}"));
                    mutations.push(Mutation::DeleteRelationship {
                        rel: "Writes".into(),
                        tuple: tuple((a, p)),
                    });
                } else {
                    let (a, p) = loop {
                        let ap = (rng.below(AUTHORS), rng.below(PAPERS));
                        if !writes.contains(&tuple(ap)) {
                            break ap;
                        }
                    };
                    inserted = Some((a, p));
                    specs.push(format!("insert Writes a{a} p{p}"));
                    mutations.push(Mutation::InsertRelationship {
                        rel: "Writes".into(),
                        tuple: tuple((a, p)),
                    });
                }
            } else {
                for _ in 0..CELLS_PER_BATCH {
                    let p = rng.below(PAPERS);
                    let score = format!(
                        "{:.6}",
                        (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 1.5
                    );
                    specs.push(format!("set Score p{p} {score}"));
                    mutations.push(Mutation::SetAttribute {
                        attr: "Score".into(),
                        key: vec![Value::from(format!("p{p}"))],
                        value: Value::Float(score.parse().expect("formatted float parses")),
                    });
                }
            }
            Commit {
                line: format!("COMMIT {}", specs.join("; ")),
                mutations,
            }
        })
        .collect()
}

fn setup(seed: u64, commits: usize) -> Setup {
    let ds = generate_synthetic_review(&SyntheticReviewConfig {
        authors: AUTHORS,
        institutions: 20,
        papers: PAPERS,
        venues: 10,
        ..SyntheticReviewConfig::small(seed)
    });
    let mut texts = ds.queries.clone();
    texts.push("Score[P] <= Prestige[A]?".to_string());
    let queries = texts
        .into_iter()
        .map(|t| {
            let line = format!("QUERY {t}");
            (t, line)
        })
        .collect::<Vec<_>>();
    let commits = schedule(seed, &ds.instance, commits);
    let base = ds.instance.clone();
    let svc = SnapshotEngine::new(ds.instance, &ds.rules).expect("rules bind");
    let history = HistoryLog::new();
    for (text, line) in &queries {
        let response = handle_request(&svc, line);
        if let Some((epoch, digest)) = parse_query_response(&response) {
            history.push(HistoryEvent::Query {
                thread: PRIMING,
                epoch,
                query: text.clone(),
                digest,
            });
        }
    }
    Setup {
        svc,
        base,
        queries,
        commits,
        history,
    }
}

/// The raw JSON value after `"key":` in a flat response object.
fn field<'a>(response: &'a str, key: &str) -> Option<&'a str> {
    let at = response.find(&format!("\"{key}\":"))? + key.len() + 3;
    Some(&response[at..])
}

fn json_u64(response: &str, key: &str) -> Option<u64> {
    let rest = field(response, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn json_string(response: &str, key: &str) -> Option<String> {
    let mut chars = field(response, key)?.strip_prefix('"')?.chars();
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

/// Epoch and digest of a successful `QUERY` response.
fn parse_query_response(response: &str) -> Option<(u64, String)> {
    if !response.starts_with("{\"ok\":true") {
        return None;
    }
    Some((
        json_u64(response, "epoch")?,
        json_string(response, "digest")?,
    ))
}

/// What one timed window produced.
#[derive(Default)]
struct Window {
    reads: Vec<f64>,
    commits: Vec<f64>,
    /// Per commit: whether it patched (else it rebuilt cold).
    commit_paths: Vec<bool>,
    lateness: Vec<f64>,
    window_s: f64,
    attempted: u64,
    failed: u64,
    /// Traced window only.
    reader: Option<Tracer>,
    writer: Option<Tracer>,
    read_counters: Counters,
    first_reads: u64,
    /// Per read answered: query index, epoch and digest. Kept apart from
    /// the history log, in room reserved up front, so that the peak memory
    /// does not step with the log's reallocations: runs of about 8,000
    /// reads straddled a doubling and their peak differed by 1.3 MB.
    observed: Vec<(usize, u64, String)>,
    delta_cells: u64,
}

/// Run the reader and the writer for `length`; with `traced`, each calls
/// the public functions the protocol bundles, inside spans.
fn window(s: &Setup, commits: &[Commit], length: Duration, traced: bool) -> Window {
    let origin = Instant::now();
    let start = origin;
    let deadline = start + length;
    let mut out = Window::default();
    // The reader sends the moment each commit comes due; the writer ends
    // when the reader has ended and every due commit is sent.
    let (due_tx, due_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            writer(
                s,
                commits,
                due_rx,
                traced.then(|| Tracer::new(origin, "writer")),
            )
        });
        reader(
            s,
            deadline,
            due_tx,
            traced.then(|| Tracer::new(origin, "reader")),
            &mut out,
        );
        let w = writer.join().expect("writer thread panicked");
        out.commits = w.commits;
        out.commit_paths = w.commit_paths;
        out.lateness = w.lateness;
        out.attempted += w.attempted;
        out.failed += w.failed;
        out.writer = w.writer;
        out.delta_cells = w.delta_cells;
    });
    out.window_s = start.elapsed().as_secs_f64();
    out
}

fn reader(
    s: &Setup,
    deadline: Instant,
    due: mpsc::Sender<Instant>,
    mut tr: Option<Tracer>,
    out: &mut Window,
) {
    let length = deadline.saturating_duration_since(Instant::now());
    out.observed
        .reserve(length.as_secs_f64().ceil() as usize * MAX_READS_PER_S);
    let mut last_epoch = u64::MAX;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let (text, line) = &s.queries[i % s.queries.len()];
        let observed = if let Some(tr) = tr.as_mut() {
            let root = tr.open("read", i as u64);
            let snap = tr.leaf("snapshot.acquire", || s.svc.snapshot());
            let first = snap.epoch() != last_epoch;
            last_epoch = snap.epoch();
            out.first_reads += u64::from(first);
            let layer = if first {
                "engine.first_read"
            } else {
                "engine.repeat_read"
            };
            let (c0, r0) = (snap.engine().eval_cache_stats(), rayon::scheduler_stats());
            let result = tr.leaf(layer, || snap.engine().answer_str(text));
            out.read_counters
                .add_cache(c0, snap.engine().eval_cache_stats());
            out.read_counters.add_rayon(&r0, &rayon::scheduler_stats());
            let digest = tr.leaf("history.digest", || digest_answer(&result));
            out.reads.push(tr.close(root));
            result.is_ok().then_some((snap.epoch(), digest))
        } else {
            let t0 = Instant::now();
            let response = handle_request(&s.svc, line);
            out.reads.push(ms(t0.elapsed()));
            parse_query_response(&response)
        };
        out.attempted += 1;
        match observed {
            Some((epoch, digest)) => out.observed.push((i % s.queries.len(), epoch, digest)),
            None => out.failed += 1,
        }
        i += 1;
        if i.is_multiple_of(READS_PER_COMMIT) {
            // The writer is gone once the schedule is used up.
            let _ = due.send(Instant::now());
        }
    }
    out.reader = tr;
}

fn writer(
    s: &Setup,
    commits: &[Commit],
    due: mpsc::Receiver<Instant>,
    mut tr: Option<Tracer>,
) -> Window {
    let mut out = Window::default();
    for (k, (commit, due)) in commits.iter().zip(due).enumerate() {
        // The epoch this commit starts from, kept for the traced replay.
        let prev = tr.is_some().then(|| s.svc.snapshot());
        let stats0 = s.svc.commit_stats();
        let sent = Instant::now();
        let response = match tr.as_mut() {
            Some(tr) => {
                let root = tr.open("service.commit", k as u64);
                let response = handle_request(&s.svc, &commit.line);
                tr.close(root);
                response
            }
            None => handle_request(&s.svc, &commit.line),
        };
        let done = Instant::now();
        let patched = s.svc.commit_stats().incremental > stats0.incremental;
        out.lateness.push(ms(sent - due));
        out.commits.push(ms(done - due));
        out.commit_paths.push(patched);
        out.attempted += 1;
        let snap = s.svc.snapshot();
        let installed = response.starts_with("{\"ok\":true")
            && json_u64(&response, "epoch") == Some(snap.epoch())
            && json_string(&response, "fingerprint")
                == Some(format!("{:016x}", snap.fingerprint()));
        if installed {
            s.history.record_install(&snap, &commit.mutations);
        } else {
            out.failed += 1;
        }
        if let (Some(tr), Some(prev)) = (tr.as_mut(), prev) {
            let root = tr.open("commit.replay", k as u64);
            let ok = replay(
                tr,
                s,
                &prev,
                commit,
                patched,
                snap.fingerprint(),
                &mut out.delta_cells,
            );
            tr.close(root);
            if !ok {
                out.failed += 1;
            }
        }
    }
    out.writer = tr;
    out
}

/// Rebuild one commit from the functions `SnapshotEngine::commit` is made
/// of — apply, screen, then patch or cold build — on the epoch it started
/// from. It must take the same path and yield the installed fingerprint.
fn replay(
    tr: &mut Tracer,
    s: &Setup,
    prev: &carl::EngineSnapshot,
    commit: &Commit,
    patched: bool,
    fingerprint: u64,
    delta_cells: &mut u64,
) -> bool {
    let applied = tr.leaf("instance.apply", || {
        prev.instance().apply_with_delta(&commit.mutations)
    });
    let Ok((instance, delta)) = applied else {
        return false;
    };
    *delta_cells += delta.changed_cells().len() as u64;
    let patch = tr.leaf("engine.screen", || prev.engine().can_patch(&delta));
    let engine = if patch {
        tr.leaf("engine.patch", || {
            prev.engine().patched_next(instance, &delta)
        })
    } else {
        tr.leaf("engine.cold_build", || {
            CarlEngine::with_program(instance, s.svc.program().clone())
        })
    };
    patch == patched && engine.is_ok_and(|e| e.instance_fingerprint() == fingerprint)
}

/// Append a window's answered reads to the history log.
fn log_reads(s: &Setup, observed: &[(usize, u64, String)]) {
    for (q, epoch, digest) in observed {
        s.history.push(HistoryEvent::Query {
            thread: READER,
            epoch: *epoch,
            query: s.queries[*q].0.clone(),
            digest: digest.clone(),
        });
    }
}

fn stats_delta(before: CommitStats, after: CommitStats) -> (u64, u64) {
    (
        after.incremental - before.incremental,
        after.cold - before.cold,
    )
}

pub fn run(args: &Args) -> Run {
    rayon::set_num_threads(1);
    let per_window = args.window.as_secs() as usize * COMMITS_PER_S;
    let windows = if args.trace { 2 } else { 1 };
    let (s, setup_s) = set_up(|| setup(args.seed, per_window * windows));
    let mut run = Run {
        workers: rayon::current_num_threads(),
        setup_s,
        ..Run::default()
    };

    let stats0 = s.svc.commit_stats();
    let w = window(&s, &s.commits[..per_window], args.window, false);
    let (patched, cold) = stats_delta(stats0, s.svc.commit_stats());
    run.peak_rss_mb = peak_rss_mb();
    log_reads(&s, &w.observed);
    run.attempted += w.attempted;
    run.failed += w.failed;
    run.record
        .push(("writer_lateness", Summary::of(&w.lateness).json()));
    let by_path = |want: bool| {
        let l: Vec<f64> = w
            .commits
            .iter()
            .zip(&w.commit_paths)
            .filter(|(_, &p)| p == want)
            .map(|(&l, _)| l)
            .collect();
        Summary::of(&l).json()
    };
    run.record.push((
        "commit_paths",
        format!(
            "{{\"patched\": {patched}, \"cold\": {cold}, \"patched_latency\": {}, \"cold_latency\": {}}}",
            by_path(true),
            by_path(false)
        ),
    ));
    run.streams = vec![
        Stream {
            op: "query",
            latencies: w.reads,
            window_s: w.window_s,
        },
        Stream {
            op: "commit",
            latencies: w.commits,
            window_s: w.window_s,
        },
    ];

    if args.trace {
        trace_window(args, &s, &mut run, &s.commits[per_window..]);
    }

    // Untimed: every install must replay to its fingerprint, and every
    // answer must equal a cold re-computation on its epoch.
    let violations = check_history(&s.base, s.svc.program(), &s.history.events())
        .expect("the program binds to every replayed epoch");
    run.failed += violations.len() as u64;
    run.record
        .push(("history_events", s.history.len().to_string()));
    run.record.push((
        "history_violations",
        format!(
            "[{}]",
            violations
                .iter()
                .take(5)
                .map(|v| json_str(&v.to_string()))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    run
}

fn trace_window(args: &Args, s: &Setup, run: &mut Run, commits: &[Commit]) {
    let epoch0 = CarlEngine::with_program(s.base.clone(), s.svc.program().clone())
        .and_then(|e| e.ground_model_streamed())
        .expect("epoch 0 grounds");
    let rayon0 = rayon::scheduler_stats();
    let stats0 = s.svc.commit_stats();
    let w = window(s, commits, args.window, true);
    log_reads(s, &w.observed);
    let (patched, cold) = stats_delta(stats0, s.svc.commit_stats());
    let mut window_rayon = Counters::default();
    window_rayon.add_rayon(&rayon0, &rayon::scheduler_stats());
    run.attempted += w.attempted;
    run.failed += w.failed;
    run.traced = w.reads.clone();

    let reader = w.reader.as_ref().expect("traced reader");
    let writer = w.writer.as_ref().expect("traced writer");
    let times = trace::self_times(&[reader, writer]);
    run.layer_times(
        &times,
        &[
            ("snapshot.acquire", "snapshot.acquire_us"),
            ("engine.first_read", "engine.first_read_ms"),
            ("engine.repeat_read", "engine.repeat_read_ms"),
            ("history.digest", "history.digest_us"),
            ("instance.apply", "instance.apply_ms"),
            ("engine.screen", "engine.screen_us"),
            ("engine.patch", "engine.patch_ms"),
            ("engine.cold_build", "engine.cold_build_ms"),
        ],
    );
    let reads = w.reads.len() as u64;
    let c = &w.read_counters;
    let per_read = |v: u64| ratio(v, reads);
    let layers = &mut run.layers;
    layers.insert("engine.first_read_frac", ratio(w.first_reads, reads));
    layers.insert(
        "instance.delta_cells",
        ratio(w.delta_cells, w.commits.len() as u64),
    );
    layers.insert("snapshot.patched_frac", ratio(patched, patched + cold));
    layers.insert("reldb.index.builds", per_read(c.index_builds));
    layers.insert("reldb.index.hits", per_read(c.index_hits));
    layers.insert("reldb.plan.hit_frac", c.plan_hit_frac());
    layers.insert("rayon.morsels", per_read(c.morsels.iter().sum()));
    layers.insert("rayon.steals", per_read(c.steals.iter().sum()));
    layers.insert("rayon.imbalance", c.imbalance());
    layers.insert("graph.nodes", epoch0.graph.node_count() as f64);
    layers.insert("graph.edges", epoch0.graph.edge_count() as f64);
    run.record
        .push(("traced_writer_lateness", Summary::of(&w.lateness).json()));
    run.record.push((
        "window_deltas",
        format!(
            "{{\"commits_patched\": {patched}, \"commits_cold\": {cold}, \"rayon\": {}, \"reads\": {}}}",
            window_rayon.json(),
            c.json()
        ),
    ));
    run.spans = trace::spans_json(&[reader, writer]);
}
