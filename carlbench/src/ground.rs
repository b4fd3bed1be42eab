//! `ground-skewed-8k`: one cold base grounding after another on a warm
//! engine, over a corpus where one venue takes most papers. The join
//! executor, node-table merge, topological order and morsel scheduler do
//! all the work; the post-grounding layers do none.

use crate::compose::{self, Counters};
use crate::stats::{ms, peak_rss_mb};
use crate::trace::{self, Tracer};
use crate::{set_up, Args, Run, Stream};
use carl::{digest_answer, CarlEngine, StreamedModel};
use carl_datagen::{generate_synthetic_review, SyntheticReviewConfig};
use reldb::IndexCache;
use std::time::Instant;

struct Setup {
    engine: CarlEngine,
    /// Node and edge counts every grounding must reproduce.
    shape: (usize, usize),
    query: String,
    /// Digest of `query` from a separate fresh engine.
    reference: String,
}

/// The skewed corpus: power-law venues (exponent 3 gives the hot venue
/// about 84% of papers) over a collaboration-heavy author graph.
fn config(seed: u64) -> SyntheticReviewConfig {
    SyntheticReviewConfig {
        authors: 1_600,
        institutions: 20,
        papers: 8_000,
        venues: 10,
        mean_collaborators: 8.0,
        ..SyntheticReviewConfig::small(seed)
    }
    .with_venue_skew(3.0)
}

fn shape(model: &StreamedModel) -> (usize, usize) {
    (model.graph.node_count(), model.graph.edge_count())
}

fn setup(seed: u64) -> Setup {
    let ds = generate_synthetic_review(&config(seed));
    let query = ds.queries[0].clone();
    let fresh = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("rules bind");
    let reference = digest_answer(&fresh.answer_str(&query));
    drop(fresh);
    let engine = CarlEngine::new(ds.instance, &ds.rules).expect("rules bind");
    // Priming builds the indexes every later grounding probes.
    let shape = shape(&engine.ground_model_streamed().expect("base grounds"));
    Setup {
        engine,
        shape,
        query,
        reference,
    }
}

pub fn run(args: &Args) -> Run {
    let (s, setup_s) = set_up(|| setup(args.seed));
    let mut run = Run {
        workers: rayon::current_num_threads(),
        setup_s,
        ..Run::default()
    };
    let check = |run: &mut Run, grounded: &carl::CarlResult<StreamedModel>| {
        run.attempted += 1;
        if grounded.as_ref().map(shape).ok() != Some(s.shape) {
            run.failed += 1;
        }
    };

    let mut latencies = Vec::new();
    let start = Instant::now();
    let deadline = start + args.window;
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let grounded = s.engine.ground_model_streamed();
        latencies.push(ms(t0.elapsed()));
        check(&mut run, &grounded);
    }
    run.streams.push(Stream {
        op: "ground",
        latencies,
        window_s: start.elapsed().as_secs_f64(),
    });
    run.peak_rss_mb = peak_rss_mb();

    if args.trace {
        trace_window(args, &s, &mut run, &check);
    }

    // One answer on the grounded engine must match the fresh engine's.
    run.attempted += 1;
    if digest_answer(&s.engine.answer_str(&s.query)) != s.reference {
        run.failed += 1;
    }
    run
}

/// Each traced grounding first evaluates the program's conditions alone
/// (the join phase), then grounds; the merge is the difference.
fn trace_window(
    args: &Args,
    s: &Setup,
    run: &mut Run,
    check: &dyn Fn(&mut Run, &carl::CarlResult<StreamedModel>),
) {
    let model = s.engine.model();
    let instance = s.engine.instance();
    let cache = IndexCache::with_fingerprint(s.engine.instance_fingerprint());
    compose::join_rows(model, instance, &cache).expect("conditions evaluate");

    let mut tr = Tracer::new(Instant::now(), "client");
    let mut counters = Counters::default();
    let mut rows = 0u64;
    let window_rayon = rayon::scheduler_stats();
    let window_cache = s.engine.eval_cache_stats();
    let deadline = Instant::now() + args.window;
    let mut ops = 0u64;
    while Instant::now() < deadline {
        let root = tr.open("ground", ops);
        rows += tr
            .leaf("reldb.eval.join", || {
                compose::join_rows(model, instance, &cache)
            })
            .expect("conditions evaluate");
        let (c0, r0) = (s.engine.eval_cache_stats(), rayon::scheduler_stats());
        let grounded = tr.leaf("ground.base", || s.engine.ground_model_streamed());
        counters.add_cache(c0, s.engine.eval_cache_stats());
        counters.add_rayon(&r0, &rayon::scheduler_stats());
        run.traced.push(tr.close(root));
        check(run, &grounded);
        ops += 1;
    }
    let mut window = Counters::default();
    window.add_cache(window_cache, s.engine.eval_cache_stats());
    window.add_rayon(&window_rayon, &rayon::scheduler_stats());

    let times = trace::self_times(&[&tr]);
    run.layer_times(
        &times,
        &[
            ("ground.base", "ground.base_ms"),
            ("reldb.eval.join", "reldb.eval.join_ms"),
        ],
    );
    let per_op = |v: u64| v as f64 / ops as f64;
    let layers = &mut run.layers;
    layers.insert(
        "ground.merge_ms",
        layers["ground.base_ms"] - layers["reldb.eval.join_ms"],
    );
    layers.insert("reldb.eval.rows", per_op(rows));
    layers.insert("reldb.index.builds", per_op(counters.index_builds));
    layers.insert("reldb.index.hits", per_op(counters.index_hits));
    layers.insert("reldb.plan.hit_frac", counters.plan_hit_frac());
    layers.insert("rayon.morsels", per_op(counters.morsels.iter().sum()));
    layers.insert("rayon.steals", per_op(counters.steals.iter().sum()));
    layers.insert("rayon.imbalance", counters.imbalance());
    layers.insert("graph.nodes", s.shape.0 as f64);
    layers.insert("graph.edges", s.shape.1 as f64);
    run.record.push(("traced_ops", ops.to_string()));
    run.record.push(("window_deltas", window.json()));
    run.spans = trace::spans_json(&[&tr]);
}
