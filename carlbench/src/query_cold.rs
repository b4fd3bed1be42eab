//! `query-cold-8k`: one client in a closed loop answering causal queries
//! on a warm engine, each query's own grounding cold (`prepare_cold`).
//! Nearly all the work is in the query-specific layers; base grounding
//! and the commit path do none.
//!
//! The engine's worker pool is pinned to 1. On the shared 2-core host the
//! benchmark was written on, 2 workers made these queries slower (p50
//! 23 ms against 18 ms over a 4-minute run) and their p95 about twice as
//! variable between 30-second stretches of that run.

use crate::compose::{self, Counters, QueryCounts};
use crate::stats::{json_str, median, ms, peak_rss_mb};
use crate::trace::{self, Tracer};
use crate::{set_up, Args, Run, Stream};
use carl::carl_lang::parse_query;
use carl::{digest_answer, CarlEngine, CarlError, CarlResult, QueryAnswer};
use carl_datagen::{generate_synthetic_review, SyntheticReviewConfig};
use reldb::IndexCache;
use std::collections::HashMap;
use std::time::Instant;

/// The three peer regimes of the unfiltered query, rotated after the
/// dataset's four paper queries.
const EXTRA_QUERIES: [&str; 3] = [
    "Score[P] <= Prestige[A]?",
    "Score[P] <= Prestige[A]? WHEN ALL PEERS TREATED",
    "Score[P] <= Prestige[A]? WHEN NONE PEERS TREATED",
];

struct Setup {
    engine: CarlEngine,
    texts: Vec<String>,
    /// Digest of every query text from a separate fresh engine.
    reference: HashMap<String, String>,
}

fn config(seed: u64) -> SyntheticReviewConfig {
    SyntheticReviewConfig {
        authors: 1_600,
        institutions: 20,
        papers: 8_000,
        venues: 10,
        ..SyntheticReviewConfig::small(seed)
    }
}

/// The timed operation: parse, prepare with cold query grounding, estimate.
fn answer(engine: &CarlEngine, text: &str) -> CarlResult<QueryAnswer> {
    let query = parse_query(text).map_err(CarlError::from)?;
    let prepared = engine.prepare_cold(&query)?;
    engine.answer_prepared(&prepared)
}

fn setup(seed: u64) -> Setup {
    let ds = generate_synthetic_review(&config(seed));
    let mut texts = ds.queries.clone();
    texts.extend(EXTRA_QUERIES.iter().map(|q| q.to_string()));
    let fresh = CarlEngine::new(ds.instance.clone(), &ds.rules).expect("rules bind");
    let reference = texts
        .iter()
        .map(|t| (t.clone(), digest_answer(&fresh.answer_str(t))))
        .collect();
    drop(fresh);
    let engine = CarlEngine::new(ds.instance, &ds.rules).expect("rules bind");
    // Prime the base grounding and the indexes: one answer per query text.
    for text in &texts {
        let _ = answer(&engine, text);
    }
    Setup {
        engine,
        texts,
        reference,
    }
}

pub fn run(args: &Args) -> Run {
    rayon::set_num_threads(1);
    let (s, setup_s) = set_up(|| setup(args.seed));
    let mut run = Run {
        workers: rayon::current_num_threads(),
        setup_s,
        ..Run::default()
    };
    let check = |run: &mut Run, text: &str, result: &CarlResult<QueryAnswer>| {
        run.attempted += 1;
        if result.is_err() || digest_answer(result) != s.reference[text] {
            run.failed += 1;
        }
    };

    let mut latencies = Vec::new();
    let mut by_text = vec![Vec::new(); s.texts.len()];
    let start = Instant::now();
    let deadline = start + args.window;
    let mut i = 0;
    while Instant::now() < deadline {
        let text = &s.texts[i % s.texts.len()];
        let t0 = Instant::now();
        let result = answer(&s.engine, text);
        let latency = ms(t0.elapsed());
        latencies.push(latency);
        by_text[i % s.texts.len()].push(latency);
        check(&mut run, text, &result);
        i += 1;
    }
    run.record.push((
        "query_p50_ms_by_text",
        format!(
            "{{{}}}",
            s.texts
                .iter()
                .zip(&by_text)
                .map(|(t, l)| format!("{}: {}", json_str(t), median(l)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    run.streams.push(Stream {
        op: "query",
        latencies,
        window_s: start.elapsed().as_secs_f64(),
    });
    run.peak_rss_mb = peak_rss_mb();
    if !args.trace {
        return run;
    }

    // Traced window: the composed path over the benchmark's own copy of
    // the base grounding and a cache warmed by one pass over the mix.
    let base = s.engine.ground_model_streamed().expect("base grounds");
    let cache = IndexCache::with_fingerprint(s.engine.instance_fingerprint());
    let mut counts = QueryCounts::default();
    let mut warm = Tracer::new(Instant::now(), "warm");
    for text in &s.texts {
        let result =
            compose::answer_composed(&mut warm, &s.engine, &base, &cache, text, &mut counts);
        check(&mut run, text, &result);
    }
    let mut counts = QueryCounts::default();
    let mut counters = Counters::default();
    let mut tr = Tracer::new(Instant::now(), "client");
    let window_rayon = rayon::scheduler_stats();
    let window_cache = (cache.stats(), cache.plan_stats());
    let deadline = Instant::now() + args.window;
    let mut ops = 0u64;
    while Instant::now() < deadline {
        let text = &s.texts[ops as usize % s.texts.len()];
        let (c0, r0) = (
            (cache.stats(), cache.plan_stats()),
            rayon::scheduler_stats(),
        );
        let root = tr.open("query", ops);
        let result = compose::answer_composed(&mut tr, &s.engine, &base, &cache, text, &mut counts);
        run.traced.push(tr.close(root));
        counters.add_cache(c0, (cache.stats(), cache.plan_stats()));
        counters.add_rayon(&r0, &rayon::scheduler_stats());
        check(&mut run, text, &result);
        ops += 1;
    }
    let mut window = Counters::default();
    window.add_cache(window_cache, (cache.stats(), cache.plan_stats()));
    window.add_rayon(&window_rayon, &rayon::scheduler_stats());

    let times = trace::self_times(&[&tr]);
    run.layer_times(
        &times,
        &[
            ("carl_lang.parse", "carl_lang.parse_us"),
            ("paths.unify", "paths.unify_us"),
            ("model.bind", "model.bind_ms"),
            ("ground.extension", "ground.extension_ms"),
            ("peers.compute", "peers.compute_ms"),
            ("adjust.covariates", "adjust.covariates_ms"),
            ("unit_table.build", "unit_table.build_ms"),
            ("query.estimate", "query.estimate_ms"),
        ],
    );
    let per_op = |v: u64| v as f64 / ops as f64;
    let layers = &mut run.layers;
    layers.insert("peers.entries", per_op(counts.peer_entries));
    layers.insert("adjust.columns", per_op(counts.adjust_columns));
    layers.insert("unit_table.cells", per_op(counts.unit_cells));
    layers.insert("reldb.index.builds", per_op(counters.index_builds));
    layers.insert("reldb.index.hits", per_op(counters.index_hits));
    layers.insert("reldb.plan.hit_frac", counters.plan_hit_frac());
    layers.insert("rayon.morsels", per_op(counters.morsels.iter().sum()));
    layers.insert("rayon.steals", per_op(counters.steals.iter().sum()));
    layers.insert("rayon.imbalance", counters.imbalance());
    layers.insert("graph.nodes", base.graph.node_count() as f64);
    layers.insert("graph.edges", base.graph.edge_count() as f64);
    run.record.push(("traced_ops", ops.to_string()));
    run.record
        .push(("bundled_prepares", counts.bundled.to_string()));
    run.record.push(("window_deltas", window.json()));
    run.spans = trace::spans_json(&[&tr]);
    run
}
