//! The traced run's view of the bundled calls. `CarlEngine::prepare_cold`
//! is rebuilt here from the public functions it is made of, with a span
//! around each; the result must digest bit for bit like the bundled call.

use crate::trace::Tracer;
use carl::adjust::covariates;
use carl::carl_lang::{parse_query, ArgTerm, CausalQuery};
use carl::graph::NodeId;
use carl::paths::unify;
use carl::peers::{compute_peers, compute_peers_streamed, PeerMap};
use carl::unit_table::{build_unit_table, UnitTableSpec};
use carl::{
    AggregateExtension, CarlEngine, CarlError, CarlResult, CausalGraph, EmbeddingKind,
    GroundedAttr, GroundedValues, PreparedQuery, QueryAnswer, RelationalCausalModel, StreamedModel,
};
use reldb::{IndexCache, IndexCacheStats, Instance, PlanCacheStats, UnitKey};

/// The engine's base grounding with one query's aggregate extension on
/// top, read as the engine reads it (extension values first).
struct Extended<'a> {
    base: &'a StreamedModel,
    ext: &'a AggregateExtension,
}

impl GroundedValues for Extended<'_> {
    fn graph(&self) -> &CausalGraph {
        &self.base.graph
    }

    fn value_of(&self, instance: &Instance, node: &GroundedAttr) -> Option<f64> {
        self.ext
            .value_of(instance, node)
            .or_else(|| self.base.value_of(instance, node))
    }

    fn node_of(&self, attr: &str, key: &UnitKey) -> Option<NodeId> {
        self.base.node_of(attr, key)
    }
}

/// Per-query counts the composed path observes.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryCounts {
    pub peer_entries: u64,
    pub adjust_columns: u64,
    pub unit_cells: u64,
    /// Queries whose `WHERE` clause restricts the treated units: the
    /// engine computes that restriction privately, so these run through
    /// the bundled `prepare_cold` as one span.
    pub bundled: u64,
}

/// Whether the engine would restrict the treated units from the query's
/// `WHERE` clause (mirrors the conditions under which it does).
fn restricts_treated_units(query: &CausalQuery) -> bool {
    if query.condition.is_trivial() {
        return false;
    }
    let Some(ArgTerm::Var(tvar)) = query.treatment.args.first() else {
        return false;
    };
    query.condition.variables().contains(tvar)
}

/// Parse, unify, bind, ground the extension, find peers and covariates,
/// build the unit table and estimate — each in its own span.
pub fn answer_composed(
    tr: &mut Tracer,
    engine: &CarlEngine,
    base: &StreamedModel,
    cache: &IndexCache,
    text: &str,
    counts: &mut QueryCounts,
) -> CarlResult<QueryAnswer> {
    let query = tr.leaf("carl_lang.parse", || parse_query(text))?;
    let plan = tr.leaf("paths.unify", || unify(engine.model(), &query))?;
    if !plan.condition_folded && restricts_treated_units(&query) {
        counts.bundled += 1;
        let prepared = tr.leaf("query.prepare_bundled", || engine.prepare_cold(&query))?;
        return tr.leaf("query.estimate", || engine.answer_prepared(&prepared));
    }
    let instance = engine.instance();
    let treatment_attr = query.treatment.attr.clone();
    let response_attr = plan.response_attr.clone();
    let prepared = match &plan.synthesized {
        Some(rule) => {
            let model = tr.leaf("model.bind", || {
                let mut program = engine.model().program().clone();
                program.aggregates.push(rule.clone());
                RelationalCausalModel::new(instance.schema().clone(), program)
            })?;
            let ext = tr.leaf("ground.extension", || {
                carl::ground_aggregate_extension(base, &model, rule, instance, cache)
            })?;
            let units = units_of(instance, &plan.unit_predicate)?;
            let peers = tr.leaf("peers.compute", || {
                compute_peers_streamed(base, &ext, &treatment_attr, &units, instance)
            });
            let grounded = Extended { base, ext: &ext };
            let unit = Unit {
                units: &units,
                peers,
                response_attr,
            };
            finish(tr, engine, &model, &grounded, unit, &query, counts)?
        }
        None => {
            let units = units_of(instance, &plan.unit_predicate)?;
            let peers = tr.leaf("peers.compute", || {
                compute_peers(base, &treatment_attr, &response_attr, &units)
            });
            let unit = Unit {
                units: &units,
                peers,
                response_attr,
            };
            finish(tr, engine, engine.model(), base, unit, &query, counts)?
        }
    };
    tr.leaf("query.estimate", || engine.answer_prepared(&prepared))
}

fn units_of(instance: &Instance, predicate: &str) -> CarlResult<Vec<UnitKey>> {
    instance
        .skeleton()
        .units_of(instance.schema(), predicate)
        .map_err(CarlError::Rel)
}

/// The units of analysis with their peers and (unified) response.
struct Unit<'a> {
    units: &'a [UnitKey],
    peers: PeerMap,
    response_attr: String,
}

/// Covariates, unit table and the prepared query, over either grounding.
fn finish<G: GroundedValues>(
    tr: &mut Tracer,
    engine: &CarlEngine,
    model: &RelationalCausalModel,
    grounded: &G,
    unit: Unit<'_>,
    query: &CausalQuery,
    counts: &mut QueryCounts,
) -> CarlResult<PreparedQuery> {
    let Unit {
        units,
        peers,
        response_attr,
    } = unit;
    let treatment_attr = query.treatment.attr.as_str();
    let instance = engine.instance();
    let adjustment = tr.leaf("adjust.covariates", || {
        covariates(model, grounded, instance, treatment_attr, units, &peers)
    });
    let embedding = match engine.embedding() {
        EmbeddingKind::Padding(0) => {
            EmbeddingKind::Padding(peers.values().map(Vec::len).max().unwrap_or(0).max(1))
        }
        other => other,
    };
    let unit_table = tr.leaf("unit_table.build", || {
        build_unit_table(&UnitTableSpec {
            grounded,
            instance,
            treatment_attr,
            response_attr: &response_attr,
            units,
            peers: &peers,
            adjustment: &adjustment,
            embedding,
            allowed_units: None,
        })
    })?;
    counts.peer_entries += peers.values().map(|p| p.len() as u64).sum::<u64>();
    counts.adjust_columns +=
        (adjustment.own_attributes.len() + adjustment.peer_attributes.len()) as u64;
    counts.unit_cells += (unit_table.len() * unit_table.column_names().len()) as u64;
    Ok(PreparedQuery {
        unit_table,
        peers,
        adjustment,
        treatment_attr: treatment_attr.to_string(),
        response_attr,
        peer_condition: query.peers,
    })
}

/// Evaluate every live rule and aggregate condition of `model` the way
/// grounding compiles them, counting the joined rows and discarding them:
/// the join phase of a base grounding, without the merge.
pub fn join_rows(
    model: &RelationalCausalModel,
    instance: &Instance,
    cache: &IndexCache,
) -> CarlResult<u64> {
    let mut conditions = Vec::new();
    let pruning = carl::analysis_pruning();
    for (i, rule) in model.rules().iter().enumerate() {
        if !(pruning && model.rule_is_dead(i)) {
            conditions.push((&rule.head.attr, &rule.head.args, &rule.condition));
        }
    }
    for (i, agg) in model.aggregates().iter().enumerate() {
        if !(pruning && model.aggregate_is_dead(i)) {
            conditions.push((&agg.source.attr, &agg.source.args, &agg.condition));
        }
    }
    let mut rows = 0u64;
    for (attr, args, condition) in conditions {
        let atom = model.implicit_atom(attr, args)?;
        let (query, comparisons) = model.condition_to_query(condition, Some(vec![atom]));
        let (filters, _residual) = carl::ground::partition_comparisons(comparisons);
        reldb::evaluate_tuples_filtered_chunked(
            cache,
            model.schema(),
            instance,
            &query,
            &filters,
            &mut |batch| {
                rows += batch.len() as u64;
                Ok(())
            },
        )?;
    }
    Ok(rows)
}

/// Counters read from outside, before and after a call, and summed.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub index_builds: u64,
    pub index_hits: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub morsels: Vec<u64>,
    pub steals: Vec<u64>,
}

pub type CacheStats = (IndexCacheStats, PlanCacheStats);

impl Counters {
    pub fn add_cache(&mut self, before: CacheStats, after: CacheStats) {
        let d = |a: usize, b: usize| b.saturating_sub(a) as u64;
        self.index_builds += d(before.0.builds, after.0.builds);
        self.index_hits += d(before.0.hits, after.0.hits);
        self.plan_hits += d(before.1.hits, after.1.hits);
        self.plan_misses += d(before.1.misses, after.1.misses);
    }

    pub fn add_rayon(&mut self, before: &rayon::SchedulerStats, after: &rayon::SchedulerStats) {
        fn add(acc: &mut Vec<u64>, before: &[u64], after: &[u64]) {
            if acc.len() < after.len() {
                acc.resize(after.len(), 0);
            }
            for (i, a) in after.iter().enumerate() {
                acc[i] += a - before.get(i).copied().unwrap_or(0);
            }
        }
        add(
            &mut self.morsels,
            &before.morsels_per_worker,
            &after.morsels_per_worker,
        );
        add(
            &mut self.steals,
            &before.steals_per_worker,
            &after.steals_per_worker,
        );
    }

    pub fn plan_hit_frac(&self) -> f64 {
        ratio(self.plan_hits, self.plan_hits + self.plan_misses)
    }

    /// Max ÷ mean morsels per worker (1.0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.morsels.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.morsels.len() as f64;
        *self.morsels.iter().max().expect("non-empty") as f64 / mean
    }

    pub fn json(&self) -> String {
        let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        format!(
            "{{\"index_builds\": {}, \"index_hits\": {}, \"plan_hits\": {}, \"plan_misses\": {}, \
             \"morsels_per_worker\": [{}], \"steals_per_worker\": [{}]}}",
            self.index_builds,
            self.index_hits,
            self.plan_hits,
            self.plan_misses,
            list(&self.morsels),
            list(&self.steals)
        )
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
