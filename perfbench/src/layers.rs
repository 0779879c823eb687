//! The metric catalogue and the traced pass.
//!
//! End-to-end metrics come from the untraced run. The traced pass repeats
//! each phase once with `valentine_obs` recording on and reads only what
//! the program already emits through its public API — the runner's
//! `ExperimentRecord::phases`, each search's `SearchStats`, the server's
//! shutdown `Snapshot` and request log — plus timings of public calls
//! made from this file. Per-layer names are the obs span names with `/`
//! turned into `.`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use valentine_core::index::{v2, verify, Index, IndexConfig, LoadedIndex, DEFAULT_SHARDS};
use valentine_core::matchers::MatcherKind;
use valentine_core::obs::json::Json;
use valentine_core::obs::jsonl;
use valentine_core::ExperimentRecord;

use crate::lake::{self, LakeOutcome};
use crate::out::Report;
use crate::serve::{self, Kind};
use crate::stats::summarize;
use crate::{grid, Inputs, LAKE};

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric, in report order.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("grid.schema_s", "s", "lower", 0.25),
    e2e("grid.instance_s", "s", "lower", 0.25),
    e2e("grid.hybrid_s", "s", "lower", 0.25),
    e2e("grid.recall_at_gt", "ratio", "higher", 0.05),
    e2e("lake.first_query_ms", "ms", "lower", 0.25),
    e2e("lake.query_p50_ms", "ms", "lower", 0.25),
    e2e("lake.rss_mb", "MB", "lower", 0.25),
    e2e("lake.precision_at_k", "ratio", "higher", 0.1),
    e2e("serve.max_qps", "1/s", "higher", 0.25),
];

/// A per-layer metric and the end-to-end metric(s) it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// Metric slug of each method, in `MatcherKind::ALL` order.
const SLUGS: [(MatcherKind, &str); 9] = [
    (MatcherKind::Cupid, "cupid"),
    (MatcherKind::SimilarityFlooding, "sf"),
    (MatcherKind::ComaSchema, "coma_schema"),
    (MatcherKind::ComaInstance, "coma_instance"),
    (MatcherKind::DistributionDist1, "dist1"),
    (MatcherKind::DistributionDist2, "dist2"),
    (MatcherKind::SemProp, "semprop"),
    (MatcherKind::EmbDI, "embdi"),
    (MatcherKind::JaccardLevenshtein, "jl"),
];

/// Every per-layer metric, in report order.
pub const PER_LAYER: &[Layer] = &[
    layer(
        "core.runner.idle_share",
        "ratio",
        "lower",
        "grid.schema_s grid.instance_s grid.hybrid_s",
    ),
    layer(
        "core.runner.records",
        "count",
        "higher",
        "grid.schema_s grid.instance_s grid.hybrid_s",
    ),
    layer("core.runner.failed", "count", "lower", "grid.recall_at_gt"),
    layer("matchers.cupid.busy_s", "s", "lower", "grid.schema_s"),
    layer("matchers.cupid.similarity_s", "s", "lower", "grid.schema_s"),
    layer("matchers.cupid.solve_s", "s", "lower", "grid.schema_s"),
    layer("matchers.cupid.rank_s", "s", "lower", "grid.schema_s"),
    layer("matchers.sf.busy_s", "s", "lower", "grid.schema_s"),
    layer("matchers.sf.similarity_s", "s", "lower", "grid.schema_s"),
    layer("matchers.sf.solve_s", "s", "lower", "grid.schema_s"),
    layer("matchers.sf.rank_s", "s", "lower", "grid.schema_s"),
    layer("matchers.coma_schema.busy_s", "s", "lower", "grid.schema_s"),
    layer(
        "matchers.coma_schema.profile_s",
        "s",
        "lower",
        "grid.schema_s",
    ),
    layer(
        "matchers.coma_schema.similarity_s",
        "s",
        "lower",
        "grid.schema_s",
    ),
    layer("matchers.coma_schema.rank_s", "s", "lower", "grid.schema_s"),
    layer(
        "matchers.coma_instance.busy_s",
        "s",
        "lower",
        "grid.instance_s",
    ),
    layer(
        "matchers.coma_instance.profile_s",
        "s",
        "lower",
        "grid.instance_s",
    ),
    layer(
        "matchers.coma_instance.similarity_s",
        "s",
        "lower",
        "grid.instance_s",
    ),
    layer(
        "matchers.coma_instance.rank_s",
        "s",
        "lower",
        "grid.instance_s",
    ),
    layer("matchers.dist1.busy_s", "s", "lower", "grid.instance_s"),
    layer("matchers.dist1.profile_s", "s", "lower", "grid.instance_s"),
    layer(
        "matchers.dist1.similarity_s",
        "s",
        "lower",
        "grid.instance_s",
    ),
    layer("matchers.dist1.solve_s", "s", "lower", "grid.instance_s"),
    layer("matchers.dist1.rank_s", "s", "lower", "grid.instance_s"),
    layer("matchers.dist2.busy_s", "s", "lower", "grid.instance_s"),
    layer("matchers.dist2.profile_s", "s", "lower", "grid.instance_s"),
    layer(
        "matchers.dist2.similarity_s",
        "s",
        "lower",
        "grid.instance_s",
    ),
    layer("matchers.dist2.solve_s", "s", "lower", "grid.instance_s"),
    layer("matchers.dist2.rank_s", "s", "lower", "grid.instance_s"),
    layer("matchers.jl.busy_s", "s", "lower", "grid.instance_s"),
    layer("matchers.jl.profile_s", "s", "lower", "grid.instance_s"),
    layer("matchers.jl.similarity_s", "s", "lower", "grid.instance_s"),
    layer("matchers.jl.rank_s", "s", "lower", "grid.instance_s"),
    layer("matchers.semprop.busy_s", "s", "lower", "grid.hybrid_s"),
    layer("matchers.semprop.profile_s", "s", "lower", "grid.hybrid_s"),
    layer(
        "matchers.semprop.similarity_s",
        "s",
        "lower",
        "grid.hybrid_s",
    ),
    layer("matchers.semprop.rank_s", "s", "lower", "grid.hybrid_s"),
    layer("matchers.embdi.busy_s", "s", "lower", "grid.hybrid_s"),
    layer("matchers.embdi.profile_s", "s", "lower", "grid.hybrid_s"),
    layer("matchers.embdi.similarity_s", "s", "lower", "grid.hybrid_s"),
    layer("matchers.embdi.rank_s", "s", "lower", "grid.hybrid_s"),
    layer("matchers.embdi.graph_s", "s", "lower", "grid.hybrid_s"),
    layer("matchers.embdi.walks_s", "s", "lower", "grid.hybrid_s"),
    layer("matchers.embdi.train_s", "s", "lower", "grid.hybrid_s"),
    layer(
        "table.csv_parse_s",
        "s",
        "lower",
        "lake.build_s lake.open_s serve.p99_ms",
    ),
    layer("index.profile_s", "s", "lower", "lake.build_s"),
    layer("index.write_s", "s", "lower", "lake.build_s"),
    layer("index.write_amp", "ratio", "lower", "lake.build_s"),
    layer("lake.build_s", "s", "lower", "none"),
    layer("lake.compact_s", "s", "lower", "none"),
    layer("lake.open_s", "s", "lower", "none"),
    layer("lake.query_p99_ms", "ms", "lower", "none"),
    layer(
        "index.compact_rewritten_mb",
        "MB",
        "lower",
        "lake.compact_s",
    ),
    layer("index.load_s", "s", "lower", "lake.open_s lake.rss_mb"),
    layer(
        "index.map_segments_s",
        "s",
        "lower",
        "lake.open_s lake.rss_mb",
    ),
    layer("index.verify_s", "s", "lower", "lake.open_s lake.rss_mb"),
    layer(
        "index.lsh_ms",
        "ms",
        "lower",
        "lake.query_p50_ms lake.first_query_ms",
    ),
    layer(
        "index.lsh_candidates",
        "count",
        "lower",
        "lake.query_p50_ms lake.first_query_ms",
    ),
    layer(
        "index.lsh_useful_ratio",
        "ratio",
        "higher",
        "lake.query_p50_ms lake.precision_at_k",
    ),
    layer(
        "index.rerank_ms",
        "ms",
        "lower",
        "lake.query_p99_ms serve.p99_ms",
    ),
    layer(
        "index.joinable_ms",
        "ms",
        "lower",
        "lake.query_p99_ms serve.p99_ms",
    ),
    layer(
        "index.matcher_calls",
        "count",
        "lower",
        "lake.query_p99_ms serve.p99_ms",
    ),
    layer(
        "index.matcher_errors",
        "count",
        "lower",
        "lake.query_p99_ms serve.p99_ms",
    ),
    layer(
        "index.matcher_skips",
        "count",
        "lower",
        "lake.query_p99_ms serve.p99_ms",
    ),
    layer("serve.p50_ms", "ms", "lower", "serve.max_qps"),
    layer("serve.p99_ms", "ms", "lower", "serve.max_qps"),
    layer(
        "serve.hit_ratio",
        "ratio",
        "higher",
        "serve.p50_ms serve.max_qps",
    ),
    layer(
        "serve.hit_ms.p50",
        "ms",
        "lower",
        "serve.p50_ms serve.max_qps",
    ),
    layer(
        "serve.hit_ms.p99",
        "ms",
        "lower",
        "serve.p50_ms serve.max_qps",
    ),
    layer(
        "serve.connect_ms.p50",
        "ms",
        "lower",
        "serve.p50_ms serve.max_qps",
    ),
    layer(
        "serve.cache_evictions",
        "count",
        "lower",
        "serve.p50_ms serve.max_qps",
    ),
    layer(
        "serve.miss_ms.p50",
        "ms",
        "lower",
        "serve.p99_ms serve.max_qps",
    ),
    layer(
        "serve.miss_ms.p99",
        "ms",
        "lower",
        "serve.p99_ms serve.max_qps",
    ),
    layer(
        "serve.upload_ms.p50",
        "ms",
        "lower",
        "serve.p99_ms serve.max_qps",
    ),
    layer(
        "serve.queue_wait_ms.p50",
        "ms",
        "lower",
        "serve.p99_ms serve.max_qps",
    ),
    layer(
        "serve.queue_wait_ms.p99",
        "ms",
        "lower",
        "serve.p99_ms serve.max_qps",
    ),
    layer(
        "serve.search_ms.p50",
        "ms",
        "lower",
        "serve.p99_ms serve.max_qps",
    ),
    layer(
        "serve.search_ms.p99",
        "ms",
        "lower",
        "serve.p99_ms serve.max_qps",
    ),
    layer("serve.sheds", "count", "lower", "serve.max_qps"),
    layer("serve.deadline_exceeded", "count", "lower", "serve.max_qps"),
    layer("serve.status_5xx", "count", "lower", "serve.max_qps"),
    layer("serve.generator_lag_ms.p99", "ms", "lower", "serve.max_qps"),
    layer("trace.overhead_share", "ratio", "lower", "none"),
];

/// The unit a catalogue entry declares for `name`.
fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|l| l.name == name)
        .map(|l| l.unit)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"))
}

fn put(report: &mut Report, name: &str, value: f64) {
    report.put(name, value, unit_of(name));
}

/// Self time per span path: its total minus its direct children's.
fn self_times(records: &[&ExperimentRecord]) -> BTreeMap<String, f64> {
    let mut total: BTreeMap<String, f64> = BTreeMap::new();
    for r in records {
        for p in &r.phases {
            *total.entry(p.path.clone()).or_default() += p.stat.total().as_secs_f64();
        }
    }
    let mut own = total.clone();
    for (path, secs) in &total {
        if let Some((parent, _)) = path.rsplit_once('/') {
            if let Some(p) = own.get_mut(parent) {
                *p -= secs;
            }
        }
    }
    own
}

/// Grid layers from one traced pass of each family.
fn grid_layers(pairs: &[valentine_core::fabricator::DatasetPair], report: &mut Report) -> f64 {
    let mut wall = 0.0;
    let mut records = Vec::new();
    for (_, methods) in grid::FAMILIES {
        let (secs, runner) = grid::run_family(pairs, methods);
        wall += secs;
        records.extend(runner.records().iter().cloned());
    }
    let busy: f64 = records.iter().map(|r| r.runtime.as_secs_f64()).sum();
    put(
        report,
        "core.runner.idle_share",
        1.0 - busy / (crate::nproc() as f64 * wall),
    );
    put(report, "core.runner.records", records.len() as f64);
    put(
        report,
        "core.runner.failed",
        records.iter().filter(|r| r.failed()).count() as f64,
    );
    for (kind, slug) in SLUGS {
        let mine: Vec<&ExperimentRecord> = records.iter().filter(|r| r.method == kind).collect();
        let busy: f64 = mine.iter().map(|r| r.runtime.as_secs_f64()).sum();
        put(report, &format!("matchers.{slug}.busy_s"), busy);
        let mut by_leaf: BTreeMap<&str, f64> = BTreeMap::new();
        let own = self_times(&mine);
        for (path, secs) in &own {
            let leaf = path.rsplit('/').next().unwrap_or(path);
            *by_leaf.entry(leaf).or_default() += secs;
        }
        for (leaf, secs) in by_leaf {
            let name = format!("matchers.{slug}.{leaf}_s");
            if PER_LAYER.iter().any(|l| l.name == name) {
                put(report, &name, secs);
            }
        }
    }
    wall
}

/// Lake layers: a traced build/compact cycle, timed public calls for
/// profile, write, load, map and verify, and per-stage query timings.
fn lake_layers(
    seed: u64,
    inputs: &Inputs,
    lake_out: &LakeOutcome,
    work: &Path,
    report: &mut Report,
) -> Result<f64, String> {
    let dir = work.join("traced-index");
    let _ = std::fs::remove_dir_all(&dir);
    let cycle = lake::cycle(&inputs.lake, &LAKE, &dir)?;
    put(
        report,
        "index.write_amp",
        cycle.built_bytes as f64 / inputs.lake.bytes as f64,
    );
    put(
        report,
        "index.compact_rewritten_mb",
        cycle.compacted_bytes as f64 / 1e6,
    );
    let _ = std::fs::remove_dir_all(&dir);

    let (tables, _) = lake::read_lake(&inputs.lake).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut index = Index::new(IndexConfig::default());
    index.ingest_batch(tables, crate::nproc());
    put(report, "index.profile_s", start.elapsed().as_secs_f64());
    let start = Instant::now();
    v2::save_v2(&index, &dir, DEFAULT_SHARDS).map_err(|e| e.to_string())?;
    put(report, "index.write_s", start.elapsed().as_secs_f64());
    drop(index);
    let _ = std::fs::remove_dir_all(&dir);

    let start = Instant::now();
    let loaded = LoadedIndex::load(&lake_out.index_dir).map_err(|e| e.to_string())?;
    put(report, "index.load_s", start.elapsed().as_secs_f64());
    let start = Instant::now();
    let segments = v2::map_segments(&lake_out.index_dir).map_err(|e| e.to_string())?;
    put(
        report,
        "index.map_segments_s",
        start.elapsed().as_secs_f64(),
    );
    drop(segments);
    let start = Instant::now();
    let verdict = verify::verify_path(&lake_out.index_dir, false).map_err(|e| e.to_string())?;
    put(report, "index.verify_s", start.elapsed().as_secs_f64());
    report.check(verdict.ok(), "index verify found corrupt files");

    let queries = lake::queries(seed, &LAKE);
    let opts = lake::search_options();
    let (mut lsh, mut rerank, mut joinable) = (Vec::new(), Vec::new(), Vec::new());
    let (mut candidates, mut useful) = (0usize, 0usize);
    let (mut calls, mut errors, mut skips) = (0usize, 0usize, 0usize);
    for q in &queries {
        let start = Instant::now();
        let cands = loaded.candidate_tables(&q.table);
        let lsh_ms = start.elapsed().as_secs_f64() * 1e3;
        candidates += cands.len();
        useful += cands
            .iter()
            .filter(|(id, _)| loaded.table(*id).is_some_and(|t| t.source == q.family))
            .count();
        let start = Instant::now();
        let out = loaded.top_k_unionable(&q.table, lake::K, &opts);
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        lsh.push(lsh_ms);
        rerank.push(total_ms - lsh_ms);
        let start = Instant::now();
        let join = loaded.top_k_joinable(lake::join_column(q, 0), lake::K, &opts);
        joinable.push(start.elapsed().as_secs_f64() * 1e3);
        for stats in [out.stats, join.stats] {
            calls += stats.matcher_calls;
            errors += stats.matcher_errors;
            skips += stats.matcher_skips;
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    put(report, "index.lsh_ms", mean(&lsh));
    put(report, "index.rerank_ms", mean(&rerank));
    put(report, "index.joinable_ms", mean(&joinable));
    put(
        report,
        "index.lsh_candidates",
        candidates as f64 / queries.len().max(1) as f64,
    );
    put(
        report,
        "index.lsh_useful_ratio",
        useful as f64 / candidates.max(1) as f64,
    );
    put(report, "index.matcher_calls", calls as f64);
    put(report, "index.matcher_errors", errors as f64);
    put(report, "index.matcher_skips", skips as f64);
    Ok(cycle.build_s + cycle.compact_s)
}

/// Serve layers from a traced reference-rate session.
fn serve_layers(
    seed: u64,
    seconds: f64,
    mix: &serve::Mix,
    lake_out: &LakeOutcome,
    report: &mut Report,
) -> Result<(), String> {
    let session = serve::traced(seed, mix, &LAKE, lake_out, seconds, report)?;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let lat = |pred: &dyn Fn(&serve::Sent) -> bool| -> Vec<f64> {
        session
            .sent
            .iter()
            .filter(|s| pred(s))
            .map(|s| ms(s.sample.latency))
            .collect()
    };
    let summary = |v: &[f64], name: &str| {
        let s = summarize(v, 0.99);
        if let Some(s) = s {
            eprintln!("{name}: {} samples, tail at p{}", s.n, s.tail_q * 100.0);
        }
        s
    };
    let snap = &session.snapshot;
    let hits = snap.counter("serve/cache_hits") as f64;
    let misses = snap.counter("serve/cache_misses") as f64;
    put(report, "serve.hit_ratio", hits / (hits + misses).max(1.0));
    if let Some(s) = summary(&lat(&|s| s.hit), "serve.hit_ms") {
        put(report, "serve.hit_ms.p50", s.p50);
        put(report, "serve.hit_ms.p99", s.tail);
    }
    if let Some(s) = summary(
        &lat(&|s| !s.hit && matches!(s.kind, Kind::Hot | Kind::Cold | Kind::Joinable)),
        "serve.miss_ms",
    ) {
        put(report, "serve.miss_ms.p50", s.p50);
        put(report, "serve.miss_ms.p99", s.tail);
    }
    if let Some(s) = summary(&lat(&|s| s.kind == Kind::Upload), "serve.upload_ms") {
        put(report, "serve.upload_ms.p50", s.p50);
    }
    let connect: Vec<f64> = session.sent.iter().map(|s| ms(s.connect)).collect();
    if let Some(s) = summarize(&connect, 0.5) {
        put(report, "serve.connect_ms.p50", s.p50);
    }
    let lag: Vec<f64> = session.sent.iter().map(|s| ms(s.sample.lag)).collect();
    if let Some(s) = summary(&lag, "serve.generator_lag_ms") {
        put(report, "serve.generator_lag_ms.p99", s.tail);
    }
    put(
        report,
        "serve.cache_evictions",
        snap.counter("serve/cache_evictions") as f64,
    );
    put(report, "serve.sheds", snap.counter("serve/sheds") as f64);
    put(
        report,
        "serve.deadline_exceeded",
        snap.counter("serve/deadline_exceeded") as f64,
    );
    let five: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("serve/status_5"))
        .map(|(_, v)| v)
        .sum();
    put(report, "serve.status_5xx", five as f64);

    // queue wait and pool search time per request, from the request log
    let (mut wait, mut search) = (Vec::new(), Vec::new());
    for line in String::from_utf8_lossy(&session.log).lines() {
        let Ok(event) = Json::parse(line).and_then(|j| jsonl::request_from(&j)) else {
            continue;
        };
        if event.cache == "miss" {
            wait.push(event.queue_wait_ns as f64 / 1e6);
            if let Some(s) = event.snapshot.spans.get("serve/search") {
                search.push(s.total_ns as f64 / 1e6);
            }
        }
    }
    if let Some(s) = summary(&wait, "serve.queue_wait_ms") {
        put(report, "serve.queue_wait_ms.p50", s.p50);
        put(report, "serve.queue_wait_ms.p99", s.tail);
    }
    if let Some(s) = summary(&search, "serve.search_ms") {
        put(report, "serve.search_ms.p50", s.p50);
        put(report, "serve.search_ms.p99", s.tail);
    }
    Ok(())
}

/// The traced pass. `untraced_s` is the untraced wall of the same grid
/// passes plus lake cycle, for `trace.overhead_share`.
pub fn traced(
    args: &crate::Args,
    mix: &serve::Mix,
    inputs: &Inputs,
    lake_out: &LakeOutcome,
    untraced_s: f64,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    valentine_core::obs::set_enabled(true);
    let grid_s = grid_layers(&inputs.pairs, report);
    let lake_s = lake_layers(args.seed, inputs, lake_out, work, report)?;
    serve_layers(args.seed, args.seconds, mix, lake_out, report)?;
    valentine_core::obs::set_enabled(false);
    put(
        report,
        "trace.overhead_share",
        (grid_s + lake_s - untraced_s) / untraced_s,
    );
    for l in PER_LAYER {
        if let Some(v) = report.get(l.name) {
            eprintln!(
                "{:<36} {:>14.6} {:<6} {} is better; moves {}",
                l.name, v, l.unit, l.better, l.moves
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    #[test]
    fn catalogue_names_are_valid_unique_and_bounded() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|l| l.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric names");
        assert!(PER_LAYER.len() <= 128);
        for m in &END_TO_END {
            assert!(
                valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_layer_moves_an_end_to_end_metric() {
        for l in PER_LAYER {
            assert!(valid_unit(l.unit), "{}", l.name);
            assert!(matches!(l.better, "higher" | "lower"), "{}", l.name);
            if l.moves == "none" {
                continue;
            }
            for target in l.moves.split(' ') {
                assert!(
                    END_TO_END.iter().any(|m| m.name == target)
                        || PER_LAYER.iter().any(|m| m.name == target),
                    "{} moves unknown {target}",
                    l.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let e2e = json
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(got.get("name").and_then(Json::as_str), Some(want.name));
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(want.unit));
            assert_eq!(got.get("better").and_then(Json::as_str), Some(want.better));
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let layers = json
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(got.get("name").and_then(Json::as_str), Some(want.name));
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(want.unit));
            assert_eq!(got.get("better").and_then(Json::as_str), Some(want.better));
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        use valentine_core::obs::SpanStat;
        use valentine_core::runner::PhaseStat;
        let stat = |ms: u64| SpanStat {
            count: 1,
            total_ns: ms * 1_000_000,
            max_ns: ms * 1_000_000,
        };
        let pair = &grid::corpus(0).pairs[0];
        let kind = MatcherKind::ComaSchema;
        let mut r = valentine_core::runner::execute_one(pair, kind, kind.instantiate().as_ref());
        r.phases = vec![
            PhaseStat {
                path: "embdi/profile".into(),
                stat: stat(10),
            },
            PhaseStat {
                path: "embdi/profile/train".into(),
                stat: stat(7),
            },
            PhaseStat {
                path: "embdi/profile/walks".into(),
                stat: stat(2),
            },
        ];
        let own = self_times(&[&r]);
        assert!((own["embdi/profile"] - 0.001).abs() < 1e-12);
        assert!((own["embdi/profile/train"] - 0.007).abs() < 1e-12);
    }
}
