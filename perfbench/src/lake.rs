//! The `lake` phase: a data lake of CSV files indexed through the v2
//! writer in several generations, trimmed, compacted, reopened cold in a
//! fresh process, and queried in-process.
//!
//! The lake mixes unionable *families* (tables fabricated from one base
//! table; the base's other halves are the queries, so "same family" is the
//! ground truth) with a *background* of decoy families (same dataset
//! sources, other base tables, no queries) and unrelated synthetic tables.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use valentine_core::datasets::{chembl, opendata, tpcdi, SizeClass};
use valentine_core::fabricator::{fabricate_pair, InstanceNoise, ScenarioSpec, SchemaNoise};
use valentine_core::index::{
    v2, Index, IndexConfig, IndexWriter, LoadedIndex, SearchOptions, SearchOutcome, DEFAULT_SHARDS,
};
use valentine_core::obs::json::Json;
use valentine_core::table::{csv, Table, Value};

use crate::out::Report;
use crate::stats::{median, summarize};

/// Top-k of every query.
pub const K: usize = 5;

/// Columns kept of each family's base table, chosen by the family's seed.
/// Re-rank cost grows with the square of the width; at the sources' full
/// 22-51 columns one re-ranked query costs hundreds of milliseconds and
/// the batch cannot be measured often enough for a steady tail. A fixed
/// width also keeps the cost of a query the same from seed to seed, and
/// seed-chosen columns keep families of one source apart.
const BASE_COLUMNS: usize = 10;

/// Searches per query table: one unionable search and a joinable search
/// on each of its columns. Ten joinable searches per unionable one put the
/// median well inside the joinable class and the p99 inside the unionable
/// one, instead of either on a class boundary, and averaging over every
/// column keeps the seed's choice of columns from moving the median.
pub const SEARCHES: usize = 1 + BASE_COLUMNS;

/// Lake sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct LakePlan {
    /// Query families per dataset source (three sources).
    pub families_per_source: usize,
    /// Lake tables per family (and as many queries).
    pub members: usize,
    /// Decoy families per dataset source (background, no queries).
    pub decoys_per_source: usize,
    /// Unrelated synthetic background tables.
    pub unrelated: usize,
    /// Generations the build writes.
    pub batches: usize,
    /// Build + compact repetitions; reported walls are medians.
    pub builds: usize,
    /// Cold reopen processes; open and first-query figures are medians.
    pub opens: usize,
}

/// A query: the other half of a family member, with its family.
#[derive(Debug, Clone)]
pub struct Query {
    /// Family tag, which is also the source tag of its lake tables.
    pub family: String,
    /// The query table.
    pub table: Table,
}

/// Deterministic 64-bit mixer (SplitMix64) for input generation.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn base_table(source: usize, seed: u64) -> Table {
    let full = match source {
        0 => tpcdi::prospect(SizeClass::Tiny, seed),
        1 => opendata::open_data(SizeClass::Tiny, seed),
        _ => chembl::assays(SizeClass::Tiny, seed),
    };
    let mut names = full.column_names();
    names.sort_by_key(|n| mix(seed ^ name_hash(n)));
    names.truncate(BASE_COLUMNS);
    let keep: Vec<&str> = full
        .column_names()
        .into_iter()
        .filter(|n| names.contains(n))
        .collect();
    full.project(&keep).expect("projecting onto own columns")
}

const SOURCES: [&str; 3] = ["tpcdi", "opendata", "chembl"];

/// Fabricates `count` families per source: `(family tag, lake tables,
/// queries)`. `salt` separates query families from decoys.
fn families(
    seed: u64,
    plan: &LakePlan,
    salt: u64,
    count: usize,
) -> Vec<(String, Vec<Table>, Vec<Table>)> {
    let mut out = Vec::new();
    for (s, source) in SOURCES.iter().enumerate() {
        for f in 0..count {
            let base_seed = mix(seed ^ mix(salt ^ ((s as u64) << 32 | f as u64)));
            let base = base_table(s, base_seed);
            let tag = format!("{}{}-{f}", if salt == 0 { "" } else { "decoy-" }, source);
            let (mut lake, mut queries) = (Vec::new(), Vec::new());
            for m in 0..plan.members {
                let schema = if m % 2 == 0 {
                    SchemaNoise::Verbatim
                } else {
                    SchemaNoise::Noisy
                };
                let spec = ScenarioSpec::unionable(0.5, schema, InstanceNoise::Verbatim);
                let pair = fabricate_pair(&base, &spec, mix(base_seed ^ m as u64))
                    .expect("fabrication of generated sources cannot fail");
                let mut target = pair.target;
                target.set_name(format!("{tag}/t{m}"));
                let mut query = pair.source;
                query.set_name(format!("{tag}/q{m}"));
                lake.push(target);
                queries.push(query);
            }
            out.push((tag, lake, queries));
        }
    }
    out
}

/// The queries of a seed (regenerated by reopen processes, which need
/// nothing else of the lake).
pub fn queries(seed: u64, plan: &LakePlan) -> Vec<Query> {
    families(seed, plan, 0, plan.families_per_source)
        .into_iter()
        .flat_map(|(family, _, qs)| {
            qs.into_iter().map(move |table| Query {
                family: family.clone(),
                table,
            })
        })
        .collect()
}

/// Unrelated tables per cluster. Tables of one cluster draw from shared
/// value domains, so they collide with each other in the LSH and a query
/// for one re-ranks its cluster, as a family query does; no cluster
/// shares a value with a family or another cluster.
const CLUSTER: usize = 10;

/// An unrelated table of cluster `i / CLUSTER`. Every one has the same
/// shape, so the seed changes values and never the amount of work.
fn unrelated(seed: u64, i: usize) -> Table {
    let cluster = (i / CLUSTER) as i64;
    let mut state = mix(seed ^ 0x5eed ^ i as u64);
    let mut next = move || {
        state = mix(state);
        state
    };
    let (width, height, domain) = (8, 40, 120);
    let columns = (0..width)
        .map(|c| {
            let name = format!("u{cluster}_{c}");
            let values = match c % 3 {
                0 => (0..height)
                    .map(|_| Value::Int((cluster + 1) * 10_000_000 + (next() % domain) as i64))
                    .collect(),
                1 => (0..height)
                    .map(|_| Value::str(format!("w{cluster}x{c}x{:x}", next() % domain)))
                    .collect(),
                _ => (0..height)
                    .map(|_| Value::Float((cluster * 7919) as f64 + (next() % domain) as f64 / 8.0))
                    .collect(),
            };
            (name, values)
        })
        .collect();
    Table::from_pairs(format!("bg/u{i}"), columns).expect("columns are equally long")
}

/// Every lake table in ingest order, with its source tag: families, decoys
/// and unrelated tables interleaved deterministically.
fn lake_tables(seed: u64, plan: &LakePlan) -> Vec<(String, Table)> {
    let mut all: Vec<(String, Table)> = Vec::new();
    for (tag, lake, _) in families(seed, plan, 0, plan.families_per_source)
        .into_iter()
        .chain(families(seed, plan, 1, plan.decoys_per_source))
    {
        all.extend(lake.into_iter().map(|t| (tag.clone(), t)));
    }
    all.extend((0..plan.unrelated).map(|i| ("bg".to_string(), unrelated(seed, i))));
    all.sort_by_key(|(_, t)| mix(seed ^ name_hash(t.name())));
    all
}

/// FNV-1a of a table name.
pub fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The lake on disk: one CSV per table, in ingest order.
#[derive(Debug)]
pub struct LakeFiles {
    /// `(source tag, table name, path)` in ingest order.
    pub files: Vec<(String, String, PathBuf)>,
    /// Total CSV bytes.
    pub bytes: u64,
}

impl LakeFiles {
    /// Names of the tables the run removes: every hundredth table, which
    /// hits families, decoys and unrelated tables alike. Each removal is
    /// its own durable manifest rewrite, so the slice stays small.
    pub fn removed(&self) -> Vec<String> {
        self.files
            .iter()
            .step_by(100)
            .map(|(_, name, _)| name.clone())
            .collect()
    }
}

/// Set-up: fabricates the lake and writes it as CSV files under `dir`.
pub fn write_lake(seed: u64, plan: &LakePlan, dir: &Path) -> std::io::Result<LakeFiles> {
    std::fs::create_dir_all(dir)?;
    let mut files = Vec::new();
    let mut bytes = 0;
    for (i, (tag, table)) in lake_tables(seed, plan).into_iter().enumerate() {
        let path = dir.join(format!("{i:05}.csv"));
        let text = csv::serialize(&table);
        bytes += text.len() as u64;
        std::fs::write(&path, text)?;
        files.push((tag, table.name().to_string(), path));
    }
    Ok(LakeFiles { files, bytes })
}

/// Reads and parses the lake's CSV files: `(tables, parse seconds)`.
pub fn read_lake(lake: &LakeFiles) -> std::io::Result<(Vec<(String, Table)>, f64)> {
    let mut parse = 0.0;
    let mut out = Vec::with_capacity(lake.files.len());
    for (tag, name, path) in &lake.files {
        let text = std::fs::read_to_string(path)?;
        let start = Instant::now();
        let table = csv::parse(name.as_str(), &text)
            .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))?;
        parse += start.elapsed().as_secs_f64();
        out.push((tag.clone(), table));
    }
    Ok((out, parse))
}

/// Walls of one build → remove → compact cycle.
pub struct Cycle {
    /// CSV read and parse plus the generation writes.
    pub build_s: f64,
    /// The CSV parse share of `build_s`.
    pub parse_s: f64,
    /// The compaction.
    pub compact_s: f64,
    /// Index bytes on disk after the build.
    pub built_bytes: u64,
    /// Index bytes on disk after the compaction (what it rewrote).
    pub compacted_bytes: u64,
}

/// Builds the index under `dir` from the CSV files in `plan.batches`
/// generations, tombstones the removed slice, and compacts.
pub fn cycle(lake: &LakeFiles, plan: &LakePlan, dir: &Path) -> Result<Cycle, String> {
    let start = Instant::now();
    let (tables, parse_s) = read_lake(lake).map_err(|e| e.to_string())?;
    let mut writer = IndexWriter::create(dir, IndexConfig::default(), DEFAULT_SHARDS)
        .map_err(|e| e.to_string())?;
    let per = tables.len().div_ceil(plan.batches.max(1));
    let mut tables = tables.into_iter().peekable();
    while tables.peek().is_some() {
        let batch: Vec<(String, Table)> = tables.by_ref().take(per).collect();
        writer
            .add_batch(batch, crate::nproc())
            .map_err(|e| e.to_string())?;
    }
    writer.finish().map_err(|e| e.to_string())?;
    let build_s = start.elapsed().as_secs_f64();
    let built_bytes = dir_bytes(dir);

    for name in lake.removed() {
        match v2::remove_table(dir, &name) {
            Ok(Some(_)) => {}
            Ok(None) => return Err(format!("remove {name}: no live table of that name")),
            Err(e) => return Err(format!("remove {name}: {e}")),
        }
    }
    let start = Instant::now();
    v2::compact(dir).map_err(|e| e.to_string())?;
    let compact_s = start.elapsed().as_secs_f64();
    Ok(Cycle {
        build_s,
        parse_s,
        compact_s,
        built_bytes,
        compacted_bytes: dir_bytes(dir),
    })
}

/// Total bytes of the regular files in a directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Search options of the query batch: ComaInstance re-rank at the default
/// shortlist cap, on the calling thread, as each serve pool worker runs
/// it. A re-rank over several threads spawns them per search, and their
/// start-up latency swings with the load on the machine.
pub fn search_options() -> SearchOptions {
    SearchOptions {
        threads: 1,
        ..SearchOptions::default()
    }
}

/// The `c`-th joinable column of a query.
pub fn join_column(query: &Query, c: usize) -> &valentine_core::table::Column {
    &query.table.columns()[c]
}

/// Search `i` of the batch: query `i / SEARCHES`, unionable when
/// `i % SEARCHES == 0`, joinable on a column otherwise.
pub fn ask(index: &Index, queries: &[Query], i: usize) -> SearchOutcome {
    let q = &queries[i / SEARCHES];
    match i % SEARCHES {
        0 => index.top_k_unionable(&q.table, K, &search_options()),
        c => index.top_k_joinable(join_column(q, c - 1), K, &search_options()),
    }
}

/// FNV-1a over every answer of a batch: ids, names, columns, order and
/// score bits.
#[derive(Debug)]
pub struct AnswerDigest(u64);

impl Default for AnswerDigest {
    fn default() -> AnswerDigest {
        AnswerDigest(0xcbf2_9ce4_8422_2325)
    }
}

impl AnswerDigest {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds one query's answer in.
    pub fn add(&mut self, i: usize, outcome: &SearchOutcome) {
        self.eat(&(i as u64).to_le_bytes());
        for r in &outcome.results {
            self.eat(&r.table_id.to_le_bytes());
            self.eat(r.table_name.as_bytes());
            self.eat(r.column.as_deref().unwrap_or("").as_bytes());
            self.eat(&r.score.to_bits().to_le_bytes());
            self.eat(&r.sketch_score.to_bits().to_le_bytes());
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Same-family share of a unionable answer's top-k.
pub fn precision(query: &Query, outcome: &SearchOutcome) -> f64 {
    let hits = outcome
        .results
        .iter()
        .filter(|r| r.source == query.family)
        .count();
    hits as f64 / K as f64
}

/// Resident set size of this process, MB.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The reopen process: loads the index cold, runs the query batch once,
/// and prints one JSON line of what it saw.
pub fn child(seed: u64, plan: &LakePlan, dir: &Path) -> Result<(), String> {
    let queries = queries(seed, plan);
    let rss_before = rss_mb();
    let start = Instant::now();
    let index = LoadedIndex::load(dir).map_err(|e| e.to_string())?;
    let open_s = start.elapsed().as_secs_f64();
    // the first search after the open: a table of the first unrelated
    // cluster, which has the same shape for every seed
    let probe = unrelated(seed ^ 0x9e37, 0);
    let start = Instant::now();
    index.top_k_unionable(&probe, K, &search_options());
    let first_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut latencies = Vec::new();
    let mut digest = AnswerDigest::default();
    let mut precision_sum = 0.0;
    let mut stats_calls = 0u64;
    let mut errors = 0u64;
    for i in 0..queries.len() * SEARCHES {
        let start = Instant::now();
        let outcome = ask(&index, &queries, i);
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        errors += (outcome.stats.matcher_errors + outcome.stats.matcher_skips) as u64;
        stats_calls += outcome.stats.matcher_calls as u64;
        digest.add(i, &outcome);
        if i % SEARCHES == 0 {
            precision_sum += precision(&queries[i / SEARCHES], &outcome);
        }
    }
    let rss_after = rss_mb();
    let line = Json::Obj(vec![
        ("open_s".into(), Json::Float(open_s)),
        ("first_ms".into(), Json::Float(first_ms)),
        ("rss_mb".into(), Json::Float(rss_after - rss_before)),
        (
            "digest".into(),
            Json::Str(format!("{:016x}", digest.value())),
        ),
        (
            "precision".into(),
            Json::Float(precision_sum / queries.len() as f64),
        ),
        ("degraded".into(), Json::Bool(index.is_degraded())),
        ("matcher_calls".into(), Json::UInt(stats_calls)),
        ("matcher_errors".into(), Json::UInt(errors)),
        (
            "latencies_ms".into(),
            Json::Arr(latencies.into_iter().map(Json::Float).collect()),
        ),
    ]);
    println!("{}", line.render());
    Ok(())
}

/// What a reopen process reported.
struct Reopen {
    open_s: f64,
    first_ms: f64,
    rss_mb: f64,
    digest: String,
    precision: f64,
    degraded: bool,
    matcher_calls: u64,
    matcher_errors: u64,
    latencies_ms: Vec<f64>,
}

/// Drops the page cache of every file in `dir` (`posix_fadvise` with
/// `POSIX_FADV_DONTNEED` after an `fsync`, so no page is dirty), so that a
/// reopen reads the index from the device as it would after a restart,
/// instead of from pages the build just wrote.
fn evict(dir: &Path) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
    }
    const POSIX_FADV_DONTNEED: i32 = 4;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if !path.is_file() {
            continue;
        }
        let file = std::fs::File::open(&path)?;
        file.sync_all()?;
        // SAFETY: `file` is open for the duration of the call, and the
        // advice only concerns the page cache of that descriptor's file.
        let err = unsafe { posix_fadvise(file.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED) };
        if err != 0 {
            return Err(std::io::Error::from_raw_os_error(err));
        }
    }
    Ok(())
}

fn reopen(seed: u64, dir: &Path) -> Result<Reopen, String> {
    evict(dir).map_err(|e| format!("evict {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--lake-child", &seed.to_string()])
        .arg(dir)
        .output()
        .map_err(|e| format!("spawn reopen process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "reopen process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let json = Json::parse(text.trim()).map_err(|e| format!("reopen output: {e}"))?;
    let num = |k: &str| json.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Ok(Reopen {
        open_s: num("open_s"),
        first_ms: num("first_ms"),
        rss_mb: num("rss_mb"),
        digest: json
            .get("digest")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        precision: num("precision"),
        degraded: json.get("degraded").and_then(Json::as_bool).unwrap_or(true),
        matcher_calls: json
            .get("matcher_calls")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        matcher_errors: json
            .get("matcher_errors")
            .and_then(Json::as_u64)
            .unwrap_or(1),
        latencies_ms: json
            .get("latencies_ms")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

/// The differential reference, built in set-up: the surviving tables in id
/// order and an in-memory `Index` ingested from them. The reopened on-disk
/// index and the server are both checked against it.
pub struct Reference {
    /// The surviving tables, in id order.
    pub survivors: Vec<(String, Table)>,
    /// The in-memory index over them.
    pub index: Index,
}

/// Parses the lake's CSV files and ingests the tables that survive the
/// removal into an in-memory index.
pub fn reference(lake: &LakeFiles) -> Result<Reference, String> {
    let removed: std::collections::HashSet<String> = lake.removed().into_iter().collect();
    let (tables, _) = read_lake(lake).map_err(|e| e.to_string())?;
    let survivors: Vec<(String, Table)> = tables
        .into_iter()
        .filter(|(_, t)| !removed.contains(t.name()))
        .collect();
    let mut index = Index::new(IndexConfig::default());
    index.ingest_batch(survivors.clone(), crate::nproc());
    Ok(Reference { survivors, index })
}

/// What the traced pass needs from a finished lake phase.
pub struct LakeOutcome {
    /// The compacted index directory (serve loads it).
    pub index_dir: PathBuf,
    /// The surviving tables, in id order (the differential reference).
    pub survivors: Vec<(String, Table)>,
    /// Median build + compact wall of the untraced cycles.
    pub cycle_s: f64,
}

/// Runs the lake phase: `plan.builds` build/compact cycles, `plan.opens`
/// cold reopen processes, and the in-memory differential.
pub fn run(
    seed: u64,
    plan: &LakePlan,
    lake: &LakeFiles,
    reference: Reference,
    work: &Path,
    report: &mut Report,
) -> Result<LakeOutcome, String> {
    let mut cycles = Vec::new();
    let mut index_dir = PathBuf::new();
    for b in 0..plan.builds {
        let dir = work.join(format!("index-{b}"));
        let _ = std::fs::remove_dir_all(&dir);
        cycles.push(cycle(lake, plan, &dir)?);
        if b > 0 {
            let _ = std::fs::remove_dir_all(&index_dir);
        }
        index_dir = dir;
    }
    let walls = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    let list = |f: fn(&Cycle) -> f64| {
        cycles
            .iter()
            .map(|c| format!("{:.3}", f(c)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "lake cycles: build {} s; compact {} s",
        list(|c| c.build_s),
        list(|c| c.compact_s)
    );
    report.put("lake.build_s", walls(|c| c.build_s), "s");
    report.put("lake.compact_s", walls(|c| c.compact_s), "s");
    report.put("table.csv_parse_s", walls(|c| c.parse_s), "s");

    let Reference {
        survivors,
        index: reference,
    } = reference;
    let queries = queries(seed, plan);
    let mut expected = AnswerDigest::default();
    for i in 0..queries.len() * SEARCHES {
        expected.add(i, &ask(&reference, &queries, i));
    }
    let expected = format!("{:016x}", expected.value());
    let background = lake
        .files
        .iter()
        .filter(|(tag, _, _)| tag == "bg" || tag.starts_with("decoy-"))
        .count();
    eprintln!(
        "lake sizes: {} tables ({} after removal), {} profiles, background share {:.3}, \
         {} query tables, CSV {:.2} MB, index {:.2} MB",
        lake.files.len(),
        survivors.len(),
        reference.num_profiles(),
        background as f64 / lake.files.len() as f64,
        queries.len(),
        lake.bytes as f64 / 1e6,
        dir_bytes(&index_dir) as f64 / 1e6
    );
    drop(reference);

    let mut opens = Vec::new();
    for _ in 0..plan.opens {
        opens.push(reopen(seed, &index_dir)?);
    }
    for o in &opens {
        report.check(
            o.digest == expected,
            &format!(
                "reopened index answered digest {} where the in-memory index answered {expected}",
                o.digest
            ),
        );
        report.check(!o.degraded, "reopened index is degraded");
        let n = o.latencies_ms.len() as u64;
        report.checks(
            n,
            o.matcher_errors,
            "lake queries hit matcher errors or skips",
        );
        report.check(o.matcher_calls > 0, "lake queries issued no matcher calls");
    }
    let of = |f: fn(&Reopen) -> f64| median(&opens.iter().map(f).collect::<Vec<_>>());
    let list = |f: fn(&Reopen) -> f64, scale: f64| {
        opens
            .iter()
            .map(|o| format!("{:.1}", f(o) * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "lake reopens: open {} ms; first query {} ms",
        list(|o| o.open_s, 1e3),
        list(|o| o.first_ms, 1.0)
    );
    report.put("lake.open_s", of(|o| o.open_s), "s");
    report.put("lake.first_query_ms", of(|o| o.first_ms), "ms");
    report.put("lake.rss_mb", of(|o| o.rss_mb), "MB");
    report.put("lake.precision_at_k", of(|o| o.precision), "ratio");
    let steady: Vec<f64> = opens
        .iter()
        .flat_map(|o| o.latencies_ms.iter().copied())
        .collect();
    if let Some(s) = summarize(&steady, 0.99) {
        report.put("lake.query_p50_ms", s.p50, "ms");
        report.put("lake.query_p99_ms", s.tail, "ms");
        eprintln!(
            "lake: {} steady queries, tail at p{} over {} samples",
            s.n,
            s.tail_q * 100.0,
            s.n
        );
    }
    Ok(LakeOutcome {
        index_dir,
        survivors,
        cycle_s: walls(|c| c.build_s + c.compact_s),
    })
}
