//! The `grid` phase: the paper's Table II grids over the tiny corpus,
//! driven through `Runner::run` one figure family at a time.

use std::collections::BTreeMap;
use std::time::Instant;

use valentine_core::fabricator::DatasetPair;
use valentine_core::matchers::MatcherKind;
use valentine_core::{Corpus, CorpusConfig, ExperimentRecord, GridScale, Runner, RunnerConfig};

use crate::out::Report;
use crate::stats::median;

/// The paper's three method families (Figures 4, 5 and 6), in run order.
pub const FAMILIES: [(&str, &[MatcherKind]); 3] = [
    (
        "schema",
        &[
            MatcherKind::Cupid,
            MatcherKind::SimilarityFlooding,
            MatcherKind::ComaSchema,
        ],
    ),
    (
        "instance",
        &[
            MatcherKind::ComaInstance,
            MatcherKind::DistributionDist1,
            MatcherKind::DistributionDist2,
            MatcherKind::JaccardLevenshtein,
        ],
    ),
    ("hybrid", &[MatcherKind::SemProp, MatcherKind::EmbDI]),
];

/// Corpus variants the seed cycles through. Each variant's recall digests,
/// one per (family, pair), are pinned in `pins/grid.tsv`, so every seed has
/// a reference.
pub const VARIANTS: u64 = 8;

/// The pinned digests, `variant \t family \t pair id \t digest`.
const PINS: &str = include_str!("../pins/grid.tsv");

/// Passes of each family per run; the reported wall is their median. The
/// schema family takes tens of milliseconds a pass, so it repeats most.
const PASSES: [usize; 3] = [15, 4, 1];

/// The corpus of a seed: the tiny paper corpus of its variant.
pub fn corpus(seed: u64) -> Corpus {
    Corpus::build(&CorpusConfig {
        seed: 0x7a1e + seed % VARIANTS,
        ..CorpusConfig::tiny()
    })
}

/// FNV-1a over a pair's sorted `(method, config, recall)` records.
fn pair_digest(records: &[&ExperimentRecord]) -> u64 {
    let mut rows: Vec<(&str, &str, u64)> = records
        .iter()
        .map(|r| (r.method.label(), r.config.as_str(), r.recall.to_bits()))
        .collect();
    rows.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (method, config, recall) in rows {
        eat(method.as_bytes());
        eat(&[0]);
        eat(config.as_bytes());
        eat(&[0]);
        eat(&recall.to_le_bytes());
    }
    h
}

/// The family a method belongs to.
fn family_of(method: MatcherKind) -> &'static str {
    FAMILIES
        .iter()
        .find(|(_, methods)| methods.contains(&method))
        .map_or("none", |(family, _)| family)
}

/// Digests of a set of records, one per `family \t pair`.
pub fn digests(records: &[ExperimentRecord]) -> BTreeMap<String, u64> {
    let mut by_pair: BTreeMap<String, Vec<&ExperimentRecord>> = BTreeMap::new();
    for r in records {
        let key = format!("{}\t{}", family_of(r.method), r.pair_id);
        by_pair.entry(key).or_default().push(r);
    }
    by_pair
        .into_iter()
        .map(|(pair, recs)| (pair, pair_digest(&recs)))
        .collect()
}

/// The pinned digests of one variant.
fn pinned(variant: u64) -> BTreeMap<String, u64> {
    PINS.lines()
        .filter_map(|line| {
            let mut f = line.split('\t');
            let v: u64 = f.next()?.parse().ok()?;
            let key = format!("{}\t{}", f.next()?, f.next()?);
            let digest = u64::from_str_radix(f.next()?, 16).ok()?;
            (v == variant).then_some((key, digest))
        })
        .collect()
}

/// Prints the pin lines of a variant (every pair, every method).
pub fn print_pins(variant: u64) {
    let corpus = corpus(variant);
    let records = run_all(&corpus.pairs);
    for (pair, digest) in digests(&records) {
        println!("{variant}\t{pair}\t{digest:016x}");
    }
}

/// Every method over `pairs`, as one run.
fn run_all(pairs: &[DatasetPair]) -> Vec<ExperimentRecord> {
    let config = RunnerConfig {
        methods: MatcherKind::ALL.to_vec(),
        scale: GridScale::Small,
        threads: crate::nproc(),
        ..RunnerConfig::default()
    };
    Runner::run(pairs, &config).records().to_vec()
}

/// One pass of one family.
pub fn run_family(pairs: &[DatasetPair], methods: &[MatcherKind]) -> (f64, Runner) {
    let config = RunnerConfig {
        methods: methods.to_vec(),
        scale: GridScale::Small,
        threads: crate::nproc(),
        ..RunnerConfig::default()
    };
    let start = Instant::now();
    let runner = Runner::run(pairs, &config);
    (start.elapsed().as_secs_f64(), runner)
}

/// Runs every family over every pair, checks the records of each family's
/// last pass, and reports `grid.*`. Returns the summed wall of those last
/// passes.
pub fn run(seed: u64, pairs: &[DatasetPair], report: &mut Report) -> f64 {
    let mut last = Vec::new();
    let mut wall = 0.0;
    let mut expected = 0;
    for (f, (family, methods)) in FAMILIES.iter().enumerate() {
        expected += pairs.len()
            * methods
                .iter()
                .map(|&m| valentine_core::grids::method_grid(m, GridScale::Small).len())
                .sum::<usize>();
        let mut walls = Vec::new();
        for pass in 0..PASSES[f] {
            let (secs, runner) = run_family(pairs, methods);
            walls.push(secs);
            if pass + 1 == PASSES[f] {
                wall += secs;
                last.extend(runner.records().iter().cloned());
            }
        }
        report.put(&format!("grid.{family}_s"), median(&walls), "s");
    }

    report.check(
        last.len() == expected,
        &format!("grid ran {} of {expected} records", last.len()),
    );
    for r in &last {
        report.check(
            !r.failed(),
            &format!(
                "{} {} {}: {}",
                r.pair_id,
                r.method.label(),
                r.config,
                r.error.as_deref().unwrap_or("")
            ),
        );
    }
    let pins = pinned(seed % VARIANTS);
    let ran = digests(&last);
    for (key, digest) in &ran {
        report.check(
            pins.get(key) == Some(digest),
            &format!("{key}: recall digest {digest:016x} differs from the pinned one"),
        );
    }
    report.check(
        ran.len() == pins.len(),
        "the grid ran fewer cells than are pinned",
    );
    let recall = last.iter().map(|r| r.recall).sum::<f64>() / last.len().max(1) as f64;
    report.put("grid.recall_at_gt", recall, "ratio");
    wall
}
