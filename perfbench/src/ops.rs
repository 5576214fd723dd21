//! Seeded, fixed-work op lists.
//!
//! Every workload draws from one fixed point set (the paper sweep, or its
//! servable subset); the seed only permutes it. So every run of a workload
//! does the same simulated work and the same op mix, whatever the seed,
//! and percentiles from different seeds are comparable.

use regless_bench::registry;
use regless_bench::sweep::{rodinia_id, unit_slug, RunVariant, SweepEngine};
use regless_bench::DesignKind;
use regless_workloads::rodinia;
use std::path::{Path, PathBuf};

/// RegLess capacities added to the sweep beside the registry defaults:
/// kernel `i` of [`rodinia::NAMES`] gets `CAPACITY_POINTS[i % 2]`, one
/// point below and one above the paper's 512-entry design point (both are
/// on the Figure 11–13 capacity axis).
pub const CAPACITY_POINTS: [usize; 2] = [256, 1024];

/// One (benchmark × design) point of the sweep space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Point {
    /// Rodinia kernel name.
    pub kernel: &'static str,
    /// Sweep-engine benchmark id (`rodinia/<name>`).
    pub bench: String,
    /// Registry design id (`baseline`, `regless`, …).
    pub design: &'static str,
    /// OSU entries per SM for the RegLess designs (512 otherwise, the
    /// wire default).
    pub capacity: usize,
    /// The design the registry builds for `design` at `capacity`.
    pub kind: DesignKind,
    /// Whether `regless serve` can run this design.
    pub servable: bool,
}

impl Point {
    /// The sweep-engine variant this point caches under.
    pub fn variant(&self) -> RunVariant {
        RunVariant::Design(self.kind)
    }

    /// Where a sweep engine over `cache_dir` persists this point.
    pub fn entry_path(&self, cache_dir: &Path) -> PathBuf {
        cache_dir
            .join(SweepEngine::fingerprint())
            .join(unit_slug(&self.bench, self.variant()))
    }
}

/// The paper sweep: all 21 Rodinia kernels × every registry design at its
/// default parameters, plus one RegLess capacity point per kernel.
pub fn sweep_points() -> Vec<Point> {
    let mut points = Vec::new();
    for (i, &kernel) in rodinia::NAMES.iter().enumerate() {
        let mut add = |entry: &'static registry::DesignEntry, capacity: usize| {
            let params = registry::DesignParams {
                capacity,
                ..registry::DesignParams::default()
            };
            points.push(Point {
                kernel,
                bench: rodinia_id(kernel),
                design: entry.id,
                capacity,
                kind: entry.build(&params),
                servable: entry.servable,
            });
        };
        for entry in registry::all() {
            add(entry, registry::DesignParams::default().capacity);
        }
        let regless = registry::lookup("regless").expect("regless is registered");
        add(regless, CAPACITY_POINTS[i % CAPACITY_POINTS.len()]);
    }
    points
}

/// The sweep points `regless serve` can answer (it refuses `rfh`/`rfv`).
pub fn serve_points() -> Vec<Point> {
    sweep_points().into_iter().filter(|p| p.servable).collect()
}

/// The wire request kinds `serve_hits` sends, in equal shares.
pub const SERVE_KINDS: [&str; 3] = ["run", "profile", "report"];

/// One `serve_hits` request: a point and a request kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeOp {
    /// Index into [`serve_points`].
    pub point: usize,
    /// Index into [`SERVE_KINDS`].
    pub kind: usize,
}

/// `blocks` seeded permutations of every (serve point × kind) pair,
/// concatenated: each block is one request per pair.
pub fn serve_ops(n_points: usize, seed: u64, blocks: usize) -> Vec<ServeOp> {
    let block: Vec<ServeOp> = (0..n_points)
        .flat_map(|point| (0..SERVE_KINDS.len()).map(move |kind| ServeOp { point, kind }))
        .collect();
    (0..blocks)
        .flat_map(|b| permuted(&block, seed, b as u64))
        .collect()
}

/// A seeded permutation of `items` (Fisher–Yates over SplitMix64);
/// `stream` separates independent permutations under one seed, e.g. the
/// passes of one run.
pub fn permuted<T: Clone>(items: &[T], seed: u64, stream: u64) -> Vec<T> {
    let mut out = items.to_vec();
    let mut state = seed ^ splitmix64(stream.wrapping_add(0x5eed));
    for i in (1..out.len()).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// SplitMix64 step.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_kernel_and_design_once() {
        let points = sweep_points();
        assert_eq!(
            points.len(),
            rodinia::NAMES.len() * (registry::all().len() + 1)
        );
        let mut keys: Vec<_> = points.iter().map(|p| (p.bench.clone(), p.kind)).collect();
        keys.sort_by_key(|k| format!("{k:?}"));
        keys.dedup();
        assert_eq!(keys.len(), points.len(), "points are distinct");
        assert_eq!(crate::layers::DESIGNS.to_vec(), registry::ids());
        let serve = serve_points();
        assert!(serve.iter().all(|p| p.design != "rfh" && p.design != "rfv"));
        assert_eq!(serve.len(), rodinia::NAMES.len() * 6);
    }

    #[test]
    fn same_seed_same_list_other_seed_other_list() {
        let points = sweep_points();
        let a = permuted(&points, 7, 0);
        assert_eq!(a, permuted(&points, 7, 0));
        assert_ne!(a, permuted(&points, 8, 0));
        assert_ne!(a, permuted(&points, 7, 1), "passes differ");
        let ops = serve_ops(serve_points().len(), 7, 2);
        assert_eq!(ops, serve_ops(serve_points().len(), 7, 2));
        assert_ne!(ops, serve_ops(serve_points().len(), 8, 2));
    }

    #[test]
    fn seeds_change_order_not_work() {
        let points = sweep_points();
        let mut a = permuted(&points, 1, 0);
        let mut b = permuted(&points, 2, 0);
        let key = |p: &Point| format!("{}|{:?}", p.bench, p.kind);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "a permutation: same multiset of points");
        let mut ops = serve_ops(10, 3, 4);
        let mut other = serve_ops(10, 4, 4);
        ops.sort_by_key(|o| (o.point, o.kind));
        other.sort_by_key(|o| (o.point, o.kind));
        assert_eq!(ops, other);
        assert_eq!(ops.len(), 10 * SERVE_KINDS.len() * 4);
    }
}
