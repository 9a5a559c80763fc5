//! Workload definitions, read from `workloads.json` (compiled in, so the
//! binary and the recorded definitions cannot drift apart).

use serde::Deserialize;

/// The serving front of a workload: sessions, fleet shape and polling.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ServeSpec {
    pub sessions: u64,
    pub shards: u64,
    pub placement: String,
    pub steal: bool,
    pub redirect_budget: u32,
    pub queue_limit: u64,
    /// One `GetStats` poll per this many submissions.
    pub stats_every: u64,
}

/// One benchmark workload.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Spec {
    pub name: String,
    pub why: String,
    pub shape: String,
    /// Independent job streams a run cycles through; the simulated
    /// metrics pool all of them.
    pub streams: u64,
    /// Jobs per stream.
    pub jobs: u64,
    pub default_seed: u64,
    /// A seed no tuning used, kept for later claims.
    pub heldout_seed: u64,
    /// `analytic` (Eq. 1 service times) or `cosim` (co-simulated SoCs).
    pub backend: String,
    /// Clusters per machine: per shard when `serve` is set, else the
    /// batch engine's machine.
    pub clusters: u64,
    pub load: f64,
    /// How the Poisson gap is priced against the machine: `admitted`
    /// (mean `M_min × t̂(M_min, N)` over the stream, Eq. 3, as
    /// `serve_study` does) or `reference` (the reference partition, as
    /// `throughput_study` does).
    pub pricing: String,
    pub sizes: Vec<u64>,
    /// `Some` for workloads served through the daemon; `None` for the
    /// batch engine.
    pub serve: Option<ServeSpec>,
}

impl Spec {
    pub fn cosim(&self) -> bool {
        self.backend == "cosim"
    }

    /// Clusters across the whole machine the load is offered to.
    pub fn total_clusters(&self) -> u64 {
        self.clusters * self.serve.as_ref().map_or(1, |s| s.shards)
    }
}

const WORKLOADS: &str = include_str!("../workloads.json");

/// Every workload, in definition order.
pub fn all() -> Vec<Spec> {
    serde_json::from_str(WORKLOADS).expect("workloads.json is well-formed")
}

/// The workload called `name`, if any.
pub fn find(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_parse_and_are_distinct() {
        let specs = all();
        let names: std::collections::BTreeSet<&str> =
            specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), specs.len());
        for s in &specs {
            assert!(s.streams > 0 && s.jobs > 0 && s.load > 0.0 && !s.sizes.is_empty());
            assert_ne!(s.default_seed, s.heldout_seed, "{}", s.name);
            assert!(matches!(s.backend.as_str(), "analytic" | "cosim"));
            assert!(matches!(s.pricing.as_str(), "admitted" | "reference"));
        }
    }
}
