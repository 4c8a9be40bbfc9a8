//! Readings of the simulator's process-wide metrics registry.

use duplo_sim::json::Json;
use duplo_sim::metrics;

/// Run-cache counters by tier.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheTiers {
    /// Lookups served by the memory tier.
    pub memory: u64,
    /// Lookups served by the disk tier.
    pub disk: u64,
    /// Lookups that waited for an in-flight leader.
    pub flight: u64,
    /// Lookups that simulated.
    pub misses: u64,
}

fn registry() -> Vec<Json> {
    match metrics::snapshot_json(false).get("metrics") {
        Some(Json::Arr(items)) => items.clone(),
        _ => Vec::new(),
    }
}

fn field(items: &[Json], name: &str, key: &str) -> u64 {
    items
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|m| m.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The run-cache tier counters now.
pub fn snapshot() -> CacheTiers {
    let items = registry();
    CacheTiers {
        memory: field(&items, "duplo_cache_hits_total{tier=\"memory\"}", "value"),
        disk: field(&items, "duplo_cache_hits_total{tier=\"disk\"}", "value"),
        flight: field(&items, "duplo_cache_hits_total{tier=\"flight\"}", "value"),
        misses: field(&items, "duplo_cache_misses_total", "value"),
    }
}

/// `duplo_serve_latency_us` (sum, count) now.
pub fn serve_latency() -> (u64, u64) {
    let items = registry();
    (
        field(&items, "duplo_serve_latency_us", "sum"),
        field(&items, "duplo_serve_latency_us", "count"),
    )
}

/// Result-store LRU evictions so far.
pub fn evictions() -> u64 {
    field(
        &registry(),
        "duplo_serve_store_evictions_total{store=\"results\"}",
        "value",
    )
}
