//! Vassago \[31\]: efficient and authenticated provenance queries across
//! multiple blockchains.
//!
//! Vassago's insight: record cross-chain transaction *dependencies* on a
//! dedicated dependency blockchain. A provenance query then (1) reads the
//! dependency chain once to learn which chains hold segments of the asset's
//! history, and (2) queries those chains **in parallel**, verifying each
//! segment with Merkle inclusion proofs against relayed headers. The
//! baseline must instead *walk* the chains sequentially, discovering each
//! hop only from the previous chain's records.
//!
//! Experiment E6 sweeps the hop count: sequential latency grows linearly,
//! Vassago's stays flat at (dependency lookup + one parallel round).

use crate::relay::RelayChain;
use blockprov_core::{CoreError, LedgerConfig, ProvenanceLedger};
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::model::{Action, Domain, ProvenanceRecord, RecordId};
use blockprov_provenance::query::ProvQuery;
use std::collections::BTreeMap;
use std::fmt;

/// One dependency entry: "hop `hop` of `asset` lives on `chain` as `record`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEntry {
    /// Asset identifier.
    pub asset: String,
    /// Hop index (0 = creation).
    pub hop: u32,
    /// Shard chain index.
    pub chain: usize,
    /// Record on that shard.
    pub record: RecordId,
}

/// The dependency blockchain: an ordered, ledger-anchored log of
/// cross-chain dependencies.
pub struct DependencyChain {
    ledger: ProvenanceLedger,
    agent: AccountId,
    entries: BTreeMap<String, Vec<DepEntry>>,
}

impl Default for DependencyChain {
    fn default() -> Self {
        Self::new()
    }
}

impl DependencyChain {
    /// Create the dependency chain.
    pub fn new() -> Self {
        let mut ledger =
            ProvenanceLedger::open(LedgerConfig::consortium(4).with_domain(Domain::Generic));
        let agent = ledger
            .register_agent("dependency-keeper")
            .expect("register keeper");
        Self {
            ledger,
            agent,
            entries: BTreeMap::new(),
        }
    }

    /// Append a dependency entry (anchored on the dependency ledger).
    pub fn append(&mut self, entry: DepEntry) -> Result<(), CoreError> {
        let ts = self.ledger.advance_clock();
        let record = ProvenanceRecord::new(
            &format!("dep:{}", entry.asset),
            self.agent,
            Action::Custom("dependency".into()),
            ts,
            Domain::Generic,
        )
        .with_field("hop", &entry.hop.to_string())
        .with_field("chain", &entry.chain.to_string())
        .with_field("record", &entry.record.to_string());
        self.ledger.submit_record(record, &[])?;
        self.ledger.seal_block()?;
        self.entries
            .entry(entry.asset.clone())
            .or_default()
            .push(entry);
        Ok(())
    }

    /// All dependencies of an asset, in hop order.
    pub fn dependencies_of(&self, asset: &str) -> &[DepEntry] {
        self.entries.get(asset).map_or(&[], Vec::as_slice)
    }
}

/// Query failure modes.
#[derive(Debug)]
pub enum VassagoError {
    /// Asset has no recorded history.
    UnknownAsset(String),
    /// A shard segment failed authentication.
    AuthenticationFailed {
        /// The failing shard.
        chain: usize,
    },
    /// Ledger failure.
    Core(CoreError),
}

impl fmt::Display for VassagoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VassagoError::UnknownAsset(a) => write!(f, "unknown asset {a}"),
            VassagoError::AuthenticationFailed { chain } => {
                write!(f, "segment from shard {chain} failed verification")
            }
            VassagoError::Core(e) => write!(f, "ledger: {e}"),
        }
    }
}

impl std::error::Error for VassagoError {}

impl From<CoreError> for VassagoError {
    fn from(e: CoreError) -> Self {
        VassagoError::Core(e)
    }
}

/// Result of a cross-chain provenance query (experiment E6 row).
#[derive(Debug, Clone)]
pub struct CrossQueryReport {
    /// The queried asset.
    pub asset: String,
    /// Number of distinct shard chains involved.
    pub chains_involved: usize,
    /// Records retrieved, in hop order.
    pub records: Vec<RecordId>,
    /// Whether every segment authenticated against relayed headers.
    pub authenticated: bool,
    /// Simulated latency of the sequential chain walk (ms).
    pub sequential_latency_ms: u64,
    /// Simulated latency of the Vassago parallel query (ms).
    pub parallel_latency_ms: u64,
    /// Chain round trips issued by the sequential walk.
    pub sequential_accesses: u64,
    /// Chain round trips issued by the parallel query (incl. dep chain).
    pub parallel_accesses: u64,
}

/// A network of shard chains plus the dependency chain and a relay.
pub struct VassagoNetwork {
    shards: Vec<ProvenanceLedger>,
    shard_agents: Vec<AccountId>,
    deps: DependencyChain,
    relay: RelayChain,
    /// Simulated per-round-trip chain access latency (ms).
    pub access_latency_ms: u64,
}

impl VassagoNetwork {
    /// Create `n` shard chains.
    pub fn new(n: usize) -> Self {
        let mut shards = Vec::with_capacity(n);
        let mut shard_agents = Vec::with_capacity(n);
        let mut relay = RelayChain::new();
        for i in 0..n {
            let mut ledger = ProvenanceLedger::open(
                LedgerConfig::private_default().with_domain(Domain::Generic),
            );
            let agent = ledger
                .register_agent(&format!("shard-{i}-operator"))
                .expect("register");
            shards.push(ledger);
            shard_agents.push(agent);
            relay.register_chain(&format!("shard-{i}"));
        }
        Self {
            shards,
            shard_agents,
            deps: DependencyChain::new(),
            relay,
            access_latency_ms: 20,
        }
    }

    /// Number of shard chains.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    fn record_hop(
        &mut self,
        shard: usize,
        asset: &str,
        hop: u32,
        action: Action,
        prev_chain: Option<usize>,
    ) -> Result<RecordId, VassagoError> {
        let ledger = &mut self.shards[shard];
        let ts = ledger.advance_clock();
        let mut record =
            ProvenanceRecord::new(asset, self.shard_agents[shard], action, ts, Domain::Generic)
                .with_field("hop", &hop.to_string());
        // The sequential walk discovers the previous chain from this field.
        if let Some(prev) = prev_chain {
            record = record.with_field("handoff_from", &prev.to_string());
        }
        let rid = ledger.submit_record(record, &[])?;
        ledger.seal_block()?;
        // Publish the new header to the relay.
        let height = ledger.chain().height();
        let header = ledger.chain().block_at(height).expect("tip").header.clone();
        self.relay
            .submit_header(&format!("shard-{shard}"), header)
            .ok();
        Ok(rid)
    }

    /// Create an asset on a shard (hop 0) and register the dependency.
    pub fn create_asset(&mut self, asset: &str, shard: usize) -> Result<RecordId, VassagoError> {
        // Sync any missing headers first (genesis etc.).
        self.sync_headers(shard);
        let rid = self.record_hop(shard, asset, 0, Action::Create, None)?;
        self.deps.append(DepEntry {
            asset: asset.to_string(),
            hop: 0,
            chain: shard,
            record: rid,
        })?;
        Ok(rid)
    }

    fn sync_headers(&mut self, shard: usize) {
        let id = format!("shard-{shard}");
        let from = self.relay.tip_height(&id).map_or(0, |h| h + 1);
        for height in from..=self.shards[shard].chain().height() {
            let header = self.shards[shard]
                .chain()
                .block_at(height)
                .expect("canonical")
                .header
                .clone();
            let _ = self.relay.submit_header(&id, header);
        }
    }

    /// Transfer an asset to another shard (next hop) with dependency entry.
    pub fn transfer_asset(
        &mut self,
        asset: &str,
        to_shard: usize,
    ) -> Result<RecordId, VassagoError> {
        let history = self.deps.dependencies_of(asset);
        let last = history
            .last()
            .ok_or_else(|| VassagoError::UnknownAsset(asset.to_string()))?
            .clone();
        self.sync_headers(to_shard);
        let rid = self.record_hop(
            to_shard,
            asset,
            last.hop + 1,
            Action::Transfer,
            Some(last.chain),
        )?;
        self.deps.append(DepEntry {
            asset: asset.to_string(),
            hop: last.hop + 1,
            chain: to_shard,
            record: rid,
        })?;
        Ok(rid)
    }

    fn authenticate_segment(&self, shard: usize, record: &RecordId) -> bool {
        let Ok(proof) = self.shards[shard].prove_record(record) else {
            return false;
        };
        self.relay
            .verify_inclusion(&format!("shard-{shard}"), &proof.inclusion)
            .unwrap_or(false)
    }

    /// Execute the cross-chain provenance query both ways and report.
    pub fn trace_asset(&self, asset: &str) -> Result<CrossQueryReport, VassagoError> {
        let deps = self.deps.dependencies_of(asset);
        if deps.is_empty() {
            return Err(VassagoError::UnknownAsset(asset.to_string()));
        }

        // --- Vassago path: one dependency lookup, then parallel fan-out. ---
        let mut records = Vec::with_capacity(deps.len());
        let mut authenticated = true;
        let mut involved: Vec<usize> = Vec::new();
        for dep in deps {
            if !involved.contains(&dep.chain) {
                involved.push(dep.chain);
            }
            records.push(dep.record);
            if !self.authenticate_segment(dep.chain, &dep.record) {
                authenticated = false;
            }
        }
        // Parallel latency: dep-chain lookup + the slowest shard round trip.
        let parallel_latency = self.access_latency_ms + self.access_latency_ms;
        let parallel_accesses = 1 + involved.len() as u64;

        // --- Sequential baseline: walk hops backwards chain by chain. ---
        // The querier starts from the latest hop's chain (that much is
        // public) and discovers each predecessor only from the fetched
        // record, so accesses cannot overlap.
        let mut sequential_accesses = 0u64;
        let mut cursor = deps.last().map(|d| d.chain);
        let mut walked = 0usize;
        while let Some(shard) = cursor {
            sequential_accesses += 1;
            walked += 1;
            // Fetch the record for this hop and read its handoff pointer.
            let dep = &deps[deps.len() - walked];
            let record = self.shards[shard].record(&dep.record);
            cursor = record.and_then(|r| {
                r.fields
                    .get("handoff_from")
                    .and_then(|s| s.parse::<usize>().ok())
            });
        }
        let sequential_latency = sequential_accesses * self.access_latency_ms;

        Ok(CrossQueryReport {
            asset: asset.to_string(),
            chains_involved: involved.len(),
            records,
            authenticated,
            sequential_latency_ms: sequential_latency,
            parallel_latency_ms: parallel_latency,
            sequential_accesses,
            parallel_accesses,
        })
    }

    /// Query history of an asset on one shard (intra-chain component).
    pub fn shard_history(&mut self, shard: usize, asset: &str) -> Vec<RecordId> {
        self.shards[shard]
            .query(&ProvQuery::BySubject(asset.to_string()))
            .ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a network and walk an asset across `hops` chains.
    fn traced(hops: usize) -> (VassagoNetwork, CrossQueryReport) {
        let mut net = VassagoNetwork::new(hops.max(2));
        net.create_asset("shipment-1", 0).unwrap();
        for hop in 1..hops {
            net.transfer_asset("shipment-1", hop % net.n_shards())
                .unwrap();
        }
        let report = net.trace_asset("shipment-1").unwrap();
        (net, report)
    }

    #[test]
    fn trace_collects_all_hops_in_order() {
        let (net, report) = traced(5);
        assert_eq!(report.records.len(), 5);
        assert_eq!(report.chains_involved, 5);
        assert!(report.authenticated, "all segments verified via relay");
        let deps = net.deps.dependencies_of("shipment-1");
        let hops: Vec<u32> = deps.iter().map(|d| d.hop).collect();
        assert_eq!(hops, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_latency_flat_sequential_linear() {
        let (_, r3) = traced(3);
        let (_, r9) = traced(9);
        // Sequential grows with hop count…
        assert_eq!(r3.sequential_accesses, 3);
        assert_eq!(r9.sequential_accesses, 9);
        assert!(r9.sequential_latency_ms > r3.sequential_latency_ms * 2);
        // …Vassago's latency does not (1 dep lookup + 1 parallel round).
        assert_eq!(r3.parallel_latency_ms, r9.parallel_latency_ms);
        assert!(r9.parallel_latency_ms < r9.sequential_latency_ms);
    }

    #[test]
    fn unknown_asset_errors() {
        let net = VassagoNetwork::new(2);
        assert!(matches!(
            net.trace_asset("ghost"),
            Err(VassagoError::UnknownAsset(_))
        ));
    }

    #[test]
    fn authentication_detects_missing_relay_data() {
        let mut net = VassagoNetwork::new(3);
        net.create_asset("a", 0).unwrap();
        net.transfer_asset("a", 1).unwrap();
        // Sabotage: rebuild the relay with no headers for shard 1.
        net.relay = {
            let mut fresh = RelayChain::new();
            for i in 0..3 {
                fresh.register_chain(&format!("shard-{i}"));
            }
            fresh
        };
        // Re-sync only shard 0.
        net.sync_headers(0);
        let report = net.trace_asset("a").unwrap();
        assert!(!report.authenticated, "shard-1 segment cannot verify");
    }

    #[test]
    fn dependency_chain_is_anchored() {
        let (net, _) = traced(4);
        // One sealed block per dependency entry.
        assert_eq!(net.deps.ledger.chain().height(), 4);
        net.deps.ledger.verify_chain().unwrap();
    }

    #[test]
    fn shard_history_returns_local_segment() {
        let (mut net, _) = traced(3);
        // Hop 0 lives on shard 0.
        let h0 = net.shard_history(0, "shipment-1");
        assert_eq!(h0.len(), 1);
    }

    #[test]
    fn revisiting_a_chain_counts_once_for_parallel_fanout() {
        // 4 hops over 2 chains: 0 → 1 → 0 → 1.
        let mut net = VassagoNetwork::new(2);
        net.create_asset("x", 0).unwrap();
        net.transfer_asset("x", 1).unwrap();
        net.transfer_asset("x", 0).unwrap();
        net.transfer_asset("x", 1).unwrap();
        let report = net.trace_asset("x").unwrap();
        assert_eq!(report.chains_involved, 2);
        assert_eq!(report.parallel_accesses, 3, "dep chain + 2 shards");
        assert_eq!(report.sequential_accesses, 4, "one walk step per hop");
    }
}
