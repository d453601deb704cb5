//! Ledger configuration: the §6.1 design axes as one value.

use blockprov_ledger::chain::{ChainConfig, SignaturePolicy};
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::{CapturePathway, Domain};

/// §6.1 "Blockchain Choice": public vs private vs consortium, and with it
/// the consensus machinery.
#[derive(Debug, Clone)]
pub enum BlockchainKind {
    /// Open-participation chain sealed by proof of work.
    Public {
        /// PoW difficulty in leading zero bits.
        pow_bits: u32,
    },
    /// Private chain sealed round-robin by named authorities.
    Private {
        /// The sealing authorities, in rotation order.
        authorities: Vec<AccountId>,
    },
    /// Consortium chain with stake-weighted leader election.
    Consortium {
        /// `(validator, stake)` table.
        validators: Vec<(AccountId, u64)>,
    },
}

impl BlockchainKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BlockchainKind::Public { .. } => "public/PoW",
            BlockchainKind::Private { .. } => "private/PoA",
            BlockchainKind::Consortium { .. } => "consortium/PoS",
        }
    }
}

/// §6.1 "Provenance Capture" storage decision: everything on-chain, or
/// hash-anchored with payloads off-chain (the ProvChain/IPFS pattern \[33\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    /// Full payload embedded in the transaction.
    OnChainFull,
    /// Only the content digest on-chain; payload in the off-chain store.
    HashAnchored,
}

/// Complete configuration of a [`crate::ProvenanceLedger`].
#[derive(Debug, Clone)]
pub struct LedgerConfig {
    /// Blockchain choice (public/private/consortium).
    pub kind: BlockchainKind,
    /// Capture pathway (Figure 3).
    pub capture: CapturePathway,
    /// Domain schema enforced on records.
    pub domain: Domain,
    /// On-chain vs hash-anchored payload storage.
    pub storage: StorageMode,
    /// Transaction signature enforcement.
    pub signature_policy: SignaturePolicy,
    /// ProvChain-style hashed user identities.
    pub pseudonymize: bool,
    /// Maximum transactions per sealed block.
    pub max_block_txs: usize,
    /// Repeated-query cache capacity (0 disables).
    pub cache_capacity: usize,
    /// Enforce Table 1 required fields on submit.
    pub enforce_schema: bool,
    /// Checkpoint finality depth: blocks this far behind the tip become
    /// irreversible, their fork metadata is pruned and their bodies are
    /// demoted to the block store's cold tier, unless the batch that
    /// finalized them also wrote them (those stay hot). `None` keeps every
    /// fork replayable forever (the seed behaviour).
    pub finality_depth: Option<u64>,
    /// Ignored, and passed through to [`ChainConfig::ingest_threads`]:
    /// batched ingest validates inline on the committing thread at every
    /// setting. Kept only so the benchmark harness keeps compiling
    /// (ROADMAP item 15).
    pub ingest_threads: usize,
}

impl LedgerConfig {
    /// A private single-organization ledger: PoA with one authority,
    /// store-emitted capture, hash-anchored storage — the configuration the
    /// RQ1 cloud-audit scenario uses.
    pub fn private_default() -> Self {
        Self {
            kind: BlockchainKind::Private {
                authorities: vec![AccountId::from_name("authority-0")],
            },
            capture: CapturePathway::DataStoreEmitted,
            domain: Domain::Cloud,
            storage: StorageMode::HashAnchored,
            signature_policy: SignaturePolicy::Off,
            pseudonymize: true,
            max_block_txs: 1_000,
            cache_capacity: 256,
            enforce_schema: true,
            finality_depth: None,
            ingest_threads: 0,
        }
    }

    /// A public PoW-anchored ledger (ProvChain's original deployment model).
    pub fn public_default() -> Self {
        Self {
            kind: BlockchainKind::Public { pow_bits: 8 },
            capture: CapturePathway::UserDirect,
            domain: Domain::Cloud,
            storage: StorageMode::HashAnchored,
            signature_policy: SignaturePolicy::Off,
            pseudonymize: true,
            max_block_txs: 1_000,
            cache_capacity: 256,
            enforce_schema: true,
            finality_depth: None,
            ingest_threads: 0,
        }
    }

    /// A consortium ledger with `n` equal-stake validators.
    pub fn consortium(n: usize) -> Self {
        Self {
            kind: BlockchainKind::Consortium {
                validators: (0..n)
                    .map(|i| (AccountId::from_name(&format!("validator-{i}")), 100))
                    .collect(),
            },
            capture: CapturePathway::ThirdParty {
                decentralized: true,
            },
            domain: Domain::Generic,
            storage: StorageMode::HashAnchored,
            signature_policy: SignaturePolicy::Off,
            pseudonymize: false,
            max_block_txs: 1_000,
            cache_capacity: 256,
            enforce_schema: false,
            finality_depth: None,
            ingest_threads: 0,
        }
    }

    /// Builder: set the domain.
    pub fn with_domain(mut self, domain: Domain) -> Self {
        self.domain = domain;
        self
    }

    /// Builder: set the capture pathway.
    pub fn with_capture(mut self, capture: CapturePathway) -> Self {
        self.capture = capture;
        self
    }

    /// Builder: set the storage mode.
    pub fn with_storage(mut self, storage: StorageMode) -> Self {
        self.storage = storage;
        self
    }

    /// Builder: enable checkpoint finality at `depth` blocks behind the tip.
    pub fn with_finality(mut self, depth: u64) -> Self {
        self.finality_depth = Some(depth);
        self
    }

    /// Builder: set [`LedgerConfig::ingest_threads`], which is ignored.
    /// A no-op kept only so the benchmark harness, which calls it, keeps
    /// compiling (ROADMAP item 15).
    pub fn with_ingest_threads(mut self, threads: usize) -> Self {
        self.ingest_threads = threads;
        self
    }

    /// The chain-level validation parameters this config implies: what a
    /// [`crate::ProvenanceLedger`] opens its chain with, and what anything
    /// else driving the same chain (the node's provenance log) must use to
    /// agree with it on block size, timestamp tolerance and signatures.
    pub fn chain_config(&self) -> ChainConfig {
        ChainConfig {
            signature_policy: self.signature_policy,
            require_pow: matches!(self.kind, BlockchainKind::Public { .. }),
            max_block_txs: self.max_block_txs,
            timestamp_tolerance_ms: 5_000,
            enforce_nonces: false,
            finality_depth: self.finality_depth,
            ingest_threads: self.ingest_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shapes() {
        let p = LedgerConfig::private_default();
        assert!(matches!(p.kind, BlockchainKind::Private { .. }));
        assert_eq!(p.storage, StorageMode::HashAnchored);
        assert!(p.pseudonymize);

        let pu = LedgerConfig::public_default();
        assert!(matches!(pu.kind, BlockchainKind::Public { pow_bits: 8 }));

        let co = LedgerConfig::consortium(4);
        match &co.kind {
            BlockchainKind::Consortium { validators } => assert_eq!(validators.len(), 4),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn builders_override_axes() {
        let c = LedgerConfig::private_default()
            .with_domain(Domain::SupplyChain)
            .with_capture(CapturePathway::MultiSource { sources: 3 })
            .with_storage(StorageMode::OnChainFull);
        assert_eq!(c.domain, Domain::SupplyChain);
        assert_eq!(c.storage, StorageMode::OnChainFull);
    }

    #[test]
    fn labels() {
        assert_eq!(LedgerConfig::private_default().kind.label(), "private/PoA");
        assert_eq!(LedgerConfig::public_default().kind.label(), "public/PoW");
        assert_eq!(LedgerConfig::consortium(2).kind.label(), "consortium/PoS");
    }
}
