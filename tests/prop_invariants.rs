//! Workspace-level property tests: invariants that must hold for arbitrary
//! inputs across crate boundaries.

use blockprov::crypto::merkle::MerkleTree;
use blockprov::crypto::rangeproof::RangeWitness;
use blockprov::crypto::sha256::sha256;
use blockprov::ledger::block::{Block, BlockHash};
use blockprov::ledger::chain::{Chain, ChainConfig};
use blockprov::ledger::tx::{AccountId, Transaction};
use blockprov::provenance::{Action, Domain, ProvenanceRecord};
use blockprov::wire::Codec;
use proptest::prelude::*;

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Create),
        Just(Action::Read),
        Just(Action::Update),
        Just(Action::Delete),
        Just(Action::Share),
        Just(Action::Transfer),
        Just(Action::Execute),
        Just(Action::Invalidate),
        "[a-z]{1,12}".prop_map(Action::Custom),
    ]
}

fn arb_domain() -> impl Strategy<Value = Domain> {
    prop_oneof![
        Just(Domain::Cloud),
        Just(Domain::SupplyChain),
        Just(Domain::DigitalForensics),
        Just(Domain::ScientificCollaboration),
        Just(Domain::Healthcare),
        Just(Domain::MachineLearning),
        Just(Domain::Generic),
    ]
}

prop_compose! {
    fn arb_record()(
        subject in "[a-z0-9./-]{1,24}",
        agent in "[a-z]{1,10}",
        action in arb_action(),
        ts in 0u64..u64::MAX / 2,
        domain in arb_domain(),
        fields in proptest::collection::btree_map("[a-z_]{1,12}", "[ -~]{0,32}", 0..6),
        content in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..64)),
    ) -> ProvenanceRecord {
        let mut r = ProvenanceRecord::new(&subject, AccountId::from_name(&agent), action, ts, domain);
        r.fields = fields;
        if let Some(c) = content {
            r = r.with_content(&c);
        }
        r
    }
}

proptest! {
    /// Provenance records round-trip through the wire format with stable ids.
    #[test]
    fn record_codec_round_trip(record in arb_record()) {
        let bytes = record.to_wire();
        let decoded = ProvenanceRecord::from_wire(&bytes).unwrap();
        prop_assert_eq!(&decoded, &record);
        prop_assert_eq!(decoded.id(), record.id());
        // Canonical: re-encoding yields identical bytes.
        prop_assert_eq!(decoded.to_wire(), bytes);
    }

    /// Transactions round-trip and ids ignore nothing that matters.
    #[test]
    fn transaction_codec_round_trip(
        author in "[a-z]{1,10}",
        nonce in any::<u64>(),
        ts in any::<u64>(),
        kind in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let tx = Transaction::new(AccountId::from_name(&author), nonce, ts, kind, payload);
        let decoded = Transaction::from_wire(&tx.to_wire()).unwrap();
        prop_assert_eq!(decoded.id(), tx.id());
        prop_assert_eq!(decoded, tx);
    }

    /// Merkle proofs verify for every leaf of an arbitrary tree, and fail
    /// for any other tree's root.
    #[test]
    fn merkle_inclusion_sound_and_complete(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..40),
        probe in any::<prop::sample::Index>(),
    ) {
        let tree = MerkleTree::from_data(&leaves);
        let i = probe.index(leaves.len());
        let proof = tree.prove(i).unwrap();
        prop_assert!(proof.verify_data(&tree.root(), &leaves[i]));
        // Alter the leaf: verification must fail.
        let mut tampered = leaves[i].clone();
        tampered.push(0xFF);
        prop_assert!(!proof.verify_data(&tree.root(), &tampered));
    }

    /// Any single-byte corruption of a block body is caught by tx-root or
    /// header-hash validation.
    #[test]
    fn block_tamper_detection(
        n_txs in 1usize..8,
        tamper_byte in any::<u8>(),
        position in any::<prop::sample::Index>(),
    ) {
        let txs: Vec<Transaction> = (0..n_txs)
            .map(|i| Transaction::new(AccountId::from_name("a"), i as u64, i as u64, 1, vec![i as u8; 4]))
            .collect();
        let block = Block::assemble(1, BlockHash::ZERO, 1000, AccountId::from_name("p"), 0, txs);
        let original_hash = block.hash();

        let mut bytes = block.to_wire();
        let pos = position.index(bytes.len());
        if bytes[pos] == tamper_byte {
            // No-op corruption: skip.
            return Ok(());
        }
        bytes[pos] ^= tamper_byte | 1;
        match Block::from_wire(&bytes) {
            Err(_) => {} // decoder caught it
            Ok(tampered) => {
                // Either the header changed (hash differs) or the body
                // changed (tx root mismatch).
                prop_assert!(
                    tampered.hash() != original_hash || !tampered.tx_root_valid(),
                    "undetected tamper at byte {pos}"
                );
            }
        }
    }

    /// Range proofs: complete for honest intervals, never constructible for
    /// false ones.
    #[test]
    fn range_proof_completeness_and_soundness(
        value in 0u64..=300,
        lo in 0u64..=300,
        hi in 0u64..=300,
        seed in any::<[u8; 32]>(),
    ) {
        let (witness, commitment) = RangeWitness::commit(value, 300, &seed).unwrap();
        let result = witness.prove(lo, hi);
        if lo <= value && value <= hi {
            let proof = result.unwrap();
            prop_assert!(proof.verify(&commitment));
            // A widened claim on the same proof bytes fails.
            let mut forged = proof.clone();
            if forged.lo > 0 {
                forged.lo -= 1;
                prop_assert!(!forged.verify(&commitment));
            }
        } else {
            prop_assert!(result.is_err());
        }
    }

    /// Appending arbitrary (valid) blocks keeps the chain verifiable, and
    /// lookup indexes agree with block contents.
    #[test]
    fn chain_append_preserves_integrity(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..32), 1..12)
    ) {
        let mut chain = Chain::new(ChainConfig::default());
        for (i, payload) in payloads.iter().enumerate() {
            let tx = Transaction::new(AccountId::from_name("w"), i as u64, i as u64, 1, payload.clone());
            let id = tx.id();
            let block = chain.assemble_next(1000 * (i as u64 + 1), AccountId::from_name("s"), 0, vec![tx]);
            chain.append(block).unwrap();
            let fetched = chain.reader().view().get_tx(&id).unwrap();
            prop_assert_eq!(&fetched.payload, payload);
            let proof = chain.prove_tx(&id).unwrap();
            prop_assert!(proof.verify());
        }
        prop_assert!(chain.verify_integrity().is_ok());
        prop_assert_eq!(chain.height(), payloads.len() as u64);
    }

    /// Account pseudonyms never collide with the real account and are
    /// deterministic per salt.
    #[test]
    fn pseudonyms_unlinkable(name in "[a-z]{1,16}", salt_a in any::<u64>(), salt_b in any::<u64>()) {
        let account = AccountId::from_name(&name);
        let sa = sha256(&salt_a.to_le_bytes());
        let sb = sha256(&salt_b.to_le_bytes());
        prop_assert_ne!(account.pseudonym(&sa), account);
        prop_assert_eq!(account.pseudonym(&sa), account.pseudonym(&sa));
        if salt_a != salt_b {
            prop_assert_ne!(account.pseudonym(&sa), account.pseudonym(&sb));
        }
    }
}
