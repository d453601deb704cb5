//! Group signatures: anonymous, unlinkable signing with manager-only
//! opening.
//!
//! Abouyoussef et al. \[3\] build pandemic-diagnostics privacy on group
//! signatures ("privacy through group signature and random numbers,
//! supporting anonymity and data unlinkability"). This module provides the
//! same interface from hash-based primitives:
//!
//! * A **group manager** collects one-time WOTS leaf public keys from each
//!   member (never their secrets), shuffles them under a secret permutation,
//!   and publishes the Merkle root as the [`GroupPublicKey`].
//! * A **member** signs by consuming one of its leaves: the signature is a
//!   WOTS one-time signature plus the Merkle authentication path to the
//!   group root.
//! * Any verifier checks a signature against the 32-byte group root alone —
//!   learning only "some group member signed".
//! * Only the manager, holding the leaf→member **opening table**, can
//!   attribute a signature ([`GroupManager::open`]).
//!
//! Anonymity rests on leaf public keys being HMAC outputs (indistinguishable
//! from random without the member seed) and on the shuffled leaf order;
//! unlinkability holds because every signature consumes a fresh leaf, so two
//! signatures by the same member share no state a verifier can correlate.
//! Each member's signing capacity is fixed at enrollment (`per_member`
//! leaves) — the hash-based analogue of e-cash-style one-use credentials.

use crate::hmac::{hmac_sha256_parts, HmacDrbg};
use crate::merkle::{leaf_hash, MerkleProof, MerkleTree};
use crate::sha256::{Hash256, Sha256};
use crate::sig::{wots_leaf_pk, wots_recover_pk, wots_sign};
use blockprov_wire::{decode_seq, encode_seq, Codec, Reader, WireError, Writer};
use std::collections::HashMap;
use std::fmt;

/// Errors from group-signature operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupSigError {
    /// The member has consumed all of its enrolled one-time leaves.
    CredentialsExhausted,
    /// A group needs at least one member with at least one leaf.
    EmptyGroup,
}

impl fmt::Display for GroupSigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupSigError::CredentialsExhausted => {
                write!(f, "member has no unused one-time credentials left")
            }
            GroupSigError::EmptyGroup => write!(f, "group must have members and capacity"),
        }
    }
}

impl std::error::Error for GroupSigError {}

/// The public verification key of a group: a Merkle root over all members'
/// shuffled one-time leaf keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupPublicKey {
    /// Merkle root of the shuffled leaf public keys.
    pub root: Hash256,
    /// Total leaves in the group tree.
    pub leaves: u64,
}

impl Codec for GroupPublicKey {
    fn encode(&self, w: &mut Writer) {
        self.root.encode(w);
        w.put_u64(self.leaves);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            root: Hash256::decode(r)?,
            leaves: r.get_u64()?,
        })
    }
}

/// An anonymous signature by some group member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSignature {
    /// Position of the consumed leaf in the (shuffled) group tree.
    pub leaf_index: u64,
    /// WOTS one-time signature parts.
    pub ots: Vec<Hash256>,
    /// Authentication path from the leaf to the group root.
    pub auth_path: MerkleProof,
}

impl Codec for GroupSignature {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.leaf_index);
        encode_seq(&self.ots, w);
        self.auth_path.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            leaf_index: r.get_varint()?,
            ots: decode_seq(r)?,
            auth_path: MerkleProof::decode(r)?,
        })
    }
}

impl GroupSignature {
    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.to_wire().len()
    }
}

/// One enrolled credential held by a member: a tree position plus its
/// authentication path.
#[derive(Debug, Clone)]
struct Credential {
    /// Member-local slot (selects the WOTS secrets).
    slot: u64,
    /// Position in the group tree.
    leaf_index: u64,
    /// Path from the leaf to the group root.
    auth_path: MerkleProof,
}

/// A member's signing handle. Holds the member seed (secrets never leave
/// this struct) and the unused credentials.
pub struct GroupMember {
    name: String,
    seed: [u8; 32],
    credentials: Vec<Credential>,
    used: usize,
}

impl fmt::Debug for GroupMember {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupMember")
            .field("name", &self.name)
            .field("remaining", &self.remaining())
            .finish_non_exhaustive()
    }
}

impl GroupMember {
    /// Member display name (local knowledge; never appears in signatures).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Unused one-time credentials.
    pub fn remaining(&self) -> usize {
        self.credentials.len() - self.used
    }

    /// Sign `msg` anonymously, consuming one credential.
    pub fn sign(&mut self, msg: &[u8]) -> Result<GroupSignature, GroupSigError> {
        let cred = self
            .credentials
            .get(self.used)
            .ok_or(GroupSigError::CredentialsExhausted)?;
        self.used += 1;
        let digest = group_digest(msg);
        Ok(GroupSignature {
            leaf_index: cred.leaf_index,
            ots: wots_sign(&self.seed, cred.slot, &digest),
            auth_path: cred.auth_path.clone(),
        })
    }
}

/// The group manager: issues the group, holds the opening table.
pub struct GroupManager {
    group_pk: GroupPublicKey,
    /// leaf index in the group tree → member name.
    opening: HashMap<u64, String>,
}

impl fmt::Debug for GroupManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupManager")
            .field("root", &self.group_pk.root)
            .field("leaves", &self.group_pk.leaves)
            .finish_non_exhaustive()
    }
}

impl GroupManager {
    /// Enroll `members` with `per_member` one-time credentials each.
    ///
    /// `group_seed` drives the secret shuffle of leaves (and member seeds in
    /// this simulation — a production deployment would have members submit
    /// leaf public keys generated from their own entropy; the manager-side
    /// math is identical).
    pub fn setup(
        group_seed: &[u8],
        members: &[&str],
        per_member: usize,
    ) -> Result<(GroupManager, Vec<GroupMember>), GroupSigError> {
        if members.is_empty() || per_member == 0 {
            return Err(GroupSigError::EmptyGroup);
        }
        // Per-member seeds (stand-in for member-generated entropy).
        let member_seeds: Vec<[u8; 32]> = members
            .iter()
            .map(|m| hmac_sha256_parts(group_seed, &[b"groupsig-member-seed", m.as_bytes()]).0)
            .collect();

        // Every (member, slot) pair contributes one leaf public key.
        let mut slots: Vec<(usize, u64, Hash256)> = Vec::with_capacity(members.len() * per_member);
        for (mi, seed) in member_seeds.iter().enumerate() {
            for slot in 0..per_member as u64 {
                slots.push((mi, slot, wots_leaf_pk(seed, slot)));
            }
        }

        // Secret shuffle: leaf order must not group members together,
        // otherwise leaf_index ranges would leak identity.
        let mut drbg =
            HmacDrbg::new(hmac_sha256_parts(group_seed, &[b"groupsig-shuffle"]).as_bytes());
        drbg.shuffle(&mut slots);

        let leaf_hashes: Vec<Hash256> = slots
            .iter()
            .map(|(_, _, pk)| leaf_hash(pk.as_bytes()))
            .collect();
        let tree = MerkleTree::from_leaf_hashes(leaf_hashes);
        let group_pk = GroupPublicKey {
            root: tree.root(),
            leaves: slots.len() as u64,
        };

        let mut opening = HashMap::with_capacity(slots.len());
        let mut credentials: Vec<Vec<Credential>> = vec![Vec::new(); members.len()];
        for (leaf_index, (mi, slot, _)) in slots.iter().enumerate() {
            opening.insert(leaf_index as u64, members[*mi].to_string());
            credentials[*mi].push(Credential {
                slot: *slot,
                leaf_index: leaf_index as u64,
                auth_path: tree.prove(leaf_index).expect("leaf in range"),
            });
        }

        let member_handles = members
            .iter()
            .zip(member_seeds)
            .zip(credentials)
            .map(|((name, seed), credentials)| GroupMember {
                name: name.to_string(),
                seed,
                credentials,
                used: 0,
            })
            .collect();

        Ok((GroupManager { group_pk, opening }, member_handles))
    }

    /// The public verification key.
    pub fn group_public_key(&self) -> GroupPublicKey {
        self.group_pk
    }

    /// Attribute a *valid* signature to its member. Returns None for
    /// signatures that do not verify (refusing to "open" forgeries prevents
    /// framing) or whose leaf is unknown.
    pub fn open(&self, msg: &[u8], sig: &GroupSignature) -> Option<&str> {
        if !verify_group(&self.group_pk, msg, sig) {
            return None;
        }
        self.opening.get(&sig.leaf_index).map(String::as_str)
    }
}

/// Domain-separated digest for group signing.
fn group_digest(msg: &[u8]) -> Hash256 {
    Sha256::new()
        .chain(b"blockprov-groupsig-v1")
        .chain(msg)
        .finalize()
}

/// Verify an anonymous signature against the group public key.
pub fn verify_group(pk: &GroupPublicKey, msg: &[u8], sig: &GroupSignature) -> bool {
    if sig.leaf_index >= pk.leaves {
        return false;
    }
    let digest = group_digest(msg);
    let Some(leaf_pk) = wots_recover_pk(&digest, &sig.ots) else {
        return false;
    };
    sig.auth_path
        .verify_leaf_hash(&pk.root, &leaf_hash(leaf_pk.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn small_group() -> (GroupManager, Vec<GroupMember>) {
        GroupManager::setup(b"clinic-group-1", &["alice", "bob", "carol"], 4).unwrap()
    }

    #[test]
    fn member_signature_verifies_against_group_root() {
        let (mgr, mut members) = small_group();
        let pk = mgr.group_public_key();
        let sig = members[0].sign(b"symptoms: fever").unwrap();
        assert!(verify_group(&pk, b"symptoms: fever", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let (mgr, mut members) = small_group();
        let pk = mgr.group_public_key();
        let sig = members[1].sign(b"original").unwrap();
        assert!(!verify_group(&pk, b"altered", &sig));
    }

    #[test]
    fn non_member_cannot_forge() {
        let (mgr, _) = small_group();
        let (_, mut outsiders) = GroupManager::setup(b"another-group", &["mallory"], 2).unwrap();
        let sig = outsiders[0].sign(b"let me in").unwrap();
        assert!(!verify_group(&mgr.group_public_key(), b"let me in", &sig));
    }

    #[test]
    fn manager_opens_to_correct_member() {
        let (mgr, mut members) = small_group();
        for expected in ["alice", "bob", "carol"] {
            let m = members.iter_mut().find(|m| m.name() == expected).unwrap();
            let sig = m.sign(b"report").unwrap();
            assert_eq!(mgr.open(b"report", &sig), Some(expected));
        }
    }

    #[test]
    fn open_refuses_invalid_signatures() {
        let (mgr, mut members) = small_group();
        let mut sig = members[0].sign(b"msg").unwrap();
        sig.ots[3] = sha256(b"tamper");
        assert_eq!(mgr.open(b"msg", &sig), None);
    }

    #[test]
    fn signatures_are_unlinkable_fresh_leaves() {
        let (mgr, mut members) = small_group();
        let pk = mgr.group_public_key();
        let s1 = members[2].sign(b"first").unwrap();
        let s2 = members[2].sign(b"second").unwrap();
        // Different one-time leaves, no shared OTS material.
        assert_ne!(s1.leaf_index, s2.leaf_index);
        assert!(s1.ots.iter().all(|p| !s2.ots.contains(p)));
        assert!(verify_group(&pk, b"first", &s1));
        assert!(verify_group(&pk, b"second", &s2));
        // Yet the manager links both to carol.
        assert_eq!(mgr.open(b"first", &s1), Some("carol"));
        assert_eq!(mgr.open(b"second", &s2), Some("carol"));
    }

    #[test]
    fn leaf_indices_do_not_cluster_by_member() {
        // With a secret shuffle, a member's first credential should not
        // simply be `member_index * per_member`.
        let (_, members) = small_group();
        let firsts: Vec<u64> = members
            .iter()
            .map(|m| m.credentials[0].leaf_index)
            .collect();
        assert_ne!(firsts, vec![0, 4, 8], "shuffle must break enrollment order");
    }

    #[test]
    fn capacity_is_enforced() {
        let (_, mut members) = GroupManager::setup(b"tiny", &["solo"], 2).unwrap();
        members[0].sign(b"a").unwrap();
        members[0].sign(b"b").unwrap();
        assert_eq!(members[0].remaining(), 0);
        assert_eq!(
            members[0].sign(b"c"),
            Err(GroupSigError::CredentialsExhausted)
        );
    }

    #[test]
    fn empty_group_rejected() {
        assert_eq!(
            GroupManager::setup(b"x", &[], 4).err(),
            Some(GroupSigError::EmptyGroup)
        );
        assert_eq!(
            GroupManager::setup(b"x", &["a"], 0).err(),
            Some(GroupSigError::EmptyGroup)
        );
    }

    #[test]
    fn signature_codec_round_trip() {
        let (mgr, mut members) = small_group();
        let sig = members[0].sign(b"wire").unwrap();
        let back = GroupSignature::from_wire(&sig.to_wire()).unwrap();
        assert_eq!(back, sig);
        assert!(verify_group(&mgr.group_public_key(), b"wire", &back));
        let pk = mgr.group_public_key();
        assert_eq!(GroupPublicKey::from_wire(&pk.to_wire()).unwrap(), pk);
    }

    #[test]
    fn replayed_leaf_cannot_sign_second_message() {
        // A verifier-side double-spend check: the same leaf signing two
        // different messages reveals reuse; on-chain consumers track used
        // leaf indices. Here we check the signature itself cannot be
        // transplanted onto a new message.
        let (mgr, mut members) = small_group();
        let pk = mgr.group_public_key();
        let sig = members[0].sign(b"msg-one").unwrap();
        let forged = GroupSignature {
            leaf_index: sig.leaf_index,
            ots: sig.ots.clone(),
            auth_path: sig.auth_path.clone(),
        };
        assert!(!verify_group(&pk, b"msg-two", &forged));
    }
}
