//! Proof of Authority: consortium round-robin sealing.
//!
//! Hyperledger-style consortium deployments (Cui et al. \[23\], LedgerView
//! \[66\], MedBlock \[27\]) replace open mining with a fixed authority set —
//! the simplest viable sealer for a private provenance chain, and the
//! default for `blockprov-core`'s private configuration.

use blockprov_ledger::tx::AccountId;

/// An ordered set of block-sealing authorities.
#[derive(Debug, Clone, Default)]
pub struct AuthoritySet {
    authorities: Vec<AccountId>,
}

impl AuthoritySet {
    /// Build from an ordered list (order defines the rotation).
    pub fn new(authorities: Vec<AccountId>) -> Self {
        Self { authorities }
    }

    /// Number of authorities.
    pub fn len(&self) -> usize {
        self.authorities.len()
    }

    /// True if no authority is registered.
    pub fn is_empty(&self) -> bool {
        self.authorities.is_empty()
    }

    /// Whether an account is an authority.
    pub fn contains(&self, who: &AccountId) -> bool {
        self.authorities.contains(who)
    }

    /// The authority expected to seal `height` (round-robin).
    pub fn sealer_for(&self, height: u64) -> Option<AccountId> {
        if self.authorities.is_empty() {
            return None;
        }
        Some(self.authorities[(height % self.authorities.len() as u64) as usize])
    }

    /// Validate that `proposer` may seal `height`.
    pub fn validate_sealer(&self, height: u64, proposer: &AccountId) -> bool {
        self.sealer_for(height).as_ref() == Some(proposer)
    }

    /// Add an authority (governance action).
    pub fn add(&mut self, who: AccountId) {
        if !self.contains(&who) {
            self.authorities.push(who);
        }
    }

    /// Remove an authority.
    pub fn remove(&mut self, who: &AccountId) {
        self.authorities.retain(|a| a != who);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct(n: &str) -> AccountId {
        AccountId::from_name(n)
    }

    #[test]
    fn round_robin_rotation() {
        let set = AuthoritySet::new(vec![acct("a"), acct("b"), acct("c")]);
        assert_eq!(set.sealer_for(0), Some(acct("a")));
        assert_eq!(set.sealer_for(1), Some(acct("b")));
        assert_eq!(set.sealer_for(2), Some(acct("c")));
        assert_eq!(set.sealer_for(3), Some(acct("a")));
        assert!(set.validate_sealer(4, &acct("b")));
        assert!(!set.validate_sealer(4, &acct("a")));
    }

    #[test]
    fn empty_set_seals_nothing() {
        let set = AuthoritySet::default();
        assert_eq!(set.sealer_for(0), None);
        assert!(!set.validate_sealer(0, &acct("a")));
    }

    #[test]
    fn membership_changes() {
        let mut set = AuthoritySet::new(vec![acct("a")]);
        set.add(acct("b"));
        set.add(acct("b")); // idempotent
        assert_eq!(set.len(), 2);
        set.remove(&acct("a"));
        assert_eq!(set.sealer_for(17), Some(acct("b")));
    }
}
