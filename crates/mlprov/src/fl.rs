//! Blockchain-coordinated federated learning with reputation defence
//! (Yang & Li \[84\], BlockDFL \[62\]).
//!
//! Model: workers hold local optima around a true global optimum (non-IID
//! spread widens the per-worker offsets). Each round, every worker submits
//! a gradient toward its local optimum; poisoners submit *reversed*
//! gradients (model-poisoning) and free-riders submit zero gradients.
//! A validation committee holding a small held-out validation set (Yang &
//! Li's validators evaluate candidate updates on their own data; a
//! coordinate-median test alone cannot separate attackers at exactly 50%)
//! scores each update by whether it points toward the validation optimum,
//! reputation is updated from those votes, and the aggregator weighs
//! updates by reputation. Every round is anchored on the ledger as a
//! MachineLearning-domain provenance record.
//!
//! Experiment E9 sweeps the attacker fraction: with reputation weighting the
//! global model keeps converging at 50% attackers; with plain averaging it
//! stalls or diverges — the shape reported by Yang & Li.

use blockprov_core::{CoreError, LedgerConfig, ProvenanceLedger};
use blockprov_crypto::hmac::HmacDrbg;
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::model::{Action, Domain, ProvenanceRecord};
use std::collections::BTreeMap;

/// Worker behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerKind {
    /// Follows the protocol.
    Honest,
    /// Sends reversed gradients (model poisoning).
    Poisoner,
    /// Sends zero gradients (free-riding).
    FreeRider,
}

/// Federation configuration.
#[derive(Debug, Clone)]
pub struct FlConfig {
    /// Number of workers.
    pub workers: usize,
    /// Fraction of workers that poison (0.0–1.0).
    pub poisoner_fraction: f64,
    /// Fraction of workers that free-ride.
    pub freerider_fraction: f64,
    /// Non-IID spread: standard width of per-worker optimum offsets.
    pub non_iid_spread: f64,
    /// Model dimensionality.
    pub dim: usize,
    /// Learning rate.
    pub lr: f64,
    /// Reputation-weighted aggregation on/off (the ablation axis).
    pub use_reputation: bool,
    /// Seed for all randomness.
    pub seed: u64,
}

impl Default for FlConfig {
    fn default() -> Self {
        Self {
            workers: 20,
            poisoner_fraction: 0.0,
            freerider_fraction: 0.0,
            non_iid_spread: 0.5,
            dim: 8,
            lr: 0.3,
            use_reputation: true,
            seed: 42,
        }
    }
}

/// Per-round outcome.
#[derive(Debug, Clone)]
pub struct FlRoundReport {
    /// Round index.
    pub round: u32,
    /// Distance of the global model from the true optimum.
    pub distance: f64,
    /// Mean reputation of honest workers.
    pub honest_reputation: f64,
    /// Mean reputation of adversarial workers (poisoners + free-riders).
    pub adversary_reputation: f64,
}

struct Worker {
    account: AccountId,
    kind: WorkerKind,
    /// Local optimum (true optimum + non-IID offset).
    local_optimum: Vec<f64>,
}

/// The federation coordinator (the role BlockDFL decentralizes; here it is
/// a deterministic state machine whose every decision is ledger-anchored).
pub struct FlCoordinator {
    config: FlConfig,
    ledger: ProvenanceLedger,
    workers: Vec<Worker>,
    reputation: BTreeMap<AccountId, f64>,
    global: Vec<f64>,
    true_optimum: Vec<f64>,
    /// The committee's held-out estimate of the optimum (noisy).
    validation_optimum: Vec<f64>,
    round: u32,
}

impl FlCoordinator {
    /// Build a federation under `config`.
    pub fn new(config: FlConfig) -> Self {
        let mut drbg = HmacDrbg::new(&config.seed.to_le_bytes());
        let mut ledger = ProvenanceLedger::open(
            LedgerConfig::consortium(4).with_domain(Domain::MachineLearning),
        );
        let true_optimum: Vec<f64> = (0..config.dim)
            .map(|_| drbg.next_f64() * 10.0 - 5.0)
            .collect();
        let n_poison = (config.workers as f64 * config.poisoner_fraction).round() as usize;
        let n_free = (config.workers as f64 * config.freerider_fraction).round() as usize;
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let kind = if i < n_poison {
                WorkerKind::Poisoner
            } else if i < n_poison + n_free {
                WorkerKind::FreeRider
            } else {
                WorkerKind::Honest
            };
            let account = ledger
                .register_agent(&format!("worker-{i}"))
                .expect("register worker");
            let local_optimum = true_optimum
                .iter()
                .map(|v| v + (drbg.next_f64() * 2.0 - 1.0) * config.non_iid_spread)
                .collect();
            workers.push(Worker {
                account,
                kind,
                local_optimum,
            });
        }
        let reputation = workers.iter().map(|w| (w.account, 1.0)).collect();
        let global = vec![0.0; config.dim];
        // The validation set approximates the truth imperfectly (it is a
        // finite sample), modeled as bounded noise around the optimum.
        let validation_optimum = true_optimum
            .iter()
            .map(|v| v + (drbg.next_f64() * 2.0 - 1.0) * 0.2)
            .collect();
        Self {
            config,
            ledger,
            workers,
            reputation,
            global,
            true_optimum,
            validation_optimum,
            round: 0,
        }
    }

    /// Distance of the global model from the true optimum.
    pub fn distance(&self) -> f64 {
        self.global
            .iter()
            .zip(&self.true_optimum)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Reputation of a worker.
    pub fn reputation_of(&self, account: &AccountId) -> f64 {
        self.reputation.get(account).copied().unwrap_or(0.0)
    }

    /// Run one federated round. Anchors a round record and returns a report.
    pub fn run_round(&mut self) -> Result<FlRoundReport, CoreError> {
        self.round += 1;
        // 1. Collect updates.
        let updates: Vec<(AccountId, WorkerKind, Vec<f64>)> = self
            .workers
            .iter()
            .map(|w| {
                let grad: Vec<f64> = match w.kind {
                    WorkerKind::Honest => w
                        .local_optimum
                        .iter()
                        .zip(&self.global)
                        .map(|(opt, g)| opt - g)
                        .collect(),
                    WorkerKind::Poisoner => w
                        .local_optimum
                        .iter()
                        .zip(&self.global)
                        .map(|(opt, g)| -(opt - g))
                        .collect(),
                    WorkerKind::FreeRider => vec![0.0; self.config.dim],
                };
                (w.account, w.kind, grad)
            })
            .collect();

        // 2. Committee validation: each update is scored on the held-out
        // validation set — does applying it move the model toward the
        // validation optimum? Poisoned (reversed) updates point away and
        // free-riding (zero) updates make no progress; both lose
        // reputation. This is the external ground truth that lets the
        // defence work even at exactly 50% attackers, where any
        // median/majority test is symmetric and blind.
        let val_dir: Vec<f64> = self
            .validation_optimum
            .iter()
            .zip(&self.global)
            .map(|(o, g)| o - g)
            .collect();
        let val_norm = val_dir.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
        // Once the model sits within the validation set's own noise floor,
        // the committee has no signal left to judge updates with — freeze
        // reputations instead of punishing honest jitter.
        let committee_has_signal = val_norm > 0.75;
        for (account, _, grad) in &updates {
            if !committee_has_signal {
                break;
            }
            let dot: f64 = grad.iter().zip(&val_dir).map(|(a, b)| a * b).sum();
            let grad_norm = grad.iter().map(|v| v * v).sum::<f64>().sqrt();
            // Progress score: cosine alignment scaled by step usefulness.
            let aligned = grad_norm > 1e-9 && dot / (grad_norm * val_norm) > 0.1;
            let rep = self.reputation.get_mut(account).expect("known worker");
            if aligned {
                // Credible update: reputation recovers toward 1.
                *rep = (*rep * 0.9 + 0.1).min(1.0);
            } else {
                // Useless or harmful update: reputation decays hard.
                *rep *= 0.5;
            }
        }

        // 3. Aggregate (reputation-weighted or plain mean).
        let mut agg = vec![0.0; self.config.dim];
        let mut weight_sum = 0.0;
        for (account, _, grad) in &updates {
            let w = if self.config.use_reputation {
                self.reputation[account]
            } else {
                1.0
            };
            weight_sum += w;
            for (a, g) in agg.iter_mut().zip(grad) {
                *a += w * g;
            }
        }
        if weight_sum > 0.0 {
            for a in &mut agg {
                *a /= weight_sum;
            }
        }
        for (g, a) in self.global.iter_mut().zip(&agg) {
            *g += self.config.lr * a;
        }

        // 4. Anchor the round on the ledger.
        let ts = self.ledger.advance_clock();
        let coordinator = self.workers[0].account;
        let record = ProvenanceRecord::new(
            "global-model",
            coordinator,
            Action::Execute,
            ts,
            Domain::MachineLearning,
        )
        .with_field("asset_kind", "model")
        .with_field("training_round", &self.round.to_string())
        .with_field("model_version", &self.round.to_string())
        .with_field("operation", "federated-aggregation")
        .with_field("dataset_ids", &format!("{} workers", self.workers.len()))
        .with_content(format!("{:?}", self.global).as_bytes());
        self.ledger.submit_record(record, &[])?;
        self.ledger.seal_block()?;

        // 5. Report.
        let mean = |kind_filter: &dyn Fn(WorkerKind) -> bool| -> f64 {
            let vals: Vec<f64> = self
                .workers
                .iter()
                .filter(|w| kind_filter(w.kind))
                .map(|w| self.reputation[&w.account])
                .collect();
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        Ok(FlRoundReport {
            round: self.round,
            distance: self.distance(),
            honest_reputation: mean(&|k| k == WorkerKind::Honest),
            adversary_reputation: mean(&|k| k != WorkerKind::Honest),
        })
    }

    /// Run `n` rounds, returning the reports.
    pub fn run(&mut self, n: u32) -> Result<Vec<FlRoundReport>, CoreError> {
        (0..n).map(|_| self.run_round()).collect()
    }

    /// Underlying ledger.
    pub fn ledger(&self) -> &ProvenanceLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(poison: f64, use_reputation: bool, rounds: u32) -> (f64, Vec<FlRoundReport>) {
        let mut fl = FlCoordinator::new(FlConfig {
            poisoner_fraction: poison,
            use_reputation,
            ..FlConfig::default()
        });
        let reports = fl.run(rounds).unwrap();
        (fl.distance(), reports)
    }

    #[test]
    fn honest_federation_converges() {
        let (dist, reports) = run(0.0, true, 25);
        assert!(dist < 1.0, "converged to {dist}");
        // Distance decreases over training.
        assert!(reports.last().unwrap().distance < reports[0].distance);
    }

    #[test]
    fn reputation_separates_honest_from_poisoners() {
        let (_, reports) = run(0.3, true, 20);
        let last = reports.last().unwrap();
        assert!(
            last.honest_reputation > last.adversary_reputation * 2.0,
            "honest {} vs adversary {}",
            last.honest_reputation,
            last.adversary_reputation
        );
    }

    #[test]
    fn reputation_keeps_convergence_under_half_attackers() {
        // The Yang & Li claim: stable under 50% attacks with reputation…
        let (with_rep, _) = run(0.5, true, 30);
        // …and strictly worse without it.
        let (without_rep, _) = run(0.5, false, 30);
        assert!(
            with_rep < without_rep * 0.5,
            "reputation {with_rep} vs plain {without_rep}"
        );
        assert!(with_rep < 2.0, "still converging: {with_rep}");
    }

    #[test]
    fn free_riders_lose_reputation() {
        let mut fl = FlCoordinator::new(FlConfig {
            freerider_fraction: 0.2,
            ..FlConfig::default()
        });
        fl.run(15).unwrap();
        let free_rider = fl
            .workers
            .iter()
            .find(|w| w.kind == WorkerKind::FreeRider)
            .unwrap();
        let honest = fl
            .workers
            .iter()
            .find(|w| w.kind == WorkerKind::Honest)
            .unwrap();
        // Zero updates deviate from the (honest) median once the model is
        // away from the optimum, so free-riders bleed reputation.
        assert!(fl.reputation_of(&free_rider.account) < fl.reputation_of(&honest.account));
    }

    #[test]
    fn rounds_are_anchored_on_the_ledger() {
        let mut fl = FlCoordinator::new(FlConfig::default());
        fl.run(3).unwrap();
        assert_eq!(fl.ledger().chain().height(), 3, "one block per round");
        fl.ledger().verify_chain().unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let (d1, _) = run(0.25, true, 10);
        let (d2, _) = run(0.25, true, 10);
        assert_eq!(d1, d2);
    }

    #[test]
    fn non_iid_spread_slows_convergence() {
        let dist_with_spread = |spread: f64| {
            let mut fl = FlCoordinator::new(FlConfig {
                non_iid_spread: spread,
                ..FlConfig::default()
            });
            fl.run(10).unwrap();
            fl.distance()
        };
        let iid = dist_with_spread(0.01);
        let non_iid = dist_with_spread(3.0);
        assert!(non_iid > iid, "iid {iid} vs non-iid {non_iid}");
    }
}
