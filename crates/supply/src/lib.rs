//! Supply-chain provenance — Cui et al. \[23\], Islam et al. \[38\] and
//! PrivChain \[52\] reproduced on the blockprov substrate.
//!
//! Mechanisms:
//!
//! * **unique device identity + PUF authentication** — [`PufDevice`]
//!   simulates a physically unclonable function (seeded noisy
//!   challenge-response) so genuine devices
//!   authenticate and clones fail;
//! * **legitimate registration & confirmation-based ownership transfer** —
//!   via the `RegistryContract` from `blockprov-contracts`, with every
//!   custody change anchored as a Table 1 supply-chain record carrying the
//!   accumulated `travel_trace`;
//! * **privacy-preserving telemetry** — cold-chain sensors commit to
//!   readings with hash-chain range commitments and prove "within [lo, hi]"
//!   without revealing values (PrivChain's ZKRP role), earning incentive
//!   credits for valid proofs exactly as PrivChain pays provers.

pub mod food;

use blockprov_contracts::registry::{RegisterArgs, RegistryContract, TransferArgs};
use blockprov_contracts::{ContractError, ContractId, ContractRuntime};
use blockprov_core::{CoreError, LedgerConfig, ProvenanceLedger};
use blockprov_crypto::hmac::{hmac_sha256_parts, HmacDrbg};
use blockprov_crypto::rangeproof::{RangeCommitment, RangeProof, RangeProofError, RangeWitness};
use blockprov_crypto::sha256::{sha256, Hash256};
use blockprov_ledger::tx::AccountId;
use blockprov_provenance::model::{Action, Domain, ProvenanceRecord, RecordId};
use blockprov_wire::Codec;
use std::collections::BTreeMap;
use std::fmt;

/// A simulated physically unclonable function.
///
/// Real PUFs derive responses from silicon process variation and are noisy;
/// we model that as HMAC responses with up to `noise_bits` flipped bits per
/// evaluation. Authentication enrolls a reference response and later accepts
/// responses within Hamming distance `2 * noise_bits`.
#[derive(Debug, Clone)]
pub struct PufDevice {
    secret: [u8; 32],
    noise_bits: u32,
    drbg: HmacDrbg,
}

impl PufDevice {
    /// Manufacture a device (the secret models silicon variation).
    pub fn manufacture(serial: &str, noise_bits: u32) -> Self {
        let secret = sha256(format!("puf-silicon:{serial}").as_bytes()).0;
        Self {
            secret,
            noise_bits,
            drbg: HmacDrbg::new(&secret),
        }
    }

    /// A counterfeit clone: same serial printed on the label, different
    /// silicon ⇒ different secret.
    pub fn counterfeit_of(serial: &str, noise_bits: u32) -> Self {
        let secret = sha256(format!("puf-clone:{serial}").as_bytes()).0;
        Self {
            secret,
            noise_bits,
            drbg: HmacDrbg::new(&secret),
        }
    }

    /// Evaluate the PUF on a challenge (noisy).
    pub fn respond(&mut self, challenge: &Hash256) -> Hash256 {
        let mut response = hmac_sha256_parts(&self.secret, &[challenge.as_bytes()]);
        // Flip up to `noise_bits` random bits.
        for _ in 0..self.noise_bits {
            if self.drbg.chance(0.5) {
                let bit = self.drbg.gen_range(256) as usize;
                response.0[bit / 8] ^= 1 << (bit % 8);
            }
        }
        response
    }

    /// Noise-free reference response (enrollment, done at the factory).
    pub fn enroll(&self, challenge: &Hash256) -> Hash256 {
        hmac_sha256_parts(&self.secret, &[challenge.as_bytes()])
    }
}

/// Hamming distance between two digests.
fn hamming(a: &Hash256, b: &Hash256) -> u32 {
    a.0.iter()
        .zip(b.0.iter())
        .map(|(x, y)| (x ^ y).count_ones())
        .sum()
}

/// PUF verifier state stored per device.
#[derive(Debug, Clone)]
pub struct PufEnrollment {
    challenge: Hash256,
    reference: Hash256,
    tolerance: u32,
}

impl PufEnrollment {
    /// Enroll a device under a fresh challenge.
    pub fn enroll(device: &PufDevice, challenge: Hash256) -> Self {
        Self {
            challenge,
            reference: device.enroll(&challenge),
            tolerance: 2 * device.noise_bits + 4,
        }
    }

    /// Authenticate a (possibly noisy) live response.
    pub fn authenticate(&self, device: &mut PufDevice) -> bool {
        let live = device.respond(&self.challenge);
        hamming(&live, &self.reference) <= self.tolerance
    }
}

/// Supply-chain domain errors.
#[derive(Debug)]
pub enum SupplyError {
    /// Contract rejected the operation.
    Contract(ContractError),
    /// Ledger failure.
    Core(CoreError),
    /// Device unknown.
    UnknownDevice(String),
    /// PUF authentication failed (counterfeit suspected).
    CounterfeitSuspected(String),
    /// Range-proof construction failed.
    RangeProof(RangeProofError),
}

impl fmt::Display for SupplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupplyError::Contract(e) => write!(f, "contract: {e}"),
            SupplyError::Core(e) => write!(f, "ledger: {e}"),
            SupplyError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            SupplyError::CounterfeitSuspected(d) => write!(f, "counterfeit suspected for {d}"),
            SupplyError::RangeProof(e) => write!(f, "range proof: {e}"),
        }
    }
}

impl std::error::Error for SupplyError {}

impl From<ContractError> for SupplyError {
    fn from(e: ContractError) -> Self {
        SupplyError::Contract(e)
    }
}
impl From<CoreError> for SupplyError {
    fn from(e: CoreError) -> Self {
        SupplyError::Core(e)
    }
}
impl From<RangeProofError> for SupplyError {
    fn from(e: RangeProofError) -> Self {
        SupplyError::RangeProof(e)
    }
}

/// Tracked per-device state.
#[derive(Debug)]
struct DeviceState {
    asset: Hash256,
    enrollment: PufEnrollment,
    travel_trace: Vec<String>,
    last_record: Option<RecordId>,
}

/// A published telemetry commitment awaiting (or carrying) its range proof.
#[derive(Debug, Clone)]
pub struct TelemetryEntry {
    /// Committing sensor/account.
    pub sensor: AccountId,
    /// Device the reading belongs to.
    pub device: String,
    /// The on-chain commitment.
    pub commitment: RangeCommitment,
    /// Whether a valid range proof was accepted.
    pub proven: bool,
}

/// The supply-chain ledger: registry contract + provenance + telemetry.
pub struct SupplyLedger {
    ledger: ProvenanceLedger,
    contract: ContractId,
    contract_height: u64,
    devices: BTreeMap<String, DeviceState>,
    telemetry: Vec<TelemetryEntry>,
    /// PrivChain incentive balances (credits for valid proofs).
    credits: BTreeMap<AccountId, u64>,
}

impl SupplyLedger {
    /// Open with the given registrars (manufacturers).
    pub fn new(registrars: Vec<AccountId>) -> Self {
        let config = LedgerConfig::private_default().with_domain(Domain::SupplyChain);
        let mut ledger = ProvenanceLedger::open(config);
        let contract = ledger
            .contracts
            .register(Box::new(RegistryContract::new(registrars)));
        Self {
            ledger,
            contract,
            contract_height: 0,
            devices: BTreeMap::new(),
            telemetry: Vec::new(),
            credits: BTreeMap::new(),
        }
    }

    /// Register a participant (manufacturer, distributor, pharmacy…).
    pub fn register_participant(&mut self, name: &str) -> Result<AccountId, SupplyError> {
        Ok(self.ledger.register_agent(name)?)
    }

    fn invoke(
        &mut self,
        caller: AccountId,
        method: &str,
        args: Vec<u8>,
    ) -> Result<(), SupplyError> {
        self.contract_height += 1;
        self.ledger
            .contracts
            .invoke(
                self.contract,
                caller,
                method,
                &args,
                1_000_000,
                self.contract_height,
                0,
            )
            .map(|_| ())
            .map_err(SupplyError::Contract)
    }

    /// Register a genuine device: unique id enforced by the contract, PUF
    /// enrolled, provenance record anchored.
    pub fn register_device(
        &mut self,
        manufacturer: AccountId,
        device_id: &str,
        device: &PufDevice,
    ) -> Result<RecordId, SupplyError> {
        let asset = sha256(device_id.as_bytes());
        let challenge = sha256(format!("challenge:{device_id}").as_bytes());
        let enrollment = PufEnrollment::enroll(device, challenge);
        let meta = enrollment.reference;
        self.invoke(
            manufacturer,
            "register",
            RegisterArgs { asset, meta }.to_wire(),
        )?;

        let ts = self.ledger.advance_clock();
        let record = ProvenanceRecord::new(
            device_id,
            manufacturer,
            Action::Create,
            ts,
            Domain::SupplyChain,
        )
        .with_field("unique_product_id", device_id)
        .with_field("manufacturer_id", &manufacturer.to_string())
        .with_field("batch_or_lot_number", "lot-0")
        .with_field("manufacturing_date", &ts.to_string())
        .with_field("product_type_or_category", "electronics")
        .with_field("travel_trace", "factory")
        .with_field("quick_access_url_or_qr", &format!("qr://{device_id}"));
        let rid = self.ledger.submit_record(record, &[])?;
        self.devices.insert(
            device_id.to_string(),
            DeviceState {
                asset,
                enrollment,
                travel_trace: vec!["factory".to_string()],
                last_record: Some(rid),
            },
        );
        Ok(rid)
    }

    /// Authenticate a physical device against its enrollment (counterfeit /
    /// clone detection).
    pub fn authenticate_device(
        &mut self,
        device_id: &str,
        device: &mut PufDevice,
    ) -> Result<(), SupplyError> {
        let state = self
            .devices
            .get(device_id)
            .ok_or_else(|| SupplyError::UnknownDevice(device_id.to_string()))?;
        if state.enrollment.authenticate(device) {
            Ok(())
        } else {
            Err(SupplyError::CounterfeitSuspected(device_id.to_string()))
        }
    }

    /// Two-phase ownership transfer with custody provenance.
    pub fn init_transfer(
        &mut self,
        device_id: &str,
        owner: AccountId,
        to: AccountId,
    ) -> Result<(), SupplyError> {
        let asset = self.asset_of(device_id)?;
        self.invoke(owner, "init_transfer", TransferArgs { asset, to }.to_wire())
    }

    /// Recipient confirms; ownership flips and a custody record is anchored
    /// with the accumulated travel trace.
    pub fn confirm_transfer(
        &mut self,
        device_id: &str,
        recipient: AccountId,
        location: &str,
    ) -> Result<RecordId, SupplyError> {
        let asset = self.asset_of(device_id)?;
        self.invoke(
            recipient,
            "confirm_transfer",
            TransferArgs {
                asset,
                to: recipient,
            }
            .to_wire(),
        )?;

        let state = self
            .devices
            .get_mut(device_id)
            .expect("checked by asset_of");
        state.travel_trace.push(location.to_string());
        let trace = state.travel_trace.join(" -> ");
        let prev = state.last_record;
        let ts = self.ledger.advance_clock();
        let mut record = ProvenanceRecord::new(
            device_id,
            recipient,
            Action::Transfer,
            ts,
            Domain::SupplyChain,
        )
        .with_field("unique_product_id", device_id)
        .with_field("manufacturer_id", "on-chain")
        .with_field("travel_trace", &trace);
        if let Some(prev) = prev {
            record = record.with_parent(prev);
        }
        let rid = self.ledger.submit_record(record, &[])?;
        self.devices.get_mut(device_id).expect("exists").last_record = Some(rid);
        Ok(rid)
    }

    /// Current on-chain owner of a device.
    pub fn owner_of(&self, device_id: &str) -> Option<AccountId> {
        let asset = sha256(device_id.as_bytes());
        RegistryContract::owner_of(&self.ledger.contracts, self.contract, &asset)
    }

    fn asset_of(&self, device_id: &str) -> Result<Hash256, SupplyError> {
        self.devices
            .get(device_id)
            .map(|d| d.asset)
            .ok_or_else(|| SupplyError::UnknownDevice(device_id.to_string()))
    }

    /// The travel trace accumulated for a device.
    pub fn travel_trace(&self, device_id: &str) -> Option<&[String]> {
        self.devices
            .get(device_id)
            .map(|d| d.travel_trace.as_slice())
    }

    // -- PrivChain telemetry -------------------------------------------------

    /// Sensor-side: commit to a reading in `[0, max]` without revealing it.
    /// Returns the witness (kept by the sensor) and the index of the
    /// published commitment.
    pub fn commit_reading(
        &mut self,
        sensor: AccountId,
        device_id: &str,
        value: u64,
        max: u64,
        seed: &[u8; 32],
    ) -> Result<(RangeWitness, usize), SupplyError> {
        let (witness, commitment) = RangeWitness::commit(value, max, seed)?;
        self.telemetry.push(TelemetryEntry {
            sensor,
            device: device_id.to_string(),
            commitment,
            proven: false,
        });
        Ok((witness, self.telemetry.len() - 1))
    }

    /// Verifier-side: accept a range proof for a published commitment.
    /// A valid proof credits the sensor (PrivChain's incentive payout).
    pub fn submit_range_proof(
        &mut self,
        index: usize,
        proof: &RangeProof,
    ) -> Result<bool, SupplyError> {
        let Some(entry) = self.telemetry.get_mut(index) else {
            return Ok(false);
        };
        let ok = proof.verify(&entry.commitment);
        if ok && !entry.proven {
            entry.proven = true;
            *self.credits.entry(entry.sensor).or_insert(0) += 1;
        }
        Ok(ok)
    }

    /// Incentive credits earned by a sensor.
    pub fn credits_of(&self, sensor: &AccountId) -> u64 {
        self.credits.get(sensor).copied().unwrap_or(0)
    }

    /// Published telemetry entries.
    pub fn telemetry(&self) -> &[TelemetryEntry] {
        &self.telemetry
    }

    /// Seal pending provenance.
    pub fn seal(&mut self) -> Result<(), SupplyError> {
        self.ledger.seal_block()?;
        Ok(())
    }

    /// Underlying ledger.
    pub fn ledger(&self) -> &ProvenanceLedger {
        &self.ledger
    }

    /// Contract runtime access (for event inspection in tests/benches).
    pub fn contracts(&self) -> &ContractRuntime {
        &self.ledger.contracts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SupplyLedger, AccountId, AccountId) {
        let factory = AccountId::from_name("factory");
        let mut s = SupplyLedger::new(vec![factory]);
        let f = s.register_participant("factory").unwrap();
        let d = s.register_participant("distributor").unwrap();
        (s, f, d)
    }

    #[test]
    fn genuine_device_authenticates_clone_fails() {
        let (mut s, factory, _) = setup();
        let mut genuine = PufDevice::manufacture("dev-1", 2);
        s.register_device(factory, "dev-1", &genuine).unwrap();
        // Genuine device passes repeatedly despite noise.
        for _ in 0..5 {
            s.authenticate_device("dev-1", &mut genuine).unwrap();
        }
        // A counterfeit with the same printed serial fails.
        let mut fake = PufDevice::counterfeit_of("dev-1", 2);
        assert!(matches!(
            s.authenticate_device("dev-1", &mut fake),
            Err(SupplyError::CounterfeitSuspected(_))
        ));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let (mut s, factory, _) = setup();
        let dev = PufDevice::manufacture("dev-2", 1);
        s.register_device(factory, "dev-2", &dev).unwrap();
        assert!(matches!(
            s.register_device(factory, "dev-2", &dev),
            Err(SupplyError::Contract(ContractError::Rejected(_)))
        ));
    }

    #[test]
    fn ownership_transfer_and_travel_trace() {
        let (mut s, factory, distributor) = setup();
        let dev = PufDevice::manufacture("dev-3", 1);
        s.register_device(factory, "dev-3", &dev).unwrap();
        assert_eq!(s.owner_of("dev-3"), Some(factory));

        s.init_transfer("dev-3", factory, distributor).unwrap();
        assert_eq!(s.owner_of("dev-3"), Some(factory), "unconfirmed");
        let rid = s
            .confirm_transfer("dev-3", distributor, "warehouse-A")
            .unwrap();
        assert_eq!(s.owner_of("dev-3"), Some(distributor));
        assert_eq!(
            s.travel_trace("dev-3").unwrap(),
            &["factory", "warehouse-A"]
        );

        let record = s.ledger().record(&rid).unwrap();
        assert_eq!(record.fields["travel_trace"], "factory -> warehouse-A");
        assert_eq!(
            record.parents.len(),
            1,
            "custody chain links to registration"
        );
    }

    #[test]
    fn thief_cannot_initiate_transfer() {
        let (mut s, factory, _) = setup();
        let thief = s.register_participant("thief").unwrap();
        let dev = PufDevice::manufacture("dev-4", 1);
        s.register_device(factory, "dev-4", &dev).unwrap();
        assert!(matches!(
            s.init_transfer("dev-4", thief, thief),
            Err(SupplyError::Contract(ContractError::Rejected(_)))
        ));
    }

    #[test]
    fn cold_chain_range_proofs_and_incentives() {
        let (mut s, factory, _) = setup();
        let sensor = s.register_participant("sensor-7").unwrap();
        let dev = PufDevice::manufacture("vaccine-lot", 1);
        s.register_device(factory, "vaccine-lot", &dev).unwrap();

        // 5.5 °C in decicelsius, domain [0, 400].
        let (witness, idx) = s
            .commit_reading(sensor, "vaccine-lot", 55, 400, &[7u8; 32])
            .unwrap();
        // Prove within [2.0, 8.0] °C without revealing 5.5.
        let proof = witness.prove(20, 80).unwrap();
        assert!(s.submit_range_proof(idx, &proof).unwrap());
        assert_eq!(s.credits_of(&sensor), 1);
        // Re-proving the same entry does not double-pay.
        assert!(s.submit_range_proof(idx, &proof).unwrap());
        assert_eq!(s.credits_of(&sensor), 1);
    }

    #[test]
    fn spoiled_reading_cannot_be_proven_in_range() {
        let (mut s, _, _) = setup();
        let sensor = s.register_participant("sensor-8").unwrap();
        // 12.0 °C — outside the cold chain window.
        let (witness, idx) = s
            .commit_reading(sensor, "lot", 120, 400, &[8u8; 32])
            .unwrap();
        assert!(matches!(
            witness.prove(20, 80),
            Err(RangeProofError::ValueOutsideInterval)
        ));
        // A proof for the wider (honest) interval verifies but does not
        // satisfy the cold-chain check the verifier requires.
        let honest = witness.prove(0, 400).unwrap();
        assert!(s.submit_range_proof(idx, &honest).unwrap());
        assert!(
            !(honest.lo >= 20 && honest.hi <= 80),
            "interval visibly too wide"
        );
    }

    #[test]
    fn provenance_is_sealed_and_verifiable() {
        let (mut s, factory, distributor) = setup();
        let dev = PufDevice::manufacture("dev-5", 1);
        s.register_device(factory, "dev-5", &dev).unwrap();
        s.init_transfer("dev-5", factory, distributor).unwrap();
        s.confirm_transfer("dev-5", distributor, "port").unwrap();
        s.seal().unwrap();
        s.ledger().verify_chain().unwrap();
    }
}
