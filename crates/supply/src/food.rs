//! Food supply-chain tracking — the Kumar et al. \[42\] reproduction.
//!
//! The surveyed methodology has three modules, reproduced one-to-one:
//!
//! * **Source Tracking** — "IoT sensors and RFID tags with blockchain to
//!   monitor food products from origin to consumption": every product
//!   carries an RFID tag; custody scans append hash-chained trace events
//!   from farm through processing, transport and retail to the consumer;
//! * **Quality and Safety Monitoring** — "tracking parameters like
//!   temperature and humidity … with alerts for deviations": IoT telemetry
//!   is checked against the product class's safe envelope and every
//!   excursion raises an on-record alert; a product with open alerts fails
//!   its safety check at the point of sale;
//! * **Certification and Compliance** — "maintains certification documents
//!   on the blockchain for easy verification": certificates are anchored by
//!   digest with issuer, scope and expiry, and consumer-facing verification
//!   re-derives the digest from the presented document.
//!
//! A consumer query ([`FoodChain::consumer_report`]) is the paper's QR-code
//! scan: origin, full trace, alert history and certificate status.

use blockprov_crypto::sha256::{hash_parts, sha256, Hash256};
use std::collections::BTreeMap;
use std::fmt;

/// Stages a food product moves through (origin → consumption).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FoodStage {
    /// Harvest / production at the farm.
    Farm,
    /// Processing / packaging plant.
    Processing,
    /// Cold-chain transport leg.
    Transport,
    /// Distribution center.
    Distribution,
    /// Retail shelf.
    Retail,
    /// Sold to the consumer.
    Consumed,
}

impl FoodStage {
    /// Stage label.
    pub fn label(&self) -> &'static str {
        match self {
            FoodStage::Farm => "farm",
            FoodStage::Processing => "processing",
            FoodStage::Transport => "transport",
            FoodStage::Distribution => "distribution",
            FoodStage::Retail => "retail",
            FoodStage::Consumed => "consumed",
        }
    }

    fn rank(&self) -> u8 {
        match self {
            FoodStage::Farm => 0,
            FoodStage::Processing => 1,
            FoodStage::Transport => 2,
            FoodStage::Distribution => 3,
            FoodStage::Retail => 4,
            FoodStage::Consumed => 5,
        }
    }
}

/// Safe storage envelope for a product class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyEnvelope {
    /// Temperature bounds in milli-°C.
    pub temp_milli_c: (i64, i64),
    /// Relative humidity bounds in milli-%.
    pub humidity_milli: (i64, i64),
}

impl SafetyEnvelope {
    /// Chilled produce: 0–4 °C, 85–95 % RH.
    pub fn chilled() -> Self {
        Self { temp_milli_c: (0, 4_000), humidity_milli: (85_000, 95_000) }
    }

    /// Frozen goods: −25 to −18 °C, any humidity.
    pub fn frozen() -> Self {
        Self { temp_milli_c: (-25_000, -18_000), humidity_milli: (0, 100_000) }
    }

    /// Ambient dry goods: 5–30 °C, ≤70 % RH.
    pub fn ambient() -> Self {
        Self { temp_milli_c: (5_000, 30_000), humidity_milli: (0, 70_000) }
    }

    fn check(&self, temp: i64, humidity: i64) -> Option<&'static str> {
        if temp < self.temp_milli_c.0 || temp > self.temp_milli_c.1 {
            Some("temperature out of range")
        } else if humidity < self.humidity_milli.0 || humidity > self.humidity_milli.1 {
            Some("humidity out of range")
        } else {
            None
        }
    }
}

/// A hash-chained custody/trace event (one RFID scan).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Stage entered.
    pub stage: FoodStage,
    /// Party scanning (farm, plant, carrier, store…).
    pub actor: String,
    /// Geographic hint.
    pub location: String,
    /// Logical time.
    pub seq: u64,
    /// Hash chain value (binds this event to the product's history).
    pub chain: Hash256,
}

/// A telemetry-driven safety alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyAlert {
    /// Offending reading's sequence number.
    pub seq: u64,
    /// What went out of range.
    pub reason: &'static str,
    /// The reading (temp milli-°C, humidity milli-%).
    pub reading: (i64, i64),
    /// Resolved by a quality officer?
    pub resolved: bool,
}

/// An anchored certification document.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Issuing body (e.g. "EU-Organic").
    pub issuer: String,
    /// Scope (e.g. "organic", "fair-trade", "haccp").
    pub scope: String,
    /// Digest of the full document.
    pub digest: Hash256,
    /// Expiry (logical day).
    pub expires_day: u64,
}

/// One tracked product (a tagged lot/unit).
#[derive(Debug, Clone)]
pub struct FoodProduct {
    /// RFID tag identifier.
    pub tag: String,
    /// Product class name.
    pub class: String,
    /// Safe envelope for telemetry checks.
    pub envelope: SafetyEnvelope,
    /// Trace events (origin first).
    pub trace: Vec<TraceEvent>,
    /// Telemetry readings count.
    pub readings: u64,
    /// Alerts raised.
    pub alerts: Vec<SafetyAlert>,
    /// Certificates attached to this product.
    pub certificates: Vec<Certificate>,
}

impl FoodProduct {
    /// Current stage (last trace event).
    pub fn stage(&self) -> FoodStage {
        self.trace.last().map(|e| e.stage).unwrap_or(FoodStage::Farm)
    }

    /// Unresolved alerts.
    pub fn open_alerts(&self) -> usize {
        self.alerts.iter().filter(|a| !a.resolved).count()
    }
}

/// Errors from the food chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FoodError {
    /// Tag already registered.
    DuplicateTag(String),
    /// Unknown product tag.
    UnknownTag(String),
    /// Stage transition moved backwards (e.g. Retail → Farm).
    StageRegression {
        /// Stage on record.
        from: FoodStage,
        /// Stage attempted.
        to: FoodStage,
    },
    /// Product already consumed — no further events accepted.
    AlreadyConsumed(String),
    /// Certificate index out of range.
    UnknownCertificate(usize),
    /// Alert index out of range.
    UnknownAlert(usize),
}

impl fmt::Display for FoodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoodError::DuplicateTag(t) => write!(f, "tag {t:?} already registered"),
            FoodError::UnknownTag(t) => write!(f, "unknown tag {t:?}"),
            FoodError::StageRegression { from, to } => {
                write!(f, "stage cannot regress {} → {}", from.label(), to.label())
            }
            FoodError::AlreadyConsumed(t) => write!(f, "product {t:?} already consumed"),
            FoodError::UnknownCertificate(i) => write!(f, "no certificate #{i}"),
            FoodError::UnknownAlert(i) => write!(f, "no alert #{i}"),
        }
    }
}

impl std::error::Error for FoodError {}

/// The consumer-facing QR-scan answer.
#[derive(Debug, Clone)]
pub struct ConsumerReport {
    /// RFID tag.
    pub tag: String,
    /// Product class.
    pub class: String,
    /// Origin (actor + location of the first trace event).
    pub origin: String,
    /// Number of custody hops.
    pub hops: usize,
    /// Current stage.
    pub stage: FoodStage,
    /// Telemetry readings taken.
    pub readings: u64,
    /// Alerts raised / unresolved.
    pub alerts_total: usize,
    /// Unresolved alerts.
    pub alerts_open: usize,
    /// Valid (unexpired, digest-verified) certificate scopes.
    pub valid_certificates: Vec<String>,
    /// Whether the product passes the point-of-sale safety check.
    pub safe_to_sell: bool,
}

/// The food supply-chain registry.
#[derive(Debug, Default)]
pub struct FoodChain {
    products: BTreeMap<String, FoodProduct>,
    seq: u64,
    day: u64,
}

impl FoodChain {
    /// Empty chain at day 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the logical calendar (certificate expiry).
    pub fn advance_days(&mut self, days: u64) {
        self.day += days;
    }

    /// Current logical day.
    pub fn today(&self) -> u64 {
        self.day
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Register a product at the farm (origin event).
    pub fn register_product(
        &mut self,
        tag: &str,
        class: &str,
        envelope: SafetyEnvelope,
        farm: &str,
        location: &str,
    ) -> Result<(), FoodError> {
        if self.products.contains_key(tag) {
            return Err(FoodError::DuplicateTag(tag.to_string()));
        }
        let seq = self.next_seq();
        let chain = hash_parts(
            "blockprov-food-trace",
            &[Hash256::ZERO.as_bytes(), tag.as_bytes(), farm.as_bytes(), &seq.to_le_bytes()],
        );
        let product = FoodProduct {
            tag: tag.to_string(),
            class: class.to_string(),
            envelope,
            trace: vec![TraceEvent {
                stage: FoodStage::Farm,
                actor: farm.to_string(),
                location: location.to_string(),
                seq,
                chain,
            }],
            readings: 0,
            alerts: Vec::new(),
            certificates: Vec::new(),
        };
        self.products.insert(tag.to_string(), product);
        Ok(())
    }

    fn product_mut(&mut self, tag: &str) -> Result<&mut FoodProduct, FoodError> {
        self.products
            .get_mut(tag)
            .ok_or_else(|| FoodError::UnknownTag(tag.to_string()))
    }

    /// Look up a product.
    pub fn product(&self, tag: &str) -> Option<&FoodProduct> {
        self.products.get(tag)
    }

    /// Record an RFID scan moving the product to `stage`.
    pub fn scan(
        &mut self,
        tag: &str,
        stage: FoodStage,
        actor: &str,
        location: &str,
    ) -> Result<(), FoodError> {
        let seq = self.next_seq();
        let product = self.product_mut(tag)?;
        let current = product.stage();
        if current == FoodStage::Consumed {
            return Err(FoodError::AlreadyConsumed(tag.to_string()));
        }
        // Transport↔Distribution legs may repeat; otherwise stages move
        // forward monotonically.
        if stage.rank() < current.rank() {
            return Err(FoodError::StageRegression { from: current, to: stage });
        }
        let prev = product.trace.last().map(|e| e.chain).unwrap_or(Hash256::ZERO);
        let chain = hash_parts(
            "blockprov-food-trace",
            &[prev.as_bytes(), tag.as_bytes(), actor.as_bytes(), &seq.to_le_bytes()],
        );
        product.trace.push(TraceEvent {
            stage,
            actor: actor.to_string(),
            location: location.to_string(),
            seq,
            chain,
        });
        Ok(())
    }

    /// Ingest an IoT reading; raises an alert if it violates the envelope.
    /// Returns whether the reading was in range.
    pub fn telemetry(
        &mut self,
        tag: &str,
        temp_milli_c: i64,
        humidity_milli: i64,
    ) -> Result<bool, FoodError> {
        let seq = self.next_seq();
        let product = self.product_mut(tag)?;
        product.readings += 1;
        match product.envelope.check(temp_milli_c, humidity_milli) {
            None => Ok(true),
            Some(reason) => {
                product.alerts.push(SafetyAlert {
                    seq,
                    reason,
                    reading: (temp_milli_c, humidity_milli),
                    resolved: false,
                });
                Ok(false)
            }
        }
    }

    /// A quality officer resolves an alert after inspection.
    pub fn resolve_alert(&mut self, tag: &str, index: usize) -> Result<(), FoodError> {
        let product = self.product_mut(tag)?;
        let alert = product
            .alerts
            .get_mut(index)
            .ok_or(FoodError::UnknownAlert(index))?;
        alert.resolved = true;
        Ok(())
    }

    /// Anchor a certification document for a product.
    pub fn certify(
        &mut self,
        tag: &str,
        issuer: &str,
        scope: &str,
        document: &[u8],
        valid_days: u64,
    ) -> Result<usize, FoodError> {
        let today = self.day;
        let product = self.product_mut(tag)?;
        product.certificates.push(Certificate {
            issuer: issuer.to_string(),
            scope: scope.to_string(),
            digest: sha256(document),
            expires_day: today + valid_days,
        });
        Ok(product.certificates.len() - 1)
    }

    /// Verify a presented document against an anchored certificate:
    /// digest must match and the certificate must be unexpired.
    pub fn verify_certificate(
        &self,
        tag: &str,
        index: usize,
        document: &[u8],
    ) -> Result<bool, FoodError> {
        let product = self
            .products
            .get(tag)
            .ok_or_else(|| FoodError::UnknownTag(tag.to_string()))?;
        let cert = product
            .certificates
            .get(index)
            .ok_or(FoodError::UnknownCertificate(index))?;
        Ok(cert.digest == sha256(document) && cert.expires_day >= self.day)
    }

    /// Verify a product's trace hash chain.
    pub fn verify_trace(&self, tag: &str) -> Result<bool, FoodError> {
        let product = self
            .products
            .get(tag)
            .ok_or_else(|| FoodError::UnknownTag(tag.to_string()))?;
        let mut prev = Hash256::ZERO;
        for e in &product.trace {
            let expect = hash_parts(
                "blockprov-food-trace",
                &[prev.as_bytes(), tag.as_bytes(), e.actor.as_bytes(), &e.seq.to_le_bytes()],
            );
            if e.chain != expect {
                return Ok(false);
            }
            prev = e.chain;
        }
        Ok(true)
    }

    /// The consumer QR scan: everything the paper's transparency story
    /// promises, in one query.
    pub fn consumer_report(&self, tag: &str) -> Result<ConsumerReport, FoodError> {
        let product = self
            .products
            .get(tag)
            .ok_or_else(|| FoodError::UnknownTag(tag.to_string()))?;
        let origin = product
            .trace
            .first()
            .map(|e| format!("{} @ {}", e.actor, e.location))
            .unwrap_or_default();
        let valid_certificates = product
            .certificates
            .iter()
            .filter(|c| c.expires_day >= self.day)
            .map(|c| format!("{}:{}", c.issuer, c.scope))
            .collect();
        let open = product.open_alerts();
        Ok(ConsumerReport {
            tag: product.tag.clone(),
            class: product.class.clone(),
            origin,
            hops: product.trace.len(),
            stage: product.stage(),
            readings: product.readings,
            alerts_total: product.alerts.len(),
            alerts_open: open,
            valid_certificates,
            safe_to_sell: open == 0,
        })
    }

    /// Number of tracked products.
    pub fn len(&self) -> usize {
        self.products.len()
    }

    /// Whether no products are tracked.
    pub fn is_empty(&self) -> bool {
        self.products.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with_lettuce() -> FoodChain {
        let mut c = FoodChain::new();
        c.register_product("RFID-001", "lettuce", SafetyEnvelope::chilled(), "green-farm", "ES")
            .unwrap();
        c
    }

    #[test]
    fn origin_to_consumption_trace() {
        let mut c = chain_with_lettuce();
        c.scan("RFID-001", FoodStage::Processing, "pack-co", "ES").unwrap();
        c.scan("RFID-001", FoodStage::Transport, "cool-trucks", "FR").unwrap();
        c.scan("RFID-001", FoodStage::Retail, "supermart", "DE").unwrap();
        c.scan("RFID-001", FoodStage::Consumed, "supermart", "DE").unwrap();
        let p = c.product("RFID-001").unwrap();
        assert_eq!(p.trace.len(), 5);
        assert_eq!(p.stage(), FoodStage::Consumed);
        assert!(c.verify_trace("RFID-001").unwrap());
    }

    #[test]
    fn stage_regression_rejected() {
        let mut c = chain_with_lettuce();
        c.scan("RFID-001", FoodStage::Retail, "supermart", "DE").unwrap();
        assert_eq!(
            c.scan("RFID-001", FoodStage::Farm, "green-farm", "ES").unwrap_err(),
            FoodError::StageRegression { from: FoodStage::Retail, to: FoodStage::Farm }
        );
    }

    #[test]
    fn consumed_products_are_closed() {
        let mut c = chain_with_lettuce();
        c.scan("RFID-001", FoodStage::Consumed, "store", "DE").unwrap();
        assert_eq!(
            c.scan("RFID-001", FoodStage::Consumed, "store", "DE").unwrap_err(),
            FoodError::AlreadyConsumed("RFID-001".into())
        );
    }

    #[test]
    fn duplicate_tag_rejected() {
        let mut c = chain_with_lettuce();
        assert_eq!(
            c.register_product("RFID-001", "kale", SafetyEnvelope::chilled(), "f", "l")
                .unwrap_err(),
            FoodError::DuplicateTag("RFID-001".into())
        );
    }

    #[test]
    fn telemetry_in_envelope_raises_no_alert() {
        let mut c = chain_with_lettuce();
        assert!(c.telemetry("RFID-001", 2_000, 90_000).unwrap());
        assert_eq!(c.product("RFID-001").unwrap().alerts.len(), 0);
    }

    #[test]
    fn cold_chain_break_raises_alert_and_blocks_sale() {
        let mut c = chain_with_lettuce();
        assert!(!c.telemetry("RFID-001", 9_000, 90_000).unwrap());
        let report = c.consumer_report("RFID-001").unwrap();
        assert_eq!(report.alerts_open, 1);
        assert!(!report.safe_to_sell);
        // After inspection the officer resolves the alert.
        c.resolve_alert("RFID-001", 0).unwrap();
        let report = c.consumer_report("RFID-001").unwrap();
        assert_eq!(report.alerts_open, 0);
        assert!(report.safe_to_sell);
    }

    #[test]
    fn humidity_violations_detected() {
        let mut c = chain_with_lettuce();
        assert!(!c.telemetry("RFID-001", 2_000, 40_000).unwrap());
        assert_eq!(c.product("RFID-001").unwrap().alerts[0].reason, "humidity out of range");
    }

    #[test]
    fn frozen_envelope_differs() {
        let mut c = FoodChain::new();
        c.register_product("RFID-F", "peas", SafetyEnvelope::frozen(), "farm", "PL").unwrap();
        assert!(c.telemetry("RFID-F", -20_000, 50_000).unwrap());
        assert!(!c.telemetry("RFID-F", -10_000, 50_000).unwrap());
    }

    #[test]
    fn certificate_verification_and_expiry() {
        let mut c = chain_with_lettuce();
        let doc = b"EU organic certificate for green-farm lot 7";
        let idx = c.certify("RFID-001", "EU-Organic", "organic", doc, 30).unwrap();
        assert!(c.verify_certificate("RFID-001", idx, doc).unwrap());
        assert!(!c.verify_certificate("RFID-001", idx, b"forged document").unwrap());
        c.advance_days(31);
        assert!(!c.verify_certificate("RFID-001", idx, doc).unwrap(), "expired");
        let report = c.consumer_report("RFID-001").unwrap();
        assert!(report.valid_certificates.is_empty());
    }

    #[test]
    fn consumer_report_summarizes_everything() {
        let mut c = chain_with_lettuce();
        c.scan("RFID-001", FoodStage::Transport, "cool-trucks", "FR").unwrap();
        c.telemetry("RFID-001", 2_000, 90_000).unwrap();
        c.certify("RFID-001", "EU-Organic", "organic", b"doc", 10).unwrap();
        let r = c.consumer_report("RFID-001").unwrap();
        assert_eq!(r.origin, "green-farm @ ES");
        assert_eq!(r.hops, 2);
        assert_eq!(r.stage, FoodStage::Transport);
        assert_eq!(r.readings, 1);
        assert_eq!(r.valid_certificates, vec!["EU-Organic:organic".to_string()]);
        assert!(r.safe_to_sell);
    }

    #[test]
    fn tampered_trace_detected() {
        let mut c = chain_with_lettuce();
        c.scan("RFID-001", FoodStage::Retail, "store", "DE").unwrap();
        assert!(c.verify_trace("RFID-001").unwrap());
        // Rewrite an actor in place (a forged custody hop).
        c.products.get_mut("RFID-001").unwrap().trace[1].actor = "shady-store".into();
        assert!(!c.verify_trace("RFID-001").unwrap());
    }

    #[test]
    fn unknown_tag_errors() {
        let c = FoodChain::new();
        assert_eq!(
            c.consumer_report("nope").unwrap_err(),
            FoodError::UnknownTag("nope".into())
        );
    }
}
