//! Access control for provenance ledgers.
//!
//! The paper's §6.1 design considerations call out access control as a
//! first-class axis: "attribute-based access control (ABAC) or role-based
//! access control (RBAC), … customized to the specific requirements of the
//! domain". This crate implements both, plus the access-controlled ledger
//! *views* of LedgerView \[66\] (revocable and irrevocable views over a
//! Fabric-style ledger).
//!
//! * [`rbac`] — roles → permissions, users → roles, with role hierarchies;
//! * [`abac`] — attribute predicates with deny-overrides combining;
//! * [`views`] — filtered projections of a chain's transactions granted to
//!   accounts, revocable unless created irrevocable.

pub mod abac;
pub mod rbac;
pub mod views;

pub use abac::{AbacPolicy, Attribute, Attributes, Condition, Decision, Effect, Rule};
pub use rbac::{Permission, RbacEngine, Role};
pub use views::{View, ViewError, ViewFilter, ViewManager};
