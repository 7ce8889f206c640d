//! Organizations and entity ownership.
//!
//! §5.2 of the paper attributes originator/destination hostnames to owning
//! organizations (Disconnect entity list + manual WHOIS/copyright research),
//! because one organization often owns many domains — Sports Reference owns
//! `hockey-reference.com`, `stathead.com`, `baseball-reference.com`, …, and
//! Facebook owns both `facebook.com` and `instagram.com`. Figure 4 counts
//! *organizations*, not hostnames. The simulator mirrors this: every domain
//! belongs to an [`Organization`], and an *entity list* with configurable
//! coverage (the paper could attribute 280 of 436 domains) is exported for
//! the analysis crate.

use serde::{Deserialize, Serialize};

/// Identifier of an organization in the generated world.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct OrgId(pub u32);

/// An organization owning one or more registered domains.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Organization {
    /// Identifier.
    pub id: OrgId,
    /// Display name (e.g. "Sports Reference", "AWIN").
    pub name: String,
    /// Registered domains owned by this organization.
    pub domains: Vec<String>,
    /// Whether the org appears in the simulated Disconnect-style *entity
    /// list* (the paper's list covered 45 of 436 domains; manual research
    /// extended that to 280).
    pub in_entity_list: bool,
}

impl Organization {
    /// Create an organization with no domains yet.
    pub fn new(id: OrgId, name: impl Into<String>) -> Self {
        Organization {
            id,
            name: name.into(),
            domains: Vec::new(),
            in_entity_list: false,
        }
    }

    /// Register a domain as owned by this organization.
    pub fn add_domain(&mut self, domain: &str) {
        let d = domain.to_ascii_lowercase();
        if !self.domains.contains(&d) {
            self.domains.push(d);
        }
    }

    /// Whether this organization owns the given registered domain.
    pub fn owns(&self, domain: &str) -> bool {
        self.domains.contains(&domain.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_domain_dedupes() {
        let mut org = Organization::new(OrgId(1), "Sports Reference");
        org.add_domain("stathead.com");
        org.add_domain("STATHEAD.com");
        org.add_domain("baseball-reference.com");
        assert_eq!(org.domains.len(), 2);
        assert!(org.owns("stathead.com"));
        assert!(org.owns("Baseball-Reference.com"));
        assert!(!org.owns("example.com"));
    }
}
