//! The demand-driven scheduling policies of the paper (its Table 5):
//!
//! | Policy   | Area of effect | Sender queue        | Receiver queue      | Request size |
//! |----------|----------------|---------------------|---------------------|--------------|
//! | DDFCFS   | intra-filter   | unsorted (FIFO)     | unsorted (FIFO)     | static       |
//! | DDWRR    | intra-filter   | unsorted (FIFO)     | sorted by speedup   | static       |
//! | ODDS     | inter-filter   | sorted by speedup   | sorted by speedup   | dynamic (DQAA) |
//!
//! All three are demand-driven: consumers *request* buffers and maintain a
//! minimal receive-side queue, so devices are assigned work only as they
//! become idle. DDFCFS is Anthill's default; DDWRR adds speedup-ordered
//! consumption on the receiver; ODDS moves selection to the sender (DBSA)
//! and adapts each worker's outstanding-request window at run time (DQAA).
//!
//! Beyond the paper's three heuristics, two *learned* policies reuse the
//! same demand-driven machinery (receiver sorted by weight, static
//! request windows) but derive their weights from run-time observations
//! instead of a static profile — see [`learned`]:
//!
//! | Policy   | Receiver queue           | Weight source                        |
//! |----------|--------------------------|--------------------------------------|
//! | AFFINITY | sorted by learned weight | online profile − data-locality bonus |
//! | BANDIT   | sorted by learned weight | per-device LinUCB-lite contextual bandit |
//!
//! This module only *describes* the policies. They are *applied* in
//! exactly one place — the backend-agnostic scheduling engine
//! ([`crate::engine`]), which every executor drives.

pub mod learned;

/// Which scheduling policy a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Demand-driven first-come first-served.
    DdFcfs,
    /// Demand-driven dynamic weighted round-robin.
    DdWrr,
    /// On-demand dynamic selective stream.
    Odds,
    /// Learned affinity-aware policy: online service-time profile with a
    /// data-locality bonus (XKaapi-style score = predicted − affinity).
    Affinity,
    /// Learned contextual-bandit device assigner (LinUCB-lite with a
    /// deterministic epsilon floor).
    Bandit,
}

impl PolicyKind {
    /// Does the receiver consume its queue sorted by per-device speedup?
    pub(crate) fn receiver_sorted(self) -> bool {
        !matches!(self, PolicyKind::DdFcfs)
    }

    /// Does the sender select buffers per requesting processor type (DBSA)?
    pub(crate) fn sender_selects(self) -> bool {
        matches!(self, PolicyKind::Odds)
    }

    /// Is the per-worker request window adapted at run time (DQAA)?
    pub(crate) fn dynamic_requests(self) -> bool {
        matches!(self, PolicyKind::Odds)
    }

    /// Is this one of the learned policies (weights derived from run-time
    /// observations via [`learned::LearnedWeights`])?
    pub fn learned(self) -> bool {
        matches!(self, PolicyKind::Affinity | PolicyKind::Bandit)
    }

    /// Display name as used in the paper (learned extensions follow the
    /// same upper-case convention).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::DdFcfs => "DDFCFS",
            PolicyKind::DdWrr => "DDWRR",
            PolicyKind::Odds => "ODDS",
            PolicyKind::Affinity => "AFFINITY",
            PolicyKind::Bandit => "BANDIT",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full scheduling configuration of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// The policy family.
    pub kind: PolicyKind,
    /// Static per-worker request window for DDFCFS/DDWRR (the programmer-
    /// chosen `streamRequestSize`); the DQAA starting point for ODDS.
    pub request_size: usize,
}

impl Policy {
    /// DDFCFS with a static request window.
    pub fn ddfcfs(request_size: usize) -> Policy {
        Policy {
            kind: PolicyKind::DdFcfs,
            request_size: request_size.max(1),
        }
    }

    /// DDWRR with a static request window.
    pub fn ddwrr(request_size: usize) -> Policy {
        Policy {
            kind: PolicyKind::DdWrr,
            request_size: request_size.max(1),
        }
    }

    /// ODDS (request window adapts from 1).
    pub fn odds() -> Policy {
        Policy {
            kind: PolicyKind::Odds,
            request_size: 1,
        }
    }

    /// Learned affinity-aware policy with a static request window.
    pub fn affinity(request_size: usize) -> Policy {
        Policy {
            kind: PolicyKind::Affinity,
            request_size: request_size.max(1),
        }
    }

    /// Learned contextual-bandit policy with a static request window.
    pub fn bandit(request_size: usize) -> Policy {
        Policy {
            kind: PolicyKind::Bandit,
            request_size: request_size.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_matches_table5() {
        assert!(!PolicyKind::DdFcfs.receiver_sorted());
        assert!(!PolicyKind::DdFcfs.sender_selects());
        assert!(!PolicyKind::DdFcfs.dynamic_requests());

        assert!(PolicyKind::DdWrr.receiver_sorted());
        assert!(!PolicyKind::DdWrr.sender_selects());
        assert!(!PolicyKind::DdWrr.dynamic_requests());

        assert!(PolicyKind::Odds.receiver_sorted());
        assert!(PolicyKind::Odds.sender_selects());
        assert!(PolicyKind::Odds.dynamic_requests());

        // The learned policies are demand-driven DDWRR-shaped consumers:
        // receiver sorted by (learned) weight, static request windows,
        // sender FIFO.
        for kind in [PolicyKind::Affinity, PolicyKind::Bandit] {
            assert!(kind.receiver_sorted());
            assert!(!kind.sender_selects());
            assert!(!kind.dynamic_requests());
            assert!(kind.learned());
        }
        for kind in [PolicyKind::DdFcfs, PolicyKind::DdWrr, PolicyKind::Odds] {
            assert!(!kind.learned());
        }
    }

    #[test]
    fn constructors_clamp_request_size() {
        assert_eq!(Policy::ddfcfs(0).request_size, 1);
        assert_eq!(Policy::ddwrr(16).request_size, 16);
        assert_eq!(Policy::odds().request_size, 1);
        assert_eq!(Policy::affinity(0).request_size, 1);
        assert_eq!(Policy::bandit(24).request_size, 24);
    }

    #[test]
    fn names() {
        assert_eq!(PolicyKind::DdFcfs.to_string(), "DDFCFS");
        assert_eq!(PolicyKind::DdWrr.to_string(), "DDWRR");
        assert_eq!(PolicyKind::Odds.to_string(), "ODDS");
        assert_eq!(PolicyKind::Affinity.to_string(), "AFFINITY");
        assert_eq!(PolicyKind::Bandit.to_string(), "BANDIT");
    }
}
