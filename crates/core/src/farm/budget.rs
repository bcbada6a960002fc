//! Per-session resource budgets and their structured exhaustion reports.

use std::fmt;

use crate::PipelineReport;

/// Resource quotas one fleet session may consume. Every limit is optional;
/// `None` means unbounded. Each is checked on the session's finished
/// report: a session over any quota fails with a structured
/// [`BudgetKind`], without disturbing its siblings.
///
/// Budgets never change a surviving session's report: they only decide
/// whether a session's report is delivered.
#[derive(Debug, Clone, Default)]
pub struct SessionBudget {
    /// Maximum input-log size the recording may produce, in bytes
    /// (`record.log_bytes`); an oversized session fails with
    /// [`BudgetKind::LogBytes`].
    pub log_bytes: Option<u64>,
    /// Maximum alarm cases the session may escalate
    /// (`replay.alarms_escalated`); a session over it fails with
    /// [`BudgetKind::ArSlots`]. A surviving session therefore never had
    /// more than this many alarm replayers running at once.
    pub ar_slots: Option<usize>,
    /// Maximum CR rewinds the session's recovery machinery may perform
    /// (`recovery.cr_rewinds`); a session that needed more fails with
    /// [`BudgetKind::Rewinds`].
    pub rewind_quota: Option<u64>,
}

impl SessionBudget {
    /// An unbounded budget (every limit `None`).
    pub fn unlimited() -> SessionBudget {
        SessionBudget::default()
    }

    /// The first quota `report` exceeds, checked in the order log bytes,
    /// rewinds, alarm cases.
    pub(crate) fn check(&self, report: &PipelineReport) -> Result<(), BudgetKind> {
        if let Some(max) = self.log_bytes {
            let used = report.record.log_bytes;
            if used > max {
                return Err(BudgetKind::LogBytes { used, max });
            }
        }
        if let Some(max) = self.rewind_quota {
            let used = report.recovery.cr_rewinds;
            if used > max {
                return Err(BudgetKind::Rewinds { used, max });
            }
        }
        if let Some(max) = self.ar_slots {
            let needed = report.replay.alarms_escalated;
            if needed > max {
                return Err(BudgetKind::ArSlots { needed, max });
            }
        }
        Ok(())
    }
}

/// Which budget a session exhausted, with the observed and permitted
/// amounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetKind {
    /// The recording's input log outgrew [`SessionBudget::log_bytes`].
    LogBytes {
        /// Bytes the recording produced.
        used: u64,
        /// The configured limit.
        max: u64,
    },
    /// The CR escalated more alarm cases than [`SessionBudget::ar_slots`].
    ArSlots {
        /// Cases the CR escalated.
        needed: usize,
        /// The configured limit.
        max: usize,
    },
    /// CR recovery rewound more than [`SessionBudget::rewind_quota`] allows.
    Rewinds {
        /// Rewinds recovery performed.
        used: u64,
        /// The configured limit.
        max: u64,
    },
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::LogBytes { used, max } => {
                write!(f, "log-byte budget (recorded {used} bytes, limit {max})")
            }
            BudgetKind::ArSlots { needed, max } => {
                write!(f, "alarm-replay slot budget (escalated {needed} cases, limit {max})")
            }
            BudgetKind::Rewinds { used, max } => {
                write!(f, "rewind quota (recovery rewound {used} times, limit {max})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_kinds_display_amounts() {
        let cases = [
            (BudgetKind::LogBytes { used: 9, max: 5 }, "log-byte"),
            (BudgetKind::ArSlots { needed: 3, max: 1 }, "alarm-replay"),
            (BudgetKind::Rewinds { used: 2, max: 0 }, "rewind quota"),
        ];
        for (kind, needle) in cases {
            let text = kind.to_string();
            assert!(text.contains(needle), "{text}");
        }
    }
}
