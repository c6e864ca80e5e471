//! How a run of the discrete-event engine ended.
//!
//! Both run loops of [`ShardedEngine`](crate::shard::ShardedEngine) — the
//! serial [`run`](crate::shard::ShardedEngine::run) and the epoch runner
//! [`run_threaded`](crate::shard::ShardedEngine::run_threaded) — stop for
//! one of the reasons below.

/// Outcome of a [`ShardedEngine`](crate::shard::ShardedEngine) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RunOutcome {
    /// Every calendar and mailbox drained completely.
    Drained,
    /// The time horizon was reached before the queues drained.
    HorizonReached,
    /// The event budget was exhausted before the queues drained.
    BudgetExhausted,
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RunOutcome::Drained => "drained",
            RunOutcome::HorizonReached => "horizon reached",
            RunOutcome::BudgetExhausted => "event budget exhausted",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_outcome_displays() {
        assert_eq!(RunOutcome::Drained.to_string(), "drained");
        assert_eq!(RunOutcome::HorizonReached.to_string(), "horizon reached");
        assert_eq!(
            RunOutcome::BudgetExhausted.to_string(),
            "event budget exhausted"
        );
    }
}
