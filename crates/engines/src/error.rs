//! Typed errors for the W5 engine: what used to be scattered
//! `expect`/panic sites in query plans.

use nqp_datagen::tpch::dates::DateError;
use nqp_sim::SimError;
use std::fmt;

/// Why a query failed to plan or execute.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A date literal in the plan failed to parse or construct.
    Date(DateError),
    /// The simulator faulted (capacity, injected failure, timeout).
    Sim(SimError),
    /// Query number outside 1–22.
    UnknownQuery {
        /// The number that was requested.
        qnum: usize,
    },
    /// A plan named a column its table does not have (caught when the
    /// plan resolves its column handles, before any scan runs).
    UnknownColumn {
        /// The table that was asked.
        table: &'static str,
        /// The column name that did not resolve.
        column: String,
    },
    /// A constant the plan looks up (a nation or region name) is absent
    /// from the loaded data.
    MissingKey {
        /// The table searched.
        table: &'static str,
        /// The value that was not found.
        key: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Date(e) => write!(f, "bad date literal in plan: {e}"),
            EngineError::Sim(e) => write!(f, "simulation fault during query: {e}"),
            EngineError::UnknownQuery { qnum } => {
                write!(f, "TPC-H has 22 queries; got Q{qnum}")
            }
            EngineError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column} in plan")
            }
            EngineError::MissingKey { table, key } => {
                write!(f, "plan constant `{key}` not found in table {table}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Date(e) => Some(e),
            EngineError::Sim(e) => Some(e),
            EngineError::UnknownQuery { .. }
            | EngineError::UnknownColumn { .. }
            | EngineError::MissingKey { .. } => None,
        }
    }
}

impl From<DateError> for EngineError {
    fn from(e: DateError) -> Self {
        EngineError::Date(e)
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError =
            nqp_datagen::tpch::dates::parse("nope").expect_err("malformed").into();
        assert!(matches!(e, EngineError::Date(_)));
        assert!(e.to_string().contains("date literal"));
        let e: EngineError = SimError::OutOfMemory { node: 0, requested_pages: 1 }.into();
        assert!(e.to_string().contains("simulation fault"));
        assert!(EngineError::UnknownQuery { qnum: 23 }.to_string().contains("22 queries"));
        let e = EngineError::MissingKey { table: "nation", key: "SAUDI ARABIA" };
        assert!(e.to_string().contains("`SAUDI ARABIA`"));
    }
}
