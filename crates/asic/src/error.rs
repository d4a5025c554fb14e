//! Errors surfaced by the ASIC model.
//!
//! Build-time errors ([`AsicError::StageOutOfRange`],
//! [`AsicError::SramBudgetExceeded`], [`AsicError::TooManyResources`])
//! correspond to P4 compiler rejections;
//! pass-time errors ([`AsicError::StageRegression`],
//! [`AsicError::DoubleAccess`]) correspond to designs that simply cannot be
//! expressed on the hardware — the constraints §3.4 of the paper works
//! around.

use std::fmt;

/// Everything that can go wrong when building or executing a pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AsicError {
    /// A resource was declared in a stage the pipeline does not have.
    StageOutOfRange {
        /// Declared stage.
        stage: u8,
        /// Number of stages available.
        stages: u8,
    },
    /// A stage's SRAM budget was exceeded at allocation time.
    SramBudgetExceeded {
        /// Stage whose budget was exceeded.
        stage: u8,
        /// Bytes that would be allocated in that stage.
        used_bytes: u64,
        /// The per-stage budget.
        budget_bytes: u64,
    },
    /// A program declared more stateful resources than one pass can track.
    TooManyResources {
        /// Resources a program may declare.
        limit: usize,
    },
    /// A packet tried to access a resource bound to an earlier stage than
    /// its current position ("packets go through processing stages
    /// sequentially", §1).
    StageRegression {
        /// Stage the resource is bound to.
        bound_stage: u8,
        /// Stage the packet had already reached.
        current_stage: u8,
    },
    /// A packet tried to access the same stateful resource twice in one
    /// pass ("it is impossible to access data stored in the memory twice
    /// for a single pass", §2.3).
    DoubleAccess {
        /// Stage of the resource.
        stage: u8,
    },
    /// A register index beyond the array's static size.
    IndexOutOfBounds {
        /// Requested index.
        index: usize,
        /// Array size.
        size: usize,
    },
    /// A match-table insert beyond its static capacity.
    TableFull {
        /// Static capacity.
        capacity: usize,
    },
}

impl fmt::Display for AsicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AsicError::StageOutOfRange { stage, stages } => {
                write!(f, "stage {stage} out of range (pipeline has {stages})")
            }
            AsicError::SramBudgetExceeded {
                stage,
                used_bytes,
                budget_bytes,
            } => write!(
                f,
                "stage {stage} SRAM budget exceeded: {used_bytes} > {budget_bytes} bytes"
            ),
            AsicError::TooManyResources { limit } => {
                write!(f, "program declares more than {limit} stateful resources")
            }
            AsicError::StageRegression {
                bound_stage,
                current_stage,
            } => write!(
                f,
                "cannot access stage-{bound_stage} resource after reaching stage {current_stage} \
                 (packets traverse stages forward only)"
            ),
            AsicError::DoubleAccess { stage } => write!(
                f,
                "stateful resource in stage {stage} accessed twice in one pass \
                 (one access per resource per pass)"
            ),
            AsicError::IndexOutOfBounds { index, size } => {
                write!(f, "register index {index} out of bounds (size {size})")
            }
            AsicError::TableFull { capacity } => {
                write!(f, "match table full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for AsicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_the_constraint() {
        let e = AsicError::DoubleAccess { stage: 2 };
        assert!(e.to_string().contains("twice"));
        let e = AsicError::StageRegression {
            bound_stage: 1,
            current_stage: 3,
        };
        assert!(e.to_string().contains("forward"));
    }
}
