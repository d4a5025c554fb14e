//! [`PacketPass`] — the guard that makes PISA's execution model
//! unavoidable.
//!
//! Every stateful access (register read/write/RMW, table lookup, hash
//! computation) takes `&mut PacketPass`. The guard tracks the furthest
//! stage the packet has reached and the set of resources already touched
//! (one bit per [`ResourceId`], so a pass never allocates), and refuses:
//!
//! * accesses to a resource bound to an **earlier** stage
//!   ([`AsicError::StageRegression`]), and
//! * a **second** access to the same resource
//!   ([`AsicError::DoubleAccess`]).
//!
//! This is the constraint that forces NetClone's shadow state table: one
//! pass cannot read `StateT` twice, so the second candidate's state must
//! live in a copy allocated in a later stage (§3.4).

use crate::error::AsicError;
use crate::resources::ResourceId;

/// Tracks one packet's traversal of the pipeline.
#[derive(Debug, Default)]
pub struct PacketPass {
    current_stage: u8,
    /// Bit `i` set = resource `i` touched; [`Layout::allocate`] hands out
    /// no id beyond [`Self::MAX_RESOURCES`].
    ///
    /// [`Layout::allocate`]: crate::Layout::allocate
    touched: u64,
}

impl PacketPass {
    /// Resources one program may declare (the guard's bitmask width).
    pub const MAX_RESOURCES: usize = u64::BITS as usize;

    /// Begins a fresh pass at the parser (before stage 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// The furthest stage this packet has reached.
    pub fn current_stage(&self) -> u8 {
        self.current_stage
    }

    /// Number of stateful accesses performed so far.
    pub fn accesses(&self) -> usize {
        self.touched.count_ones() as usize
    }

    /// Validates and records an access to `resource` bound at `stage`.
    ///
    /// Called by the resource wrappers; programs normally never call this
    /// directly.
    #[inline]
    pub fn access(&mut self, resource: ResourceId, stage: u8) -> Result<(), AsicError> {
        if stage < self.current_stage {
            return Err(AsicError::StageRegression {
                bound_stage: stage,
                current_stage: self.current_stage,
            });
        }
        let bit = 1u64 << resource.index();
        if self.touched & bit != 0 {
            return Err(AsicError::DoubleAccess { stage });
        }
        self.current_stage = stage;
        self.touched |= bit;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: usize) -> ResourceId {
        ResourceId::new_for_test(n)
    }

    #[test]
    fn forward_accesses_are_allowed() {
        let mut pass = PacketPass::new();
        assert!(pass.access(rid(0), 0).is_ok());
        assert!(pass.access(rid(1), 0).is_ok()); // same stage, different resource
        assert!(pass.access(rid(2), 3).is_ok()); // skipping stages is fine
        assert_eq!(pass.current_stage(), 3);
        assert_eq!(pass.accesses(), 3);
    }

    #[test]
    fn backward_access_is_rejected() {
        let mut pass = PacketPass::new();
        pass.access(rid(0), 2).unwrap();
        assert_eq!(
            pass.access(rid(1), 1),
            Err(AsicError::StageRegression {
                bound_stage: 1,
                current_stage: 2
            })
        );
    }

    #[test]
    fn double_access_is_rejected() {
        let mut pass = PacketPass::new();
        pass.access(rid(7), 1).unwrap();
        assert_eq!(
            pass.access(rid(7), 1),
            Err(AsicError::DoubleAccess { stage: 1 })
        );
        // …even if the packet has moved to a later stage in between: the
        // resource's memory is physically in stage 1, behind the packet.
        let mut pass = PacketPass::new();
        pass.access(rid(7), 1).unwrap();
        pass.access(rid(8), 4).unwrap();
        assert!(pass.access(rid(7), 1).is_err());
    }

    #[test]
    fn fresh_pass_resets_everything() {
        let mut pass = PacketPass::new();
        pass.access(rid(0), 5).unwrap();
        let pass2 = PacketPass::new();
        assert_eq!(pass2.current_stage(), 0);
        assert_eq!(pass2.accesses(), 0);
    }
}
