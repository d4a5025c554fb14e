//! One module per paper artifact: every figure and table of the
//! evaluation, plus the §4.1 resource report and this reproduction's
//! ablations. Each module keeps its typed result (for shape assertions;
//! the load sweeps return [`Panel`](crate::sweep::Panel)s) and exports a
//! `pub const EXPERIMENT` that the
//! [`harness registry`](crate::harness::registry) lists; all output flows
//! through the unified [`netclone_stats::Report`] artifact.

pub mod scale;

pub mod ablations;
pub mod adversarial;
pub mod chaos;
pub mod fattree;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod multirack;
pub mod resources;
pub mod table1;

pub use scale::Scale;
