//! The reshaping functions behind the [`crate::FIGURES`] rows, grouped
//! by what they drive: α sweeps, baseline comparisons, ablations, the
//! two execution modes, the hyperparameter tables and the tangle itself.
//! What each output shows, and the paper shape to compare it with, is
//! documented on its registry row. (Figures 12–14 live with their
//! shared runs in [`crate::poisoning_suite`].)

pub mod ablations;
pub mod alpha;
pub mod baselines;
pub mod modes;
pub mod tables;
pub mod tangle;
