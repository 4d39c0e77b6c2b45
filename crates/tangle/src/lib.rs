//! A DAG ledger ("tangle") substrate for decentralized federated learning.
//!
//! The paper communicates model updates through a directed acyclic graph in
//! the style of IOTA's tangle (Popov): every transaction approves (points
//! to) one or more earlier transactions, *tips* are transactions without
//! approvers yet, and new transactions choose which tips to approve via a
//! random walk.
//!
//! This crate provides the ledger mechanics, generic over the transaction
//! payload:
//!
//! * [`TangleRead`] — the read surface every store implements: a few
//!   required accessors, plus every algorithm over a tangle written once
//!   as a provided method — cumulative weights and depth-from-tips
//!   ([`TangleRead::cumulative_weights`], [`TangleRead::depths_from_tips`])
//!   as used by classic tangle tip selection and Popov's walk-start
//!   sampling, past cones, edges and Graphviz export
//!   ([`TangleRead::to_dot`]),
//! * [`Tangle`] — the sequential store behind `&mut self`, and the one
//!   home of the DAG rules (parent validation, children, tips, heights,
//!   counters): each client's replica view in `dagfl-core` is one (over
//!   shared transaction records),
//! * [`ShardedTangle`] — the store the simulators run on: a `Tangle`
//!   behind one lock plus write-once transaction slots, so slots are
//!   read with no lock, structure is read under that one lock, and
//!   writes — through `&self` — happen only in the simulators' serial
//!   phases,
//! * [`TangleSnapshot`] — an order-preserving export of a tangle's state,
//! * a pluggable random-walk engine ([`RandomWalker`], [`WalkBias`]) with
//!   [`UniformBias`] (the paper's "random tip selector" baseline) and
//!   [`CumulativeWeightBias`] (classic IOTA MCMC). The paper's
//!   accuracy-aware bias lives in `dagfl-core`, where models can be
//!   evaluated.
//!
//! # Example
//!
//! ```
//! use dagfl_tangle::{RandomWalker, Tangle, UniformBias};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), dagfl_tangle::TangleError> {
//! let mut tangle = Tangle::new("genesis");
//! let genesis = tangle.genesis();
//! let a = tangle.attach("a", &[genesis])?;
//! let _b = tangle.attach("b", &[genesis, a])?;
//! let mut rng = StdRng::seed_from_u64(0);
//! let walker = RandomWalker::new();
//! let result = walker.walk(&tangle, genesis, &mut UniformBias, &mut rng)?;
//! assert!(tangle.is_tip(result.tip));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod export;
mod read;
mod sharded;
mod snapshot;
mod tangle;
mod transaction;
mod walk;
mod weights;

pub use error::TangleError;
pub use export::TangleStats;
pub use read::{TangleRead, WalkStartBand};
pub use sharded::ShardedTangle;
pub use snapshot::{SnapshotRecord, TangleSnapshot};
pub use tangle::{Tangle, DEPTH_CEILING};
pub use transaction::{Transaction, TxId};
pub use walk::{
    weighted_choice, CumulativeWeightBias, RandomWalker, UniformBias, WalkBias, WalkResult,
};
