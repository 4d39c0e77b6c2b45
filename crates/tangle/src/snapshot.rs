//! Snapshot export of a tangle: a flat, order-preserving record list
//! that can rebuild the DAG elsewhere.
//!
//! A snapshot is the tangle's transaction list in insertion
//! (topological) order with parents expressed as indices into that
//! list. Because ids are assigned sequentially, replaying the records
//! in order through `attach_with_meta` reproduces the exact same id
//! assignment.

use crate::Transaction;

/// One transaction of a snapshot: parents as topological indices plus
/// the payload and metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord<P> {
    /// Indices (insertion order) of the approved transactions. Empty
    /// only for the genesis record.
    pub parents: Vec<u64>,
    /// The transaction payload.
    pub payload: P,
    /// The publishing client, if recorded.
    pub issuer: Option<u32>,
    /// The round (or logical time) the transaction was published in.
    pub round: u32,
}

/// A serializable copy of a tangle's full state.
///
/// # Example
///
/// ```
/// use dagfl_tangle::ShardedTangle;
///
/// # fn main() -> Result<(), dagfl_tangle::TangleError> {
/// let tangle = ShardedTangle::new("genesis");
/// let g = tangle.genesis();
/// tangle.attach("a", &[g])?;
/// let snapshot = tangle.snapshot();
/// assert_eq!(snapshot.len(), tangle.len());
/// assert_eq!(snapshot.records()[1].parents, vec![g.index()]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TangleSnapshot<P> {
    records: Vec<SnapshotRecord<P>>,
}

impl<P> TangleSnapshot<P> {
    /// Builds a snapshot directly from records (the first must be a
    /// genesis record).
    pub fn from_records(records: Vec<SnapshotRecord<P>>) -> Self {
        Self { records }
    }

    /// The records in insertion (topological) order.
    pub fn records(&self) -> &[SnapshotRecord<P>] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Convenience: snapshot a single transaction as a record (parents as
/// indices).
impl<P: Clone> From<&Transaction<P>> for SnapshotRecord<P> {
    fn from(tx: &Transaction<P>) -> Self {
        SnapshotRecord {
            parents: tx.parents().iter().map(|p| p.index()).collect(),
            payload: tx.payload().clone(),
            issuer: tx.issuer(),
            round: tx.round(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedTangle, Tangle, TangleRead, TxId};

    fn sample() -> ShardedTangle<u32> {
        let t = ShardedTangle::new(0);
        let g = t.genesis();
        let a = t.attach(1, &[g]).unwrap();
        let b = t.attach_with_meta(2, &[g, a], Some(1), 7).unwrap();
        t.attach(3, &[a, b]).unwrap();
        t
    }

    #[test]
    fn snapshot_round_trips_structure_and_meta() {
        let t = sample();
        // Replaying the records in order rebuilds the same DAG.
        let mut records = t.snapshot().records().to_vec().into_iter();
        let mut rebuilt = Tangle::new(records.next().unwrap().payload);
        for record in records {
            let parents: Vec<TxId> = record.parents.iter().map(|&p| TxId(p)).collect();
            rebuilt
                .attach_with_meta(record.payload, &parents, record.issuer, record.round)
                .unwrap();
        }
        assert_eq!(rebuilt.len(), t.len());
        assert_eq!(rebuilt.edges(), t.edges());
        assert_eq!(rebuilt.tips(), t.tips());
        for (a, b) in t.iter().zip(rebuilt.iter()) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.payload(), b.payload());
            assert_eq!(a.issuer(), b.issuer());
            assert_eq!(a.round(), b.round());
        }
    }

    #[test]
    fn record_from_transaction_matches_snapshot() {
        let t = sample();
        let snap = t.snapshot();
        assert_eq!(snap.len(), t.len());
        for (tx, rec) in t.iter().zip(snap.records()) {
            assert_eq!(&SnapshotRecord::from(tx), rec);
        }
        assert_eq!(
            snap.records()[2],
            SnapshotRecord {
                parents: vec![0, 1],
                payload: 2,
                issuer: Some(1),
                round: 7,
            }
        );
    }
}
