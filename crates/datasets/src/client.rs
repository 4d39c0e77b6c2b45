//! Per-client datasets and the federated collection.

use dagfl_tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// The local data of one federated client, already split 90:10 into train
/// and test partitions (the paper's split, §5.1).
#[derive(Debug, Clone)]
pub struct ClientDataset {
    id: u32,
    cluster: usize,
    train_x: Matrix,
    train_y: Vec<usize>,
    test_x: Matrix,
    test_y: Vec<usize>,
}

impl ClientDataset {
    /// Creates a client dataset from pre-split partitions.
    ///
    /// # Panics
    ///
    /// Panics if a partition's feature rows and labels disagree.
    pub fn new(
        id: u32,
        cluster: usize,
        train_x: Matrix,
        train_y: Vec<usize>,
        test_x: Matrix,
        test_y: Vec<usize>,
    ) -> Self {
        assert_eq!(train_x.rows(), train_y.len(), "train rows != train labels");
        assert_eq!(test_x.rows(), test_y.len(), "test rows != test labels");
        Self {
            id,
            cluster,
            train_x,
            train_y,
            test_x,
            test_y,
        }
    }

    /// Creates a client dataset by splitting `(x, y)` with the given test
    /// fraction (rows are shuffled first). The rows are reordered inside
    /// `x`'s own buffer, train rows first, and the test rows are cut off
    /// its end, so the pixels are never held twice.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != y.len()` or `test_fraction` is outside
    /// `(0, 1)`.
    pub fn from_split<R: Rng>(
        id: u32,
        cluster: usize,
        x: Matrix,
        y: Vec<usize>,
        test_fraction: f32,
        rng: &mut R,
    ) -> Self {
        assert_eq!(x.rows(), y.len(), "rows != labels");
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "test fraction must be in (0, 1)"
        );
        let mut indices: Vec<usize> = (0..y.len()).collect();
        indices.shuffle(rng);
        let test_count = ((y.len() as f32 * test_fraction).round() as usize)
            .clamp(1, y.len().saturating_sub(1).max(1));
        let (test_idx, train_idx) = indices.split_at(test_count);
        let train_y = train_idx.iter().map(|&i| y[i]).collect();
        let test_y = test_idx.iter().map(|&i| y[i]).collect();
        let cols = x.cols();
        let mut data = x.into_vec();
        permute_rows(&mut data, cols, &[train_idx, test_idx].concat());
        let test_x = data.split_off(train_idx.len() * cols);
        // glibc shrinks the train rows' heap chunk in place.
        data.shrink_to_fit();
        let train_x = Matrix::from_vec(train_idx.len(), cols, data).expect("whole rows");
        let test_x = Matrix::from_vec(test_count, cols, test_x).expect("whole rows");
        Self::new(id, cluster, train_x, train_y, test_x, test_y)
    }

    /// The client's id (dense, `0..n` within one federated dataset).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The ground-truth cluster this client belongs to.
    pub fn cluster(&self) -> usize {
        self.cluster
    }

    /// Training features (rows are samples).
    pub fn train_x(&self) -> &Matrix {
        &self.train_x
    }

    /// Training labels.
    pub fn train_y(&self) -> &[usize] {
        &self.train_y
    }

    /// Test features (rows are samples).
    pub fn test_x(&self) -> &Matrix {
        &self.test_x
    }

    /// Test labels.
    pub fn test_y(&self) -> &[usize] {
        &self.test_y
    }

    /// Number of training samples.
    pub fn num_train(&self) -> usize {
        self.train_y.len()
    }

    /// Number of test samples.
    pub fn num_test(&self) -> usize {
        self.test_y.len()
    }

    /// Produces `num_batches` mini-batches of `batch_size`, shuffling and
    /// cycling through the training data as needed.
    ///
    /// The paper fixes the number of local batches per round "to equalize
    /// the number of batches used for training per client in case of an
    /// uneven distribution" (Table 1), which requires cycling for small
    /// clients — hence batches are drawn round-robin from a shuffled
    /// permutation.
    ///
    /// # Panics
    ///
    /// Panics if the client has no training data or `batch_size == 0`.
    pub fn train_batches<R: Rng>(
        &self,
        batch_size: usize,
        num_batches: usize,
        rng: &mut R,
    ) -> Vec<(Matrix, Vec<usize>)> {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(
            self.num_train() > 0,
            "client {} has no training data",
            self.id
        );
        let mut order: Vec<usize> = (0..self.num_train()).collect();
        order.shuffle(rng);
        let mut cursor = 0;
        let mut batches = Vec::with_capacity(num_batches);
        for _ in 0..num_batches {
            let mut idx = Vec::with_capacity(batch_size);
            for _ in 0..batch_size.min(self.num_train()) {
                if cursor == order.len() {
                    order.shuffle(rng);
                    cursor = 0;
                }
                idx.push(order[cursor]);
                cursor += 1;
            }
            let bx = self.train_x.select_rows(&idx);
            let by = idx.iter().map(|&i| self.train_y[i]).collect();
            batches.push((bx, by));
        }
        batches
    }

    /// Mutable access to the label vectors, for attack transforms.
    pub(crate) fn labels_mut(&mut self) -> (&mut Vec<usize>, &mut Vec<usize>) {
        (&mut self.train_y, &mut self.test_y)
    }
}

/// A complete federated dataset: the clients plus task metadata.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    name: String,
    num_classes: usize,
    feature_len: usize,
    clients: Vec<ClientDataset>,
}

impl FederatedDataset {
    /// Bundles clients into a federated dataset.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty, ids are not dense `0..n`, or feature
    /// widths are inconsistent.
    pub fn new(name: impl Into<String>, num_classes: usize, clients: Vec<ClientDataset>) -> Self {
        assert!(!clients.is_empty(), "a federated dataset needs clients");
        let feature_len = clients[0].train_x().cols();
        for (i, c) in clients.iter().enumerate() {
            assert_eq!(c.id() as usize, i, "client ids must be dense 0..n");
            assert_eq!(
                c.train_x().cols(),
                feature_len,
                "inconsistent feature width"
            );
        }
        Self {
            name: name.into(),
            num_classes,
            feature_len,
            clients,
        }
    }

    /// Human-readable dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of label classes of the task.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Width of each feature row.
    pub fn feature_len(&self) -> usize {
        self.feature_len
    }

    /// All clients, ordered by id.
    pub fn clients(&self) -> &[ClientDataset] {
        &self.clients
    }

    /// Mutable access to the clients (used by attack transforms).
    pub fn clients_mut(&mut self) -> &mut [ClientDataset] {
        &mut self.clients
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// The ground-truth cluster label of every client, by id.
    pub fn cluster_labels(&self) -> Vec<usize> {
        self.clients.iter().map(ClientDataset::cluster).collect()
    }

    /// The distinct cluster labels present, sorted.
    pub fn clusters(&self) -> Vec<usize> {
        let mut c: Vec<usize> = self.clients.iter().map(ClientDataset::cluster).collect();
        c.sort_unstable();
        c.dedup();
        c
    }

    /// The *base pureness*: the approval pureness expected from uniformly
    /// random approvals, `Σ (n_c / n)²` over the cluster sizes (Table 2
    /// reports 1/k for equal-sized clusters).
    pub fn base_pureness(&self) -> f64 {
        let n = self.num_clients() as f64;
        let mut counts = std::collections::HashMap::new();
        for c in &self.clients {
            *counts.entry(c.cluster()).or_insert(0usize) += 1;
        }
        counts
            .values()
            .map(|&k| {
                let p = k as f64 / n;
                p * p
            })
            .sum()
    }
}

/// Reorders the `cols`-wide rows of `data` in place so that row `i`
/// becomes the old row `order[i]`: each cycle of the permutation is
/// walked once, its first row held aside, so every row moves once.
fn permute_rows(data: &mut [f32], cols: usize, order: &[usize]) {
    let mut done = vec![false; order.len()];
    let mut held = vec![0.0; cols];
    for start in 0..order.len() {
        if done[start] {
            continue;
        }
        held.copy_from_slice(&data[start * cols..][..cols]);
        let mut i = start;
        while order[i] != start {
            done[i] = true;
            data.copy_within(order[i] * cols..(order[i] + 1) * cols, i * cols);
            i = order[i];
        }
        done[i] = true;
        data[i * cols..][..cols].copy_from_slice(&held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_client(id: u32, n: usize) -> ClientDataset {
        let x = Matrix::from_fn(n, 3, |r, c| (r * 3 + c) as f32);
        let y = (0..n).map(|i| i % 2).collect();
        ClientDataset::new(id, 0, x, y, Matrix::zeros(1, 3), vec![0])
    }

    #[test]
    fn from_split_respects_fraction() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Matrix::from_fn(100, 4, |r, _| r as f32);
        let y = (0..100).map(|i| i % 3).collect();
        let c = ClientDataset::from_split(0, 1, x, y, 0.1, &mut rng);
        assert_eq!(c.num_test(), 10);
        assert_eq!(c.num_train(), 90);
        assert_eq!(c.cluster(), 1);
    }

    #[test]
    fn from_split_keeps_feature_label_pairs_together() {
        let mut rng = StdRng::seed_from_u64(0);
        // Feature row r encodes its label: x[r][0] == y[r].
        let x = Matrix::from_fn(50, 1, |r, _| (r % 5) as f32);
        let y = (0..50).map(|i| i % 5).collect();
        let c = ClientDataset::from_split(0, 0, x, y, 0.2, &mut rng);
        for (row, &label) in (0..c.num_train()).zip(c.train_y()) {
            assert_eq!(c.train_x().row(row)[0] as usize, label);
        }
        for (row, &label) in (0..c.num_test()).zip(c.test_y()) {
            assert_eq!(c.test_x().row(row)[0] as usize, label);
        }
    }

    #[test]
    fn from_split_matches_copying_the_shuffled_rows_out() {
        for (rows, cols, seed) in [(1, 3, 0), (2, 1, 1), (60, 196, 2), (97, 5, 3), (40, 0, 4)] {
            let x = Matrix::from_fn(rows, cols, |r, c| (r * 1000 + c) as f32 - 0.5);
            let y: Vec<usize> = (0..rows).map(|i| i % 7).collect();
            let c = ClientDataset::from_split(
                0,
                0,
                x.clone(),
                y,
                0.1,
                &mut StdRng::seed_from_u64(seed),
            );
            // The same draws, then each partition copied out of `x`.
            let mut indices: Vec<usize> = (0..rows).collect();
            indices.shuffle(&mut StdRng::seed_from_u64(seed));
            let (test_idx, train_idx) = indices.split_at(c.num_test());
            assert_eq!(
                c.train_x(),
                &x.select_rows(train_idx),
                "{rows}x{cols} train"
            );
            assert_eq!(c.test_x(), &x.select_rows(test_idx), "{rows}x{cols} test");
            assert_eq!(c.train_x().as_slice().len(), train_idx.len() * cols);
        }
    }

    #[test]
    fn batches_have_requested_shape() {
        let c = toy_client(0, 25);
        let mut rng = StdRng::seed_from_u64(1);
        let batches = c.train_batches(10, 3, &mut rng);
        assert_eq!(batches.len(), 3);
        for (x, y) in &batches {
            assert_eq!(x.rows(), 10);
            assert_eq!(y.len(), 10);
        }
    }

    #[test]
    fn batches_cycle_small_datasets() {
        let c = toy_client(0, 4);
        let mut rng = StdRng::seed_from_u64(1);
        // 5 batches of 4 from only 4 samples requires cycling.
        let batches = c.train_batches(4, 5, &mut rng);
        assert_eq!(batches.len(), 5);
        for (x, _) in &batches {
            assert_eq!(x.rows(), 4);
        }
    }

    #[test]
    fn batch_size_capped_at_dataset_size() {
        let c = toy_client(0, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let batches = c.train_batches(10, 1, &mut rng);
        assert_eq!(batches[0].0.rows(), 3);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_panics() {
        let c = toy_client(0, 3);
        c.train_batches(0, 1, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn federated_dataset_accessors() {
        let ds = FederatedDataset::new("toy", 2, vec![toy_client(0, 5), toy_client(1, 5)]);
        assert_eq!(ds.name(), "toy");
        assert_eq!(ds.num_classes(), 2);
        assert_eq!(ds.num_clients(), 2);
        assert_eq!(ds.feature_len(), 3);
        assert_eq!(ds.clusters(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_panic() {
        FederatedDataset::new("bad", 2, vec![toy_client(5, 3)]);
    }

    #[test]
    fn base_pureness_equal_clusters() {
        let mk = |id: u32, cluster: usize| {
            let x = Matrix::zeros(2, 1);
            ClientDataset::new(id, cluster, x.clone(), vec![0, 0], x, vec![0, 0])
        };
        let ds = FederatedDataset::new(
            "p",
            1,
            vec![mk(0, 0), mk(1, 0), mk(2, 1), mk(3, 1), mk(4, 2), mk(5, 2)],
        );
        // Three equal clusters -> base pureness 1/3.
        assert!((ds.base_pureness() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn base_pureness_unequal_clusters() {
        let mk = |id: u32, cluster: usize| {
            let x = Matrix::zeros(1, 1);
            ClientDataset::new(id, cluster, x.clone(), vec![0], x, vec![0])
        };
        let ds = FederatedDataset::new("p", 1, vec![mk(0, 0), mk(1, 0), mk(2, 0), mk(3, 1)]);
        // (3/4)^2 + (1/4)^2 = 0.625
        assert!((ds.base_pureness() - 0.625).abs() < 1e-9);
    }
}
