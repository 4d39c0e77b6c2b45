//! Synthetic "Poets": two-language next-character prediction.
//!
//! The paper's Poets dataset combines Shakespeare (English) and Goethe
//! (German) texts; the two languages form the two client clusters
//! (§5.1.2). We synthesize the same structure from common function-word
//! streams: English-like clients sample from an English word list, German
//! clients from a German list rich in umlauts/ß, so the character
//! statistics of the two clusters differ exactly where the languages do.

use dagfl_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{ClientDataset, FederatedDataset, MIN_SAMPLES};

/// The shared character vocabulary: `a`–`z`, space, full stop and the four
/// German specials.
pub const POETS_VOCAB: [char; 32] = [
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', ' ', '.', 'ä', 'ö', 'ü', 'ß',
];

/// Common English function words (language cluster 0).
const ENGLISH_WORDS: &[&str] = &[
    "the", "and", "to", "of", "that", "is", "was", "he", "for", "it", "with", "as", "his", "on",
    "be", "at", "by", "had", "not", "are", "but", "from", "or", "have", "they", "which", "one",
    "you", "were", "her", "all", "she", "there", "would", "their", "will", "when", "who", "him",
    "been", "has", "more", "if", "no", "out", "so", "what", "up", "said", "its",
];

/// Common German function words (language cluster 1), rich in umlauts.
const GERMAN_WORDS: &[&str] = &[
    "der",
    "die",
    "und",
    "das",
    "ist",
    "nicht",
    "ich",
    "ein",
    "zu",
    "es",
    "sie",
    "mit",
    "sich",
    "auf",
    "für",
    "wir",
    "über",
    "können",
    "müssen",
    "schön",
    "größe",
    "wäre",
    "hätte",
    "würde",
    "dass",
    "aber",
    "auch",
    "nach",
    "bei",
    "aus",
    "wenn",
    "nur",
    "noch",
    "schon",
    "mehr",
    "sehr",
    "vom",
    "zum",
    "dieser",
    "weiß",
    "heißt",
    "natürlich",
    "früh",
    "später",
    "gegenüber",
    "möchte",
    "dafür",
    "darüber",
    "zurück",
    "grün",
];

/// Configuration for the synthetic Poets generator.
#[derive(Debug, Clone, Copy)]
pub struct PoetsConfig {
    /// Clients per language (total clients = 2×this).
    pub clients_per_language: usize,
    /// Character windows per client before the 90:10 split.
    pub samples_per_client: usize,
    /// Window length in characters (the paper uses 80; shorter windows
    /// train faster with identical cluster structure).
    pub seq_len: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for PoetsConfig {
    fn default() -> Self {
        Self {
            clients_per_language: 10,
            samples_per_client: 60,
            seq_len: 20,
            seed: 42,
        }
    }
}

/// Maps a character to its vocabulary index, if present.
pub fn char_to_token(c: char) -> Option<usize> {
    POETS_VOCAB.iter().position(|&v| v == c)
}

/// Generates a stream of `len` tokens for one client of the given language.
fn token_stream<R: Rng>(words: &[&str], len: usize, rng: &mut R) -> Vec<usize> {
    let mut tokens = Vec::with_capacity(len + 16);
    while tokens.len() < len {
        let word = words[rng.gen_range(0..words.len())];
        for c in word.chars() {
            if let Some(t) = char_to_token(c) {
                tokens.push(t);
            }
        }
        // Occasionally end a "sentence".
        if rng.gen::<f32>() < 0.1 {
            tokens.push(char_to_token('.').expect("vocab contains '.'"));
        }
        tokens.push(char_to_token(' ').expect("vocab contains ' '"));
    }
    tokens.truncate(len);
    tokens
}

/// Generates the two-cluster Poets dataset.
///
/// Cluster 0 holds English-like clients, cluster 1 German-like clients.
/// Features are token-id windows of `seq_len`; the label is the following
/// token.
///
/// # Panics
///
/// Panics if any configuration field is zero or `samples_per_client < 10`.
pub fn poets(cfg: &PoetsConfig) -> FederatedDataset {
    assert!(
        cfg.clients_per_language > 0,
        "need clients in each language"
    );
    assert!(
        cfg.samples_per_client >= MIN_SAMPLES,
        "too few samples per client"
    );
    assert!(cfg.seq_len > 0, "sequence length must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut clients = Vec::with_capacity(2 * cfg.clients_per_language);
    let mut id = 0u32;
    for (cluster, words) in [(0usize, ENGLISH_WORDS), (1usize, GERMAN_WORDS)] {
        for _ in 0..cfg.clients_per_language {
            // Windows advance by a stride of 3, so a modest stream yields
            // the requested number of (window, next-char) samples.
            let stride = 3;
            let needed = cfg.seq_len + 1 + stride * (cfg.samples_per_client - 1);
            let stream = token_stream(words, needed, &mut rng);
            let mut x = Matrix::zeros(cfg.samples_per_client, cfg.seq_len);
            let mut y = Vec::with_capacity(cfg.samples_per_client);
            for s in 0..cfg.samples_per_client {
                let start = s * stride;
                for (t, slot) in x.row_mut(s).iter_mut().enumerate() {
                    *slot = stream[start + t] as f32;
                }
                y.push(stream[start + cfg.seq_len]);
            }
            clients.push(ClientDataset::from_split(id, cluster, x, y, 0.1, &mut rng));
            id += 1;
        }
    }
    FederatedDataset::new("poets", POETS_VOCAB.len(), clients)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_has_no_duplicates() {
        for (i, a) in POETS_VOCAB.iter().enumerate() {
            for b in &POETS_VOCAB[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn char_to_token_roundtrips() {
        for (i, &c) in POETS_VOCAB.iter().enumerate() {
            assert_eq!(char_to_token(c), Some(i));
        }
        assert_eq!(char_to_token('!'), None);
    }

    #[test]
    fn two_equal_clusters() {
        let ds = poets(&PoetsConfig {
            clients_per_language: 4,
            ..PoetsConfig::default()
        });
        assert_eq!(ds.num_clients(), 8);
        assert_eq!(ds.clusters(), vec![0, 1]);
        assert!((ds.base_pureness() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn all_tokens_within_vocab() {
        let ds = poets(&PoetsConfig::default());
        for client in ds.clients() {
            for row in 0..client.train_x().rows() {
                for &t in client.train_x().row(row) {
                    assert!(t >= 0.0 && (t as usize) < POETS_VOCAB.len());
                }
            }
            for &label in client.train_y() {
                assert!(label < POETS_VOCAB.len());
            }
        }
    }

    #[test]
    fn english_clients_avoid_umlauts() {
        let ds = poets(&PoetsConfig {
            clients_per_language: 3,
            samples_per_client: 100,
            ..PoetsConfig::default()
        });
        let umlaut_tokens: Vec<usize> = ['ä', 'ö', 'ü', 'ß']
            .iter()
            .map(|&c| char_to_token(c).unwrap())
            .collect();
        for client in ds.clients().iter().filter(|c| c.cluster() == 0) {
            for row in 0..client.train_x().rows() {
                for &t in client.train_x().row(row) {
                    assert!(
                        !umlaut_tokens.contains(&(t as usize)),
                        "english client used an umlaut"
                    );
                }
            }
        }
    }

    #[test]
    fn german_clients_use_umlauts() {
        let ds = poets(&PoetsConfig {
            clients_per_language: 3,
            samples_per_client: 100,
            ..PoetsConfig::default()
        });
        let umlaut_tokens: Vec<usize> = ['ä', 'ö', 'ü', 'ß']
            .iter()
            .map(|&c| char_to_token(c).unwrap())
            .collect();
        for client in ds.clients().iter().filter(|c| c.cluster() == 1) {
            let mut found = false;
            for row in 0..client.train_x().rows() {
                for &t in client.train_x().row(row) {
                    if umlaut_tokens.contains(&(t as usize)) {
                        found = true;
                    }
                }
            }
            assert!(found, "german client {} never used an umlaut", client.id());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = PoetsConfig::default();
        let a = poets(&cfg);
        let b = poets(&cfg);
        assert_eq!(a.clients()[3].train_y(), b.clients()[3].train_y());
    }

    #[test]
    fn sample_shapes_match_config() {
        let cfg = PoetsConfig {
            clients_per_language: 2,
            samples_per_client: 40,
            seq_len: 12,
            seed: 7,
        };
        let ds = poets(&cfg);
        for client in ds.clients() {
            assert_eq!(client.train_x().cols(), 12);
            assert_eq!(client.num_train() + client.num_test(), 40);
        }
    }

    #[test]
    fn char_rnn_improves_on_poets_client() {
        use dagfl_nn::{char_rnn, Model, SgdConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let ds = poets(&PoetsConfig {
            clients_per_language: 1,
            samples_per_client: 200,
            seq_len: 10,
            seed: 3,
        });
        let client = &ds.clients()[0];
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = char_rnn(&mut rng, POETS_VOCAB.len(), 8, 32);
        let before = model.evaluate(client.test_x(), client.test_y()).unwrap();
        let opt = SgdConfig::new(0.5);
        let mut batch_rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            for (x, y) in client.train_batches(10, 18, &mut batch_rng) {
                model.train_batch(&x, &y, &opt).unwrap();
            }
        }
        let after = model.evaluate(client.test_x(), client.test_y()).unwrap();
        assert!(
            after.accuracy > before.accuracy && after.accuracy > 0.25,
            "no learning progress: {} -> {}",
            before.accuracy,
            after.accuracy
        );
    }
}
