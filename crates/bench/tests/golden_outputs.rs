//! Pins every byte the figure registry writes at quick scale.
//!
//! One test runs every row of [`FIGURES`] in-process, in registry order,
//! into a temporary directory and compares each written file with a
//! table recorded from the parent commit's `run_all` (the subprocess
//! launcher this registry replaced). Record new constants only when the
//! numbers are *meant* to change: the failure message prints the rows to
//! paste.

use std::collections::BTreeSet;
use std::path::PathBuf;

use dagfl_bench::poisoning_suite::POISONING_PRESETS;
use dagfl_bench::{Figure, Scale, Session, FIGURES};

/// `(file, FNV-1a of its bytes, one 16-bit mark per line as 4 hex
/// digits)`; the marks only serve to name the first line that moved.
/// `fig15_walk_scalability.csv` is digested with its wall-clock column
/// (`walk_duration_ms`) blanked.
const GOLDEN: &[(&str, u64, &str)] = &[
    (
        "ablation_design_choices.csv",
        0x49204c910d88c90b,
        "7f7f17b94ac5f82fd7c575125bac977bbf53",
    ),
    (
        "ablation_garbage_attack.csv",
        0x960f9eee372ad047,
        "89cdc54cc4924f63",
    ),
    (
        "async_vs_rounds.csv",
        0x78dd1b9752fdd356,
        "d761fa7ce58a754b850f",
    ),
    (
        "communication_cost.csv",
        0xe8946edaf58c2c96,
        "e1a98322b0a8",
    ),
    (
        "fig04_dag.dot",
        0x3914bd183a61c0f4,
        "0f06ea086ccce512e07009b58b5d2a4f29344624e6a5c1a19895e4e0e20b25c84c14dc1e736c06fe722ce9e199d860d4354310c17c227882c3f69bbd77a9aa2993203ee7c9b6ff52e015f0d20254eba632ae4d5a1dcae0d4df460e14f1f482371db0eaac96c8dfea8af13d06a9e650fd94afe1e2cf45c8a20f65208efa0f9710e69dec63ede9c4726d2cf48df42dbf8258a4a92bb54f5bf2f4e1bfca84f2b3d6abcdb0de01a2eae362c6a5880c45b99a2f8e71fe0fe415a63ac4967a57ff472721cb4015b4eca15da3dd9ebee14af19fa2581beb2ea3a86ba4b9b1e366e157dafc25ebdb9ff0e5b6f276c7cda9cce4afc6f42c6f17c94c987231bde5c6cf6e57614624dcb48a2655f3f670440925bde3f74f0e9d1c8f106cf5c3bf29377fed56c0dd6d7eb74d227360c2fff9cccd7bb170d75802c71b0eec999120bad7a5",
    ),
    (
        "fig05_alpha_cluster_metrics.csv",
        0xcee2c818f90d2814,
        "e2fdd9731716dc432a93d06caf1df8a7d637656641553010c52ca06b44fc79ff95d0f9a04a833bde9c5f732049b18b1ba884c982b0bc38eb8e77e7c864c1",
    ),
    (
        "fig06_alpha_accuracy.csv",
        0x6fcd63f55db77e29,
        "e25ec925b93f1b4f2364ee8a2b79b0d7dc21387296550a0c5b42f35f3d55cff60e81de079a3d3cae4ae2dd8e395c2710b01c9fea655a797313514b02806db395b0837952de04083702ebeaa520afa9113873d0abffbd8309fbbbceba1b968b7bee0a5965ab16d0993e7cea2f7226697c31a1763589b8b89c7a2bc129e1b9813bb807e6cdd1f29bde0046a0902b17908a76b0630ee9f97dcb2010e15a63032598b9eb9bd170f98038eb504debb4a0fd843c50e479134e3d714fbed631d40d4fc522f4fbdacd68661215806701a21fcd2f7a19b54f76d325fefbb978f16ba4381e5146fa34689e48fd55b138896ea1020f9a5e",
    ),
    (
        "fig07_dynamic_normalization.csv",
        0x2197104ad302c0d3,
        "e25ec925b93f1b4f2364de142b797ba42bb904e94b4b810d5c95440ff53ee960920af3e350270d79349cdd8ede742710b01c9fea30e4797313516793806db395b08379528438a9d3d1785cd8163eb86350fce14c1a77ab3ccc4708341b968b7bdb17fe8232c898b81dd6ea2fb5c4697c31a17b1e89b8b89c7a2bc129e1b9dac7e6d238af7feffa19490ca090630c8d8b76b0ac12e9f962f5b79a454ac899b9a7d21c2e0ddd8aca2bf2a6d45e8dfbfd84853ddd7f77593d714fbed631d40d4fc522f4fbdacd68661215806701a21fcd2f7a19b54f76d325fefbb978f16ba4381e5146fa34689e48fd55b138896ea1020f9a5e",
    ),
    (
        "fig07_pureness_by_normalization.csv",
        0x757a2f40f163ee24,
        "038fb8ac6f1e54f705834180175ef88626f2",
    ),
    (
        "fig08_relaxed_clusters.csv",
        0x2d3440d244e65f07,
        "e25e93d836d3abed212bd7021e69d91364a903b71899343f85c7f550e715dcd681dc3443ca42c408552bc1f02960dd5df1ef23bf041da3d83e0139c9e6de98ce93583ea3072cc8ad41020f45a6aca736084c88eb65dcfcad860c01eb4a72b01e7157596532c8bc84939294155c70438eea2712cbd4c84c61cfc60aeee1b922fe7098ada5f27e84c5d878dc7f5500b710fe46babf70f3d630f19dcd0290801275b3648c01e12593b3952b70afcf78d61394e998b7a2bd21144fbea6f38fa199e122f4cca0cd68b687a635dbd428ea8a8268d16c2699ec191c135278f12500765aaa10e0df8c43697bc005a952fb6557854003",
    ),
    (
        "fig09_fedavg_comparison.csv",
        0x21af03d00cc150a8,
        "860b919bca0d29e6e0181ed26cfea7c22a93cb810f9b2d5661b96370f8aa4d68345c52dc90f8bc76e98935f7a8b8523dd81dcdb67355d4e96279437dd34c89f02891ce7eb65ac83e1f11dc7d227b861e9541",
    ),
    (
        "fig10_11_fedprox_comparison.csv",
        0x2a062a558f950230,
        "fa6b4cc08f4c7ad2f04790070c36d2956d0407c6fabfa100d59faef41ceef82920ad9405ca29fb305ffb6476a9246084d346a2f79c2e39d31af1a327c045339923c77fdeb099fd4a782bf0ac222405ab61cebc29a8d40067186d772fab975686ede5285b61e9bf93cfe79d2384fe8e0819ab3ae367e1070f0748d1988e1f39d8de2fdf92bd3d9e11b7e30824f2093ed8095146931ab96959bcdb8fe3a2d1990c201a2ccc9fe791408eee3863ce793ef49004ea7cf51b",
    ),
    (
        "fig12_poisoning_flipped.csv",
        0xd1071375a1e1839f,
        "0f4dbb198f63f17ab7e17615782c39260fad6b1f4ec647a3d366f3adad88a668681c1f54f987923ae8a7",
    ),
    (
        "fig13_poisoned_approvals.csv",
        0xb0d107efc2c67090,
        "a5d3b7d722b95acbd1041b7e4cd7f1085e534e066a64a5649e2d6275fe7c8f72",
    ),
    (
        "fig14_poisoned_cluster_distribution.csv",
        0x0bf24b0ee4ec9e11,
        "92a3ada96c58",
    ),
    (
        "fig15_walk_scalability.csv",
        0x07d380312e4af594,
        "987c6f8912f5a8fe889074d765d7b9c10efb542d8e08524599486e527d551302e33705286ae811fa6f516f39e46c23b68f83bc4efa8d88ee36146a05acf6b89a7c65bef0b3639183611d16097094a859e8156558902cb9adfe719f623aaabde10ec93720a160680a42102ebd6469d7b6b7d2bd77df777dd59769",
    ),
    (
        "mode_comparison.csv",
        0x4de2c22f59b76d33,
        "8002c2f73e10f75f2f464f95add6ef2dcf77",
    ),
    (
        "specialization_matrix.csv",
        0x01a910f7198f8aef,
        "28954d6bbb7577bc2a4beb6de14fe971daf2e2fc",
    ),
    (
        "specialization_summary.csv",
        0x4162403171cc91ab,
        "4f92e4f1",
    ),
    (
        "sweep_async_delay.csv",
        0x3f3459c7a1272c88,
        "47238623fd1cc5f8",
    ),
    (
        "sweep_fig05_alpha.csv",
        0xc8754e1b44e71c8a,
        "0549c5f7fd9b441b",
    ),
    (
        "sweep_fig06_alpha.csv",
        0xe93995edd5d74417,
        "375e5ece11b449fc5f03",
    ),
    (
        "sweep_fig07_alpha.csv",
        0x6861671366049de3,
        "375e0d4322ab239d5f03",
    ),
    (
        "sweep_fig08_alpha.csv",
        0xa40ecc32fe4af537,
        "375efa100d825c296c09",
    ),
    (
        "table1_hyperparams.csv",
        0x596415a6252d037b,
        "fa3bf9444c59c186",
    ),
    (
        "table2_pureness.csv",
        0x8f431f2b9b7eb83b,
        "dd8f97cbd10e8f9c",
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line_mark(line: &str) -> String {
    let h = fnv1a(line.as_bytes());
    format!("{:04x}", (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) & 0xffff)
}

/// The text a file is digested as: its contents, minus what is wall
/// clock.
fn pinned_text(file: &str, text: String) -> String {
    if file != "fig15_walk_scalability.csv" {
        return text;
    }
    let mut lines = text.lines();
    let mut out = format!("{}\n", lines.next().expect("header"));
    for line in lines {
        let mut cells: Vec<&str> = line.split(',').collect();
        cells[2] = "";
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// `None` when `text` matches the golden row, else what to print.
fn mismatch(file: &str, text: &str, digest: u64, marks: &str) -> Option<String> {
    let new_digest = fnv1a(text.as_bytes());
    if new_digest == digest {
        return None;
    }
    let new_marks: String = text.lines().map(line_mark).collect();
    let first = text
        .lines()
        .enumerate()
        .find(|(i, line)| marks.get(i * 4..i * 4 + 4) != Some(line_mark(line).as_str()))
        .map_or_else(
            || format!("line {}: missing", text.lines().count() + 1),
            |(i, line)| format!("line {}: `{line}`", i + 1),
        );
    Some(format!(
        "{file}: digest 0x{new_digest:016x}, recorded 0x{digest:016x}; first differing {first}\n\
         to record: (\"{file}\", 0x{new_digest:016x}, \"{new_marks}\"),"
    ))
}

/// The `(name, shows)` rows listed under the README's "Figure index"
/// heading.
fn readme_index() -> Vec<(String, String)> {
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let text = std::fs::read_to_string(readme).expect("README.md is readable");
    text.lines()
        .skip_while(|line| !line.starts_with("### Figure index"))
        .skip(1)
        .take_while(|line| !line.starts_with('#'))
        .filter_map(|line| line.strip_prefix("| `")?.split_once("` | "))
        .filter_map(|(name, rest)| Some((name.to_string(), rest.split(" | ").next()?.to_string())))
        .collect()
}

#[test]
fn every_registry_row_writes_the_recorded_bytes() {
    let dir: PathBuf = std::env::temp_dir().join(format!("dagfl-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::new(Scale::Quick, &dir);

    let names: BTreeSet<&str> = FIGURES.iter().map(|figure| figure.name).collect();
    assert_eq!(names.len(), FIGURES.len(), "registry names are unique");
    let listed = readme_index();
    let registered: Vec<(String, String)> = FIGURES
        .iter()
        .map(|figure| (figure.name.to_string(), figure.shows.to_string()))
        .collect();
    assert_eq!(listed, registered, "README's figure index is the registry");

    // Run everything as `reproduce` does, freeing each shared run after
    // the last row that declares it, and hold each row to the presets it
    // declares.
    let rows: Vec<&Figure> = FIGURES.iter().collect();
    let mut written = BTreeSet::new();
    for (row, figure) in rows.iter().enumerate() {
        let before = session.resolved().len();
        for path in session.run(figure) {
            assert_eq!(path.parent(), Some(dir.as_path()), "{}", path.display());
            written.insert(path.file_name().unwrap().to_str().unwrap().to_string());
        }
        session.release(&rows[row + 1..]);
        for preset in &session.resolved()[before..] {
            assert!(
                figure.presets.contains(&preset.as_str()),
                "`{}` resolved `{preset}` without declaring it",
                figure.name
            );
        }
    }
    let resolved = session.resolved();
    for figure in FIGURES {
        for preset in figure.presets {
            assert!(
                resolved.iter().any(|r| r == preset),
                "`{}` declares `{preset}` but nothing resolved it",
                figure.name
            );
        }
    }
    // Figures 12-14 share their runs: four simulations, not nine.
    let poisoning: Vec<&str> = resolved
        .iter()
        .map(String::as_str)
        .filter(|preset| preset.starts_with("poisoning-"))
        .collect();
    assert_eq!(
        poisoning, POISONING_PRESETS,
        "each poisoning preset ran once"
    );
    // Table 2, Figure 9, the communication cost and the rounds row of
    // async_vs_rounds share their runs: each Table 1 preset is simulated
    // once and its FedAvg server (Figure 9's, which the communication
    // cost reads for table1-fmnist) is trained once.
    let ran = session.ran();
    for preset in ["table1-fmnist", "table1-poets", "table1-cifar"] {
        let runs: Vec<&str> = ran
            .iter()
            .filter_map(|run| run.strip_suffix(preset)?.strip_suffix(' '))
            .collect();
        assert_eq!(
            runs,
            ["simulation", "fedavg"],
            "the shared runs of `{preset}`"
        );
    }

    let recorded: BTreeSet<String> = GOLDEN.iter().map(|row| row.0.to_string()).collect();
    assert_eq!(written, recorded, "the set of files written");
    let failures: Vec<String> = GOLDEN
        .iter()
        .filter_map(|(file, digest, marks)| {
            let text = std::fs::read_to_string(dir.join(file)).expect("written file is readable");
            mismatch(file, &pinned_text(file, text), *digest, marks)
        })
        .collect();
    std::fs::remove_dir_all(&dir).expect("temporary results directory is removable");
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn a_moved_line_is_named() {
    let (file, digest, marks) = GOLDEN[0];
    let report = mismatch(file, "variant,late_accuracy\nchanged\n", digest, marks).unwrap();
    assert!(
        report.contains("first differing line 1: `variant,late_accuracy`"),
        "{report}"
    );
    let header = "variant,late_accuracy,pureness,published,transactions\n";
    let report = mismatch(file, header, digest, marks).unwrap();
    assert!(
        report.contains("first differing line 2: missing"),
        "{report}"
    );
}
