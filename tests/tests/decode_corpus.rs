//! Regression replay: every corpus file must decode without panicking,
//! hanging, or allocating unboundedly — through *every* decoder, not just
//! the one it was minimized against, since hostile bytes don't care which
//! decoder they reach.
//!
//! The corpus is generated deterministically (`cargo run -p dbgc-fuzz --
//! --emit-regressions tests/tests/corpus`) and extended by any failure the
//! fuzz CLI minimizes; see `crates/fuzz`.

use dbgc_fuzz::{decode_target, Target};
use dbgc_metrics::Collector;

fn corpus_files() -> Vec<(String, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|entry| {
            let path = entry.expect("corpus entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read corpus file"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_not_empty() {
    assert!(corpus_files().len() >= 50, "regression corpus went missing");
}

#[test]
fn corpus_replays_through_dbgc_decompress() {
    for (name, bytes) in corpus_files() {
        // Err or a valid cloud; a panic fails the test on its own.
        decode_target(Target::Dbgc, &bytes)
            .unwrap_or_else(|e| panic!("{name}: dbgc contract violated: {e}"));
        // Every fleet tenant decodes through the instrumented entry point:
        // it must reach the same outcome and leave a well-formed span tree,
        // on failure too.
        let collector = Collector::new();
        let plain = dbgc::decompress(&bytes).map(|(cloud, _)| cloud).map_err(|e| e.to_string());
        let instrumented = dbgc::decompress_with_metrics(&bytes, &collector)
            .map(|(cloud, _)| cloud)
            .map_err(|e| e.to_string());
        assert_eq!(plain, instrumented, "{name}: instrumented decode diverged");
        collector.snapshot().validate_spans().unwrap_or_else(|e| panic!("{name}: spans: {e}"));
    }
}

#[test]
fn corpus_replays_through_all_baseline_decoders() {
    for (name, bytes) in corpus_files() {
        for target in Target::ALL {
            decode_target(target, &bytes)
                .unwrap_or_else(|e| panic!("{name}: {} contract violated: {e}", target.name()));
        }
    }
}

#[test]
fn truncations_of_valid_streams_never_panic() {
    // Beyond the checked-in corpus: systematically cut every seed stream at
    // many points; each prefix must be Err or a valid decode.
    for input in dbgc_fuzz::build_seed_inputs_sized(2, 64) {
        let n = input.bytes.len();
        for cut in (0..n).step_by((n / 37).max(1)) {
            decode_target(input.target, &input.bytes[..cut])
                .unwrap_or_else(|e| panic!("{} truncated at {cut}/{n}: {e}", input.target.name()));
        }
    }
}
