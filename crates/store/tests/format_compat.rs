//! The on-disk format: `persist` emits DCDBSST3, and an image decodes back
//! to exactly the table that wrote it.

use dcdb_sid::SensorId;
use dcdb_store::reading::RAW_READING_BYTES;
use dcdb_store::sstable::SsTable;
use dcdb_store::StoreNode;
use proptest::prelude::*;

fn sid(n: u16) -> SensorId {
    SensorId::from_fields(&[9, n]).unwrap()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dcdb-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn persist_now_emits_v3() {
    let dir = tmp_dir("emit");
    let node = StoreNode::default();
    for i in 0..1000i64 {
        node.insert(sid(3), i * 1_000_000_000, 240.0 + (i % 3) as f64);
    }
    node.flush();
    node.persist(&dir).unwrap();
    let raw = std::fs::read(dir.join("000000.sst")).unwrap();
    assert_eq!(&raw[..8], b"DCDBSST3");
    assert!(
        raw.len() * 4 < 1000 * RAW_READING_BYTES,
        "expected ≥ 4× compression, got {} bytes for 1000 readings",
        raw.len()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An image decodes to the contents of the table that wrote it —
    /// including NaN/±∞ values and extreme timestamps.
    #[test]
    fn image_decodes_identically(
        runs in prop::collection::vec(
            (0u16..6, prop::collection::vec((any::<i64>(), any::<u64>()), 0..50)),
            0..6,
        )
    ) {
        let mut entries: Vec<(SensorId, i64, f64)> = runs
            .iter()
            .flat_map(|(s, readings)| {
                readings.iter().map(|&(ts, bits)| (sid(*s), ts, f64::from_bits(bits)))
            })
            .collect();
        entries.sort_by_key(|e| (e.0, e.1));
        entries.dedup_by_key(|e| (e.0, e.1));
        let table = SsTable::from_sorted(entries.clone());

        let mut image = Vec::new();
        table.write_to(&mut image).unwrap();
        let loaded = SsTable::read_from(&mut &image[..]).unwrap();

        prop_assert_eq!(loaded.len(), entries.len());
        let want: Vec<(SensorId, i64, u64)> =
            entries.iter().map(|&(s, t, v)| (s, t, v.to_bits())).collect();
        let got: Vec<(SensorId, i64, u64)> =
            loaded.iter().map(|(s, t, v)| (s, t, v.to_bits())).collect();
        prop_assert_eq!(&got, &want);
    }
}
