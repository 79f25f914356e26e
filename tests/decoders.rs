//! Property tests for every decoder that reads bytes the process did not
//! just write: the checksummed codec envelope (`codec::open`), WAL records
//! and snapshots (`wal::decode_record`, `wal::decode_snapshot`) and plan
//! files (`PlanStore::load`). Arbitrary bytes, arbitrary payloads behind a
//! valid checksum, and single-bit flips of valid encodings must come back as
//! a typed error (`None` for the plan store) — never a panic.
//!
//! The bit-flip properties hold by construction: every format is sealed by
//! an FNV-1a trailer, whose per-byte step is a bijection of the running
//! state, so no single-bit change collides with the original checksum.

use hdmm::core::codec;
use hdmm::core::{builders, Hdmm};
use hdmm::engine::wal::{
    decode_record, decode_snapshot, encode_record, encode_snapshot, RecoveredDataset,
    RecoveredState, RecoveredTenant, WalRecord, SNAPSHOT_MAGIC,
};
use hdmm::engine::{AuditKind, PlanStore};
use proptest::prelude::*;

/// The first `len` of `raw` as bytes.
fn bytes_of(raw: &[u16], len: usize) -> Vec<u8> {
    raw.iter().take(len).map(|&b| b as u8).collect()
}

/// `bytes` with bit `bit` (taken modulo its length in bits) flipped.
fn flip_bit(mut bytes: Vec<u8>, bit: usize) -> Vec<u8> {
    let bit = bit % (bytes.len() * 8);
    bytes[bit / 8] ^= 1 << (bit % 8);
    bytes
}

/// One WAL record of each kind, its strings and amounts drawn from `seed`.
fn record_from(which: usize, seed: u64) -> WalRecord {
    let name = format!("ds-{}", seed % 7);
    let tenant = seed
        .is_multiple_of(3)
        .then(|| format!("tenant-{}", seed % 5));
    let eps = (seed % 1000) as f64 / 100.0 + 0.01;
    match which {
        0 => WalRecord::DatasetRegistered {
            name,
            total_eps: eps,
            tenant,
        },
        1 => WalRecord::TenantQuotaSet {
            tenant: name,
            cap: eps,
        },
        _ => WalRecord::Budget {
            kind: [
                AuditKind::Reserve,
                AuditKind::Commit,
                AuditKind::Refund,
                AuditKind::Deny,
            ][which - 2],
            dataset: name,
            tenant,
            eps,
            trace_id: seed,
            unix_ms: seed / 3,
        },
    }
}

/// A ledger state with `datasets` datasets and `tenants` tenants.
fn state_from(datasets: usize, tenants: usize, seed: u64) -> RecoveredState {
    let mut state = RecoveredState::default();
    for i in 0..datasets {
        state.datasets.insert(
            format!("ds-{i}"),
            RecoveredDataset {
                total_eps: 1.0 + i as f64,
                spent: (seed % 100) as f64 / 200.0,
                tenant: i.is_multiple_of(2).then(|| format!("t-{}", seed % 4)),
            },
        );
    }
    for i in 0..tenants {
        state.tenants.insert(
            format!("t-{i}"),
            RecoveredTenant {
                cap: 2.0 + i as f64,
                spent: 0.5,
            },
        );
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The envelope: arbitrary bytes fail the checksum, and so does every
    /// single-bit flip of a sealed payload.
    #[test]
    fn codec_open_rejects_arbitrary_bytes_and_bit_flips(
        raw in proptest::collection::vec(0u16..256, 96),
        len in 0usize..97,
        bit in 0usize..1_000_000,
    ) {
        let bytes = bytes_of(&raw, len);
        prop_assert!(codec::open(&bytes).is_err(), "{len} arbitrary bytes opened");

        let mut sealed = bytes.clone();
        codec::seal(&mut sealed);
        prop_assert_eq!(codec::open(&sealed).ok(), Some(bytes.as_slice()));
        prop_assert!(codec::open(&flip_bit(sealed, bit)).is_err(), "bit {bit} flip opened");
    }

    /// WAL records: arbitrary bytes and bit-flipped records are typed
    /// errors, and an arbitrary payload behind a valid length prefix and
    /// checksum decodes or fails without panicking.
    #[test]
    fn wal_records_reject_arbitrary_bytes_and_bit_flips(
        raw in proptest::collection::vec(0u16..256, 96),
        len in 0usize..97,
        which in 0usize..6,
        seed in 0u64..1_000_000,
        bit in 0usize..1_000_000,
    ) {
        let bytes = bytes_of(&raw, len);
        prop_assert!(decode_record(&bytes).is_err(), "{len} arbitrary bytes decoded");

        let record = record_from(which, seed);
        let frame = encode_record(seed, &record);
        prop_assert_eq!(decode_record(&frame), Ok((seed, record, frame.len())));
        prop_assert!(decode_record(&flip_bit(frame, bit)).is_err(), "bit {bit} flip decoded");

        let mut payload = bytes;
        codec::seal(&mut payload);
        let mut sealed = (payload.len() as u32).to_le_bytes().to_vec();
        sealed.extend(payload);
        let _ = decode_record(&sealed);
    }

    /// Snapshots: the same three properties, the sealed payload opening with
    /// the snapshot magic so the parser is reached.
    #[test]
    fn wal_snapshots_reject_arbitrary_bytes_and_bit_flips(
        raw in proptest::collection::vec(0u16..256, 96),
        len in 0usize..97,
        datasets in 0usize..4,
        tenants in 0usize..3,
        seed in 0u64..1_000_000,
        bit in 0usize..1_000_000,
    ) {
        let bytes = bytes_of(&raw, len);
        prop_assert!(decode_snapshot(&bytes).is_err(), "{len} arbitrary bytes decoded");

        let state = state_from(datasets, tenants, seed);
        let image = encode_snapshot(&state, seed);
        prop_assert_eq!(decode_snapshot(&image), Ok((state, seed)));
        prop_assert!(decode_snapshot(&flip_bit(image, bit)).is_err(), "bit {bit} flip decoded");

        let mut sealed = SNAPSHOT_MAGIC.to_vec();
        sealed.extend(bytes);
        codec::seal(&mut sealed);
        let _ = decode_snapshot(&sealed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A plan file on disk replaced by arbitrary bytes, by an arbitrary
    /// sealed payload, or by a bit-flipped copy of itself is a clean miss.
    #[test]
    fn plan_store_files_reject_arbitrary_bytes_and_bit_flips(
        raw in proptest::collection::vec(0u16..256, 96),
        len in 0usize..97,
        bit in 0usize..1_000_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "hdmm-decoders-plan-{}-{len}-{bit}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = PlanStore::new(&dir);
        let workload = builders::prefix_1d(8);
        let fp = workload.fingerprint();
        prop_assert!(store.store(&fp, &Hdmm::with_restarts(1).plan(&workload), workload.domain()));
        let file = std::fs::read_dir(&dir)
            .expect("the store wrote its directory")
            .map(|entry| entry.expect("readable entry").path())
            .next()
            .expect("one plan file");
        let valid = std::fs::read(&file).expect("readable plan file");
        prop_assert!(store.load(&fp, &workload).is_some(), "the valid file loads");

        // The file's magic, then arbitrary bytes, sealed: the parser runs.
        let bytes = bytes_of(&raw, len);
        let mut sealed = valid[..8].to_vec();
        sealed.extend(&bytes);
        codec::seal(&mut sealed);
        for (what, contents) in [
            ("arbitrary bytes", bytes),
            ("a sealed arbitrary payload", sealed),
            ("a bit flip", flip_bit(valid, bit)),
        ] {
            std::fs::write(&file, contents).expect("writable plan file");
            prop_assert!(store.load(&fp, &workload).is_none(), "{what} loaded as a plan");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
