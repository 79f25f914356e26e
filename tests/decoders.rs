//! Property tests for every decoder that reads bytes the process did not
//! just write: the checksummed codec envelope (`codec::open`), WAL records
//! and snapshots (`wal::decode_record`, `wal::decode_snapshot`), plan files
//! (`PlanStore::load`; a 1-D plan is a p-Identity leaf; a union whose
//! budget shares do not sum to 1, or whose two groups differ attribute by
//! attribute, is refused), the p-Identity /
//! Woodbury leaves of plans and inverse-Gram factor lists (`Reader`), and
//! shard-worker wire frames (`hdmm_net::decode_frame`).
//! Arbitrary bytes, arbitrary payloads behind a valid checksum, truncations
//! and single-bit flips of valid encodings must come back as a typed error
//! (`None` for the plan store) — never a panic.
//!
//! The bit-flip properties hold by construction: every format is sealed by
//! an FNV-1a trailer, whose per-byte step is a bijection of the running
//! state, so no single-bit change collides with the original checksum.

use hdmm::core::codec;
use hdmm::core::{builders, Hdmm, Plan, QueryEngine};
use hdmm::engine::wal::{
    decode_record, decode_snapshot, encode_record, encode_snapshot, RecoveredDataset,
    RecoveredState, RecoveredTenant, WalRecord, SNAPSHOT_MAGIC,
};
use hdmm::engine::{AuditKind, Engine, EngineOptions, PlanStore};
use hdmm::linalg::{Matrix, StructuredMatrix};
use hdmm::mechanism::{Strategy, UnionGroup};
use hdmm::net::{decode_frame, PROTO_V2, WIRE_PREFIX};
use hdmm::optimizer::{HdmmOptions, PIdentity, Selected};
use hdmm::workload::WorkloadGrams;
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

/// A p-Identity Kron plan (OPT_⊗'s output: `PIdentity` leaves) or the
/// factor list of its `Woodbury` inverse Grams, as `put_strategy` /
/// `put_structured_list` write them, unsealed.
fn p_identity_payload(plan: bool, seed: u64) -> Vec<u8> {
    let theta = |p: usize, n: usize| {
        Matrix::from_fn(p, n, |r, c| {
            ((seed as usize + r * 5 + c * 3) % 7) as f64 * 0.3
        })
    };
    let leaves = vec![
        PIdentity::new(theta(2, 6)).leaf(),
        PIdentity::new(theta(1, 4)).leaf(),
    ];
    let mut out = Vec::new();
    if plan {
        codec::put_strategy(&mut out, &Strategy::Kron(leaves));
    } else {
        let gram_pinvs: Vec<StructuredMatrix> =
            leaves.iter().map(StructuredMatrix::gram_pinv).collect();
        codec::put_structured_list(&mut out, &gram_pinvs);
    }
    out
}

/// Reads what [`p_identity_payload`] wrote, to the last byte.
fn read_p_identity_payload(plan: bool, payload: &[u8]) -> Result<(), codec::CodecError> {
    let mut r = codec::Reader::new(payload);
    if plan {
        r.strategy()?;
    } else {
        r.structured_list()?;
    }
    r.expect_end()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// p-Identity and Woodbury leaves (tags 7 and 8): every truncation of an
    /// encoded plan or factor list fails in the reader, every single-bit flip
    /// of the sealed bytes fails, and an arbitrary payload behind either tag
    /// decodes or fails without panicking.
    #[test]
    fn p_identity_leaves_reject_truncations_and_bit_flips(
        raw in proptest::collection::vec(0u16..256, 96),
        len in 0usize..97,
        plan in proptest::bool::weighted(0.5),
        seed in 0u64..1_000,
        cut in 0usize..1_000_000,
        bit in 0usize..1_000_000,
    ) {
        let payload = p_identity_payload(plan, seed);
        prop_assert!(read_p_identity_payload(plan, &payload).is_ok());
        let cut = cut % payload.len();
        prop_assert!(
            read_p_identity_payload(plan, &payload[..cut]).is_err(),
            "truncation at {cut} decoded"
        );

        let mut sealed = payload;
        codec::seal(&mut sealed);
        let flipped = flip_bit(sealed, bit);
        prop_assert!(
            codec::open(&flipped)
                .and_then(|p| read_p_identity_payload(plan, p))
                .is_err(),
            "bit {bit} flip decoded"
        );

        let mut arbitrary = vec![if plan { 7 } else { 8 }];
        arbitrary.extend(bytes_of(&raw, len));
        let _ = codec::Reader::new(&arbitrary).structured();
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

/// A plan file whose union budget shares sum past 1 — sealed, so only the
/// decoder can catch it — is a miss: MEASURE would spend `share_g·ε` per
/// group, 1.8ε against a reservation of ε. The engine runs SELECT instead
/// of serving it.
#[test]
fn plan_store_files_with_union_shares_not_summing_to_one_are_never_served() {
    let dir = std::env::temp_dir().join(format!("hdmm-decoders-shares-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::new(&dir);
    let workload = builders::range_total_union_2d(4, 4);
    let fp = workload.fingerprint();
    let group = |share: f64, factors| UnionGroup::new(share, factors, vec![0]);
    let union = Strategy::Union([
        group(
            0.375,
            vec![StructuredMatrix::prefix(4), StructuredMatrix::total(4)],
        ),
        group(
            0.625,
            vec![StructuredMatrix::total(4), StructuredMatrix::prefix(4)],
        ),
    ]);
    let selected = Selected {
        strategy: union,
        squared_error: 1.0,
        operator: "plus",
    };
    let grams = WorkloadGrams::from_workload(&workload);
    let plan = Plan::from_parts(selected, grams, workload.query_count());
    assert!(store.store(&fp, &plan, workload.domain()));
    assert!(store.load(&fp, &workload).is_some(), "the valid file loads");

    // Both shares rewritten to 0.9, the file resealed.
    let file = std::fs::read_dir(&dir)
        .expect("the store wrote its directory")
        .map(|entry| entry.expect("readable entry").path())
        .next()
        .expect("one plan file");
    let valid = std::fs::read(&file).expect("readable plan file");
    let mut payload = codec::open(&valid).expect("a sealed plan file").to_vec();
    for share in [0.375f64, 0.625] {
        let (from, to) = (share.to_le_bytes(), 0.9f64.to_le_bytes());
        let at: Vec<usize> = (0..payload.len() - 7)
            .filter(|&i| payload[i..i + 8] == from)
            .collect();
        assert_eq!(at.len(), 1, "share {share} is written once");
        payload[at[0]..at[0] + 8].copy_from_slice(&to);
    }
    codec::seal(&mut payload);
    std::fs::write(&file, payload).expect("writable plan file");
    assert!(
        store.load(&fp, &workload).is_none(),
        "shares 0.9 + 0.9 loaded"
    );

    let engine = Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        cache_dir: Some(dir.clone()),
        ..Default::default()
    });
    let (served, _) = engine.plan(&workload);
    let t = engine.metrics().telemetry;
    assert_eq!((t.plan_disk_hits, t.selects_run), (0, 1));
    if let Strategy::Union(groups) = served.strategy() {
        let total: f64 = groups.iter().map(|g| g.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "served shares sum to {total}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A plan file whose union groups differ attribute by attribute — written
/// by the store itself, so it is sealed and its shares are sound — is a
/// miss, and the engine runs SELECT instead of serving it. Two cases on a
/// 4×6 domain: a second group of another cell count (`Total(4)⊗Prefix(5)`,
/// whose MEASURE cannot run on the data vector) and one over the permuted
/// attribute order (`Prefix(6)⊗Total(4)`, which no joint basis fits).
#[test]
fn plan_store_files_with_union_groups_over_other_attributes_are_never_served() {
    let workload = builders::range_total_union_2d(4, 6);
    let fp = workload.fingerprint();
    let first = || vec![StructuredMatrix::prefix(4), StructuredMatrix::total(6)];
    for (case, second) in [
        (
            "cells",
            vec![StructuredMatrix::total(4), StructuredMatrix::prefix(5)],
        ),
        (
            "order",
            vec![StructuredMatrix::prefix(6), StructuredMatrix::total(4)],
        ),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "hdmm-decoders-groups-{case}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = PlanStore::new(&dir);
        let selected = Selected {
            strategy: Strategy::Union([
                UnionGroup::new(0.5, first(), vec![0]),
                UnionGroup::new(0.5, second, vec![1]),
            ]),
            squared_error: 1.0,
            operator: "plus",
        };
        let grams = WorkloadGrams::from_workload(&workload);
        let plan = Plan::from_parts(selected, grams, workload.query_count());
        assert!(store.store(&fp, &plan, workload.domain()));
        assert!(store.load(&fp, &workload).is_none(), "{case}: loaded");

        let engine = Engine::new(EngineOptions {
            hdmm: HdmmOptions {
                restarts: 1,
                ..Default::default()
            },
            cache_dir: Some(dir.clone()),
            ..Default::default()
        });
        let x: Vec<f64> = (0..workload.domain().size()).map(|i| i as f64).collect();
        engine
            .register_dataset("d", workload.domain().clone(), x, 1.0)
            .expect("registers");
        let served = engine.serve("d", &workload, 0.5).expect("serves");
        assert_eq!(served.answers.len(), workload.query_count(), "{case}");
        let t = engine.metrics().telemetry;
        assert_eq!((t.plan_disk_hits, t.selects_run), (0, 1), "{case}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wire frames have one layout: arbitrary bytes fail, and an arbitrary
    /// body sealed behind the frame prefix decodes or fails typed — under any
    /// version byte but the layout's own (the retired `'1'` included) as
    /// `BadMagic`, before the body is read.
    #[test]
    fn wire_frames_reject_other_versions_and_arbitrary_bytes(
        raw in proptest::collection::vec(0u16..256, 96),
        len in 0usize..97,
        version in 0u16..256,
    ) {
        let bytes = bytes_of(&raw, len);
        prop_assert!(decode_frame(&bytes).is_err(), "{len} arbitrary bytes decoded");

        let version = version as u8;
        let mut sealed = WIRE_PREFIX.to_vec();
        sealed.push(version);
        sealed.extend(bytes);
        codec::seal(&mut sealed);
        let decoded = decode_frame(&sealed);
        if version != PROTO_V2 {
            prop_assert_eq!(decoded.err(), Some(codec::CodecError::BadMagic));
        }
    }
}
