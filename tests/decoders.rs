//! Property tests for every decoder that reads bytes the process did not
//! just write: the checksummed codec envelope (`codec::open`), WAL records
//! and snapshots (`wal::decode_record`, `wal::decode_snapshot`), plan files
//! (`PlanStore::load`; a 1-D plan is a p-Identity leaf; a union whose
//! budget shares do not sum to 1, or whose two groups differ attribute by
//! attribute, is refused, and so is a marginals domain over more than
//! `MAX_MARGINAL_ATTRS` attributes), the p-Identity /
//! Woodbury leaves of plans and inverse-Gram factor lists (`Reader`), the
//! width-range leaf (`Reader`; a window that does not fit its domain is
//! refused), and shard-worker wire frames (`hdmm_net::decode_frame`).
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

/// A tag-3 (marginals) strategy payload over `attrs` attributes of size 1
/// whose weight list has `weights` entries: one weight of 1.0 when
/// `weights` is 1, only the count otherwise.
fn marginals_payload(attrs: usize, weights: usize) -> Vec<u8> {
    let mut out = vec![3];
    codec::put_usizes(&mut out, &vec![1; attrs]);
    if weights == 1 {
        codec::put_f64s(&mut out, &[1.0]);
    } else {
        codec::put_usize(&mut out, weights);
    }
    out
}

/// A marginals domain over more attributes than the subset algebra holds
/// is `CodecError::Invalid`, refused from its attribute count before a
/// shift by it or a weight is read: 64 size-1 attributes with one weight
/// (`1 << 64` wraps to 1 in a release build), and 25 with a weight count
/// of `2^25` (the weights themselves are left out; the decoder must not
/// need them).
#[test]
fn marginals_domains_over_too_many_attributes_are_invalid() {
    for (attrs, weights) in [(64, 1), (25, 1 << 25)] {
        let payload = marginals_payload(attrs, weights);
        let decoded = codec::Reader::new(&payload).strategy();
        assert!(
            matches!(decoded, Err(codec::CodecError::Invalid(_))),
            "{attrs} attributes: {decoded:?}"
        );
    }
}

/// Stores a valid plan for `prefix_1d(8)`, then rewrites its file as the
/// valid file's magic and header fields followed by the strategy payload
/// `strategy`, resealed, so only the strategy decoder can refuse it. The
/// store must then miss, and an engine on that directory must run SELECT
/// instead of serving the file.
fn assert_forged_plan_file_is_never_served(case: &str, strategy: &[u8]) {
    let dir = std::env::temp_dir().join(format!(
        "hdmm-decoders-forged-{case}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::new(&dir);
    let workload = builders::prefix_1d(8);
    let fp = workload.fingerprint();
    assert!(store.store(
        &fp,
        &Hdmm::with_restarts(1).plan(&workload),
        workload.domain()
    ));
    let file = std::fs::read_dir(&dir)
        .expect("the store wrote its directory")
        .map(|entry| entry.expect("readable entry").path())
        .next()
        .expect("one plan file");
    let valid = std::fs::read(&file).expect("readable plan file");
    assert!(store.load(&fp, &workload).is_some(), "the valid file loads");

    let mut forged = valid[..8].to_vec();
    codec::put_usizes(&mut forged, workload.domain().sizes());
    codec::put_usize(&mut forged, workload.query_count());
    codec::put_str(&mut forged, "forged");
    codec::put_f64(&mut forged, 1.0);
    forged.extend_from_slice(strategy);
    codec::seal(&mut forged);
    std::fs::write(&file, forged).expect("writable plan file");
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
    assert!(served.answers.iter().all(|a| a.is_finite()), "{case}");
    let t = engine.metrics().telemetry;
    assert_eq!((t.plan_disk_hits, t.selects_run), (0, 1), "{case}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sealed plan file whose strategy is a 64-attribute marginals domain,
/// behind the header of a valid plan for the same workload, is a miss: the
/// engine runs SELECT instead of building a plan it cannot hold.
#[test]
fn plan_store_files_with_too_many_marginals_attributes_are_never_served() {
    assert_forged_plan_file_is_never_served("attrs", &marginals_payload(64, 1));
}

/// A one-factor list whose factor is `depth` `Kron` leaves, each holding
/// the next as its one factor, around a `Total(2)`: bytes no encoder
/// writes (`StructuredMatrix::kron` flattens), built by hand, since
/// encoding such a value would recurse as deeply as decoding it.
fn nested_kron_list(depth: usize) -> Vec<u8> {
    let mut list = Vec::new();
    codec::put_usize(&mut list, 1);
    for _ in 0..depth {
        list.push(6);
        codec::put_usize(&mut list, 1);
    }
    codec::put_structured(&mut list, &StructuredMatrix::total(2));
    list
}

/// A `Kron` leaf inside a `Kron` leaf is `CodecError::Invalid`, refused
/// from its tag before the decoder recurses into it: the nesting depth is
/// the input's to choose, and 10 000 levels (90 KB) overflow a thread's
/// stack, which aborts the process. A flat `Kron` leaf still decodes.
#[test]
fn nested_kron_leaves_are_invalid() {
    let nested = Err(codec::CodecError::Invalid("nested Kron leaf"));
    for depth in [2, 10_000] {
        let list = nested_kron_list(depth);
        let leaf = codec::Reader::new(&list[8..]).structured();
        assert_eq!(leaf, nested, "depth {depth}");
    }
    let flat = StructuredMatrix::Kron(vec![
        StructuredMatrix::total(2),
        StructuredMatrix::prefix(3),
    ]);
    let mut bytes = Vec::new();
    codec::put_structured(&mut bytes, &flat);
    assert_eq!(codec::Reader::new(&bytes).structured(), Ok(flat));
}

/// A sealed `SlabForward` frame, untraced, whose trailing factors are the
/// encoded factor list `list`: how crafted factor bytes reach a worker.
fn slab_forward_payload(list: &[u8]) -> Vec<u8> {
    let mut frame = WIRE_PREFIX.to_vec();
    frame.push(PROTO_V2);
    codec::put_u64(&mut frame, 0);
    codec::put_u64(&mut frame, 0);
    codec::put_usize(&mut frame, 0);
    frame.push(2);
    codec::put_str(&mut frame, "d");
    codec::put_u64(&mut frame, 0);
    frame.extend_from_slice(list);
    codec::seal(&mut frame);
    frame
}

/// The same list sent to a worker as the trailing factors of a sealed
/// `SlabForward` frame: `decode_frame` refuses it.
#[test]
fn slab_forward_frames_with_nested_kron_leaves_are_invalid() {
    let frame = slab_forward_payload(&nested_kron_list(10_000));
    assert_eq!(
        decode_frame(&frame).err(),
        Some(codec::CodecError::Invalid("nested Kron leaf"))
    );
}

/// A plan file whose Kronecker strategy's one factor nests 10 000 `Kron`
/// leaves is a miss, not an abort.
#[test]
fn plan_store_files_with_nested_kron_leaves_are_never_served() {
    let mut strategy = vec![1];
    strategy.extend(nested_kron_list(10_000));
    assert_forged_plan_file_is_never_served("nested-kron", &strategy);
}

/// An explicit strategy (tag 0) is measured as a one-leaf `Dense` product,
/// so it gets the `Dense` leaf's rule: a non-finite entry is
/// `CodecError::Invalid`. The sensitivity would not catch it:
/// `[[NaN, 0], [5, 0], [0, 1]]` reports 1, since the NaN column's norm drops
/// out of the maximum, and every answer served from it is NaN. As a plan
/// file it is a miss.
#[test]
fn explicit_strategies_with_non_finite_entries_are_invalid() {
    let explicit = |m: &Matrix| {
        let mut out = vec![0];
        codec::put_matrix(&mut out, m);
        out
    };
    let nan = Matrix::from_vec(3, 2, vec![f64::NAN, 0.0, 5.0, 0.0, 0.0, 1.0]);
    let decoded = codec::Reader::new(&explicit(&nan)).strategy();
    assert!(
        matches!(decoded, Err(codec::CodecError::Invalid("non-finite entry"))),
        "{decoded:?}"
    );
    let finite = Matrix::from_vec(3, 2, vec![1.0, 0.0, 5.0, 0.0, 0.0, 1.0]);
    assert!(codec::Reader::new(&explicit(&finite)).strategy().is_ok());

    let mut identity = Matrix::from_fn(8, 8, |r, c| f64::from(u8::from(r == c)));
    identity.as_mut_slice()[9] = f64::INFINITY;
    assert_forged_plan_file_is_never_served("non-finite-explicit", &explicit(&identity));
}

/// `inner` with its columns moved by `perm`, checked or not: the enum is
/// open, so a caller can build what the constructor refuses.
fn permuted(inner: StructuredMatrix, perm: Vec<usize>) -> StructuredMatrix {
    StructuredMatrix::Permuted {
        inner: Box::new(inner),
        perm,
    }
}

/// A `Permuted` leaf (tag 9) round-trips, on its own and as a `Kron`
/// factor. One whose indices are not a bijection on its inner block's
/// columns (a duplicate or an out-of-range index) is `CodecError::Invalid`,
/// and so is a `Permuted` or `Kron` leaf as its inner block, refused from
/// its tag: nested `Permuted` leaves would otherwise recurse as deep as the
/// input says (10 000 levels here). A plan file holding a duplicate index is
/// a miss.
#[test]
fn permuted_leaves_refuse_non_bijections_and_nesting() {
    let decode = |leaf: &StructuredMatrix| {
        let mut bytes = Vec::new();
        codec::put_structured(&mut bytes, leaf);
        codec::Reader::new(&bytes).structured()
    };
    let good = permuted(StructuredMatrix::all_range(4), vec![2, 0, 3, 1]);
    assert_eq!(decode(&good), Ok(good.clone()));
    let factor = StructuredMatrix::Kron(vec![good.clone(), StructuredMatrix::prefix(2)]);
    assert_eq!(decode(&factor), Ok(factor));

    let not_a_permutation = Err(codec::CodecError::Invalid(
        "not a permutation of the block's columns",
    ));
    for perm in [vec![2, 0, 2, 1], vec![2, 0, 4, 1], vec![2, 0, 1]] {
        let leaf = permuted(StructuredMatrix::all_range(4), perm);
        assert_eq!(decode(&leaf), not_a_permutation, "{leaf:?}");
    }
    // A closed-form block's width is the input's to choose: refused before
    // anything of that width is allocated.
    let wide = permuted(StructuredMatrix::identity(1 << 60), vec![0]);
    assert_eq!(decode(&wide), not_a_permutation);

    let nested = |inner: StructuredMatrix| decode(&permuted(inner, vec![0, 1, 2, 3]));
    assert_eq!(
        nested(good),
        Err(codec::CodecError::Invalid("nested permuted leaf"))
    );
    let kron = StructuredMatrix::Kron(vec![
        StructuredMatrix::total(2),
        StructuredMatrix::prefix(2),
    ]);
    assert_eq!(
        nested(kron),
        Err(codec::CodecError::Invalid("nested Kron leaf"))
    );
    let mut deep = Vec::new();
    for _ in 0..10_000 {
        deep.push(9);
        codec::put_usizes(&mut deep, &[1, 0]);
    }
    codec::put_structured(&mut deep, &StructuredMatrix::total(2));
    assert_eq!(
        codec::Reader::new(&deep).structured(),
        Err(codec::CodecError::Invalid("nested permuted leaf"))
    );

    let mut strategy = vec![1];
    codec::put_structured_list(
        &mut strategy,
        &[permuted(
            StructuredMatrix::identity(8),
            vec![0, 1, 2, 3, 4, 5, 6, 6],
        )],
    );
    assert_forged_plan_file_is_never_served("permuted-duplicate", &strategy);
}

/// A width-range leaf (tag 10) from raw fields, as `put_structured` lays
/// one out: what a forged file or frame can carry, whatever the fields.
fn width_range_leaf(n: usize, width: usize, scale: f64) -> Vec<u8> {
    let mut out = vec![10];
    codec::put_usize(&mut out, n);
    codec::put_usize(&mut out, width);
    codec::put_f64(&mut out, scale);
    out
}

/// A `WidthRange` leaf (tag 10) round-trips, alone, as a `Kron` factor and
/// as a `Permuted` leaf's inner block. One whose window is empty or wider
/// than its domain (width 0, width > n, n = 0), or whose scale is zero or
/// not finite, is `CodecError::Invalid` — before the leaf exists, since its
/// row count is `n − width + 1`. A plan file holding one is a miss.
#[test]
fn width_range_leaves_refuse_empty_or_oversized_windows_and_bad_scales() {
    let decode = |bytes: &[u8]| codec::Reader::new(bytes).structured();
    let encode = |leaf: &StructuredMatrix| {
        let mut bytes = Vec::new();
        codec::put_structured(&mut bytes, leaf);
        bytes
    };
    let good = StructuredMatrix::width_range(256, 96).scaled(0.3);
    assert_eq!(encode(&good), width_range_leaf(256, 96, 0.3));
    let factor = StructuredMatrix::Kron(vec![good.clone(), StructuredMatrix::prefix(2)]);
    let moved = StructuredMatrix::permuted(StructuredMatrix::width_range(4, 2), vec![2, 0, 3, 1])
        .expect("a bijection");
    for leaf in [good, factor, moved] {
        assert_eq!(decode(&encode(&leaf)), Ok(leaf));
    }

    for (n, width, scale) in [
        (8, 0, 1.0),
        (8, 9, 1.0),
        (0, 0, 1.0),
        (0, 1, 1.0),
        (usize::MAX, 0, 1.0),
        (8, 3, 0.0),
        (8, 3, -0.0),
        (8, 3, f64::NAN),
        (8, 3, f64::INFINITY),
        (8, 3, f64::NEG_INFINITY),
    ] {
        let decoded = decode(&width_range_leaf(n, width, scale));
        assert!(
            matches!(decoded, Err(codec::CodecError::Invalid(_))),
            "n={n} width={width} scale={scale}: {decoded:?}"
        );
    }

    let mut strategy = vec![1];
    codec::put_usize(&mut strategy, 1);
    strategy.extend(width_range_leaf(8, 9, 1.0));
    assert_forged_plan_file_is_never_served("width-range-wider", &strategy);
}

/// A `SlabForward` frame whose one trailing factor is a width range wider
/// than its domain: `decode_frame` refuses it as `Invalid`.
#[test]
fn slab_forward_frames_with_forged_width_ranges_are_invalid() {
    let mut list = Vec::new();
    codec::put_usize(&mut list, 1);
    list.extend(width_range_leaf(8, 9, 1.0));
    assert!(matches!(
        decode_frame(&slab_forward_payload(&list)).err(),
        Some(codec::CodecError::Invalid(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes behind tag 10 decode or fail typed, never panic, and
    /// what decodes is a width range whose window fits its domain, with a
    /// finite nonzero scale.
    #[test]
    fn width_range_leaves_from_arbitrary_bytes_decode_or_fail_typed(
        raw in proptest::collection::vec(0u16..256, 32),
        len in 0usize..33,
    ) {
        let mut bytes = vec![10];
        bytes.extend(bytes_of(&raw, len));
        match codec::Reader::new(&bytes).structured() {
            Ok(StructuredMatrix::WidthRange { n, width, scale }) => {
                prop_assert!((1..=n).contains(&width));
                prop_assert!(scale.is_finite() && scale != 0.0);
            }
            Ok(other) => prop_assert!(false, "tag 10 decoded as {other:?}"),
            Err(_) => {}
        }
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
