use super::*;
use pasn_provenance::{ProvTag, TrustLevel};

fn meta(tag: ProvTag, expires: Option<u64>) -> TupleMeta {
    TupleMeta {
        tag,
        created_at: SimTime::ZERO,
        expires_at: expires.map(SimTime::from_micros),
        origin: NodeId(0),
    }
}

fn link(a: u32, b: u32) -> Tuple {
    Tuple::new("link", vec![Value::Addr(a), Value::Addr(b)])
}

// Tuple-level adapters over the id API, for readable assertions.
fn insert<F>(store: &mut NodeStore, t: &Tuple, meta: TupleMeta, combine: F) -> InsertOutcome
where
    F: FnOnce(&ProvTag, &ProvTag) -> ProvTag,
{
    let pred = store.intern(&t.predicate);
    let (outcome, _) = store.insert_row(pred, t.values.clone().into(), meta, combine);
    outcome
}

/// Inserts `t` untagged with an optional TTL, keeping the stored tag on
/// duplicates.
fn put(store: &mut NodeStore, t: &Tuple, ttl: Option<u64>) -> InsertOutcome {
    insert(store, t, meta(ProvTag::None, ttl), |a, _| a.clone())
}

fn get<'a>(store: &'a NodeStore, t: &Tuple) -> Option<&'a RowMeta> {
    store.meta_of(store.pred_id(&t.predicate)?, &t.values)
}

fn remove(store: &mut NodeStore, t: &Tuple) -> Option<RowMeta> {
    let pred = store.pred_id(&t.predicate)?;
    let seq = store.seq_of(pred, &t.values)?;
    store.remove_by_seq(pred, seq).map(|(_, meta)| meta)
}

fn ordered(store: &NodeStore, predicate: &str) -> Vec<Tuple> {
    let rows = store.pred_id(predicate).map(|p| store.scan_ordered_rows(p));
    let tuple_of = |(values, _): (&Arc<[Value]>, _)| Tuple::new(predicate, values.to_vec());
    rows.into_iter().flatten().map(tuple_of).collect()
}

fn probe(store: &NodeStore, name: &str, cols: &[usize], key: &[Value]) -> Option<Vec<Tuple>> {
    let hits = store.probe_id(store.pred_id(name)?, cols, key)?;
    Some(hits.map(|(v, _)| Tuple::new(name, v.to_vec())).collect())
}

fn index(store: &mut NodeStore, name: &str, cols: &[usize]) {
    let pred = store.intern(name);
    store.register_index_id(pred, cols);
}

#[test]
fn insert_scan_and_counts() {
    let mut store = NodeStore::new();
    assert_eq!(put(&mut store, &link(0, 1), None), InsertOutcome::New);
    assert_eq!(put(&mut store, &link(0, 2), None), InsertOutcome::New);
    let pred = store.pred_id("link").unwrap();
    assert_eq!(store.total_tuples(), 2);
    assert!(get(&store, &link(0, 1)).is_some());
    assert!(get(&store, &link(1, 0)).is_none());
    assert_eq!(store.scan_ordered_rows(pred).count(), 2);
    assert_eq!(store.pred_id("reachable"), None);
    assert!(store.store_bytes() > 0);
}

#[test]
fn duplicate_inserts_merge_tags_without_retrigger() {
    let mut store = NodeStore::new();
    let t = link(0, 1);
    let combine = |a: &ProvTag, b: &ProvTag| {
        if let (ProvTag::Trust(x), ProvTag::Trust(y)) = (a, b) {
            ProvTag::Trust(TrustLevel(x.0.max(y.0)))
        } else {
            a.clone()
        }
    };
    assert_eq!(
        insert(
            &mut store,
            &t,
            meta(ProvTag::Trust(TrustLevel(1)), None),
            combine
        ),
        InsertOutcome::New
    );
    // Same tuple, higher trust: tag merges.
    assert_eq!(
        insert(
            &mut store,
            &t,
            meta(ProvTag::Trust(TrustLevel(3)), None),
            combine
        ),
        InsertOutcome::MergedTag
    );
    // Same tuple, lower trust: nothing changes.
    assert_eq!(
        insert(
            &mut store,
            &t,
            meta(ProvTag::Trust(TrustLevel(2)), None),
            combine
        ),
        InsertOutcome::Duplicate
    );
    assert_eq!(get(&store, &t).unwrap().tag, ProvTag::Trust(TrustLevel(3)));
    assert_eq!(store.total_tuples(), 1);
}

#[test]
fn insert_reports_the_seq_of_the_live_row() {
    let combine = |a: &ProvTag, b: &ProvTag| {
        if let (ProvTag::Trust(x), ProvTag::Trust(y)) = (a, b) {
            ProvTag::Trust(TrustLevel(x.0.max(y.0)))
        } else {
            a.clone()
        }
    };
    let mut store = NodeStore::new();
    let pred = store.intern("link");
    store.register_index_id(pred, &[0]);
    let outcomes: Vec<(InsertOutcome, u64)> = [
        (link(0, 1), 1u8),
        (link(0, 2), 1),
        (link(0, 1), 3), // a duplicate merges, does not copy
        (link(1, 2), 1),
    ]
    .into_iter()
    .map(|(t, trust)| {
        let meta = meta(ProvTag::Trust(TrustLevel(trust)), None);
        store.insert_row(pred, t.values.clone().into(), meta, combine)
    })
    .collect();
    assert_eq!(
        outcomes,
        vec![
            (InsertOutcome::New, 0),
            (InsertOutcome::New, 1),
            // The duplicate merges into (and reports) row 0.
            (InsertOutcome::MergedTag, 0),
            (InsertOutcome::New, 2)
        ]
    );
    assert_eq!(store.total_tuples(), 3);
    assert_eq!(
        get(&store, &link(0, 1)).unwrap().tag,
        ProvTag::Trust(TrustLevel(3))
    );
    assert_eq!(
        ordered(&store, "link"),
        vec![link(0, 1), link(0, 2), link(1, 2)]
    );
    store.check_index_consistency().unwrap();
}

#[test]
fn soft_state_expiry() {
    let mut store = NodeStore::new();
    put(&mut store, &link(0, 1), Some(100));
    put(&mut store, &link(0, 2), None);
    put(&mut store, &link(0, 3), Some(500));
    let removed = store.expire(SimTime::from_micros(200));
    assert_eq!(removed, vec![link(0, 1)]);
    assert_eq!(store.total_tuples(), 2);
    // Expiry of the remaining soft-state tuple later.
    assert_eq!(store.expire(SimTime::from_micros(1_000)).len(), 1);
    assert_eq!(store.total_tuples(), 1);
}

#[test]
fn expire_returns_tuples_in_seq_order_across_relations() {
    // Interleave soft-state tuples of several predicates so hash order
    // of the tables cannot accidentally match insertion order.
    let mut store = NodeStore::new();
    let tuples: Vec<Tuple> = (0..12)
        .map(|i| Tuple::new(["zeta", "alpha", "mid"][i % 3], vec![Value::Int(i as i64)]))
        .collect();
    for t in &tuples {
        put(&mut store, t, Some(10));
    }
    let removed = store.expire(SimTime::from_micros(10));
    assert_eq!(removed, tuples, "expirations follow insertion seq order");
    store.check_index_consistency().unwrap();
}

#[test]
fn re_derivation_refreshes_ttl() {
    let mut store = NodeStore::new();
    let t = link(0, 1);
    put(&mut store, &t, Some(100));
    put(&mut store, &t, Some(300));
    assert_eq!(
        get(&store, &t).unwrap().expires_at(),
        Some(SimTime::from_micros(300))
    );
    // A hard-state re-derivation clears the TTL entirely.
    put(&mut store, &t, None);
    assert_eq!(get(&store, &t).unwrap().expires_at(), None);
    assert!(store.expire(SimTime::from_micros(10_000)).is_empty());
}

#[test]
fn seq_addressed_removal_and_tag_replacement() {
    let mut store = NodeStore::new();
    let pred = store.intern("link");
    store.register_index_id(pred, &[0]);
    insert(
        &mut store,
        &link(0, 1),
        meta(ProvTag::Trust(TrustLevel(2)), None),
        |a, _| a.clone(),
    );
    put(&mut store, &link(0, 2), Some(100));
    let seq = store.seq_of(pred, &link(0, 1).values).unwrap();
    assert_eq!(store.seq_of(pred, &link(9, 9).values), None);
    // Tag replacement targets the live row.
    assert!(store.set_tag(pred, seq, ProvTag::Trust(TrustLevel(1))));
    assert_eq!(
        get(&store, &link(0, 1)).unwrap().tag,
        ProvTag::Trust(TrustLevel(1))
    );
    // TTL refresh extends but never shortens.
    assert!(store.refresh_row_ttl(pred, &link(0, 2).values, Some(SimTime::from_micros(50))));
    assert_eq!(
        get(&store, &link(0, 2)).unwrap().expires_at(),
        Some(SimTime::from_micros(100))
    );
    assert!(store.refresh_row_ttl(pred, &link(0, 2).values, Some(SimTime::from_micros(400))));
    assert_eq!(
        get(&store, &link(0, 2)).unwrap().expires_at(),
        Some(SimTime::from_micros(400))
    );
    assert!(!store.refresh_row_ttl(pred, &link(9, 9).values, None));
    // Seq-addressed removal keeps everything consistent.
    let (values, _) = store.remove_by_seq(pred, seq).unwrap();
    assert_eq!(&values[..], &link(0, 1).values[..]);
    assert!(store.remove_by_seq(pred, seq).is_none());
    store.check_index_consistency().unwrap();
    // take_expired reports pred/seq/meta for the engine's ledger.
    let expired = store.take_expired(SimTime::from_micros(500));
    assert_eq!(expired.len(), 1);
    let (epred, _, evalues, emeta) = &expired[0];
    assert_eq!(*epred, pred);
    assert_eq!(&evalues[..], &link(0, 2).values[..]);
    assert_eq!(emeta.expires_at(), Some(SimTime::from_micros(400)));
    assert_eq!(store.total_tuples(), 0);
}

#[test]
fn remove_returns_metadata() {
    let mut store = NodeStore::new();
    put(&mut store, &link(0, 1), None);
    assert!(remove(&mut store, &link(0, 1)).is_some());
    assert!(remove(&mut store, &link(0, 1)).is_none());
    assert_eq!(store.total_tuples(), 0);
}

// ---- secondary indexes ------------------------------------------------

#[test]
fn probe_answers_only_the_matching_bucket() {
    let mut store = NodeStore::new();
    index(&mut store, "link", &[0]);
    for (a, b) in [(0, 1), (0, 2), (1, 2), (2, 0)] {
        put(&mut store, &link(a, b), None);
    }
    let hits: Vec<Tuple> = probe(&store, "link", &[0], &[Value::Addr(0)]).unwrap();
    assert_eq!(hits, vec![link(0, 1), link(0, 2)], "insertion order");
    assert_eq!(
        probe(&store, "link", &[0], &[Value::Addr(9)])
            .unwrap()
            .len(),
        0
    );
    // Probing an unregistered index reports None (fall back to scan).
    assert!(probe(&store, "link", &[1], &[Value::Addr(2)]).is_none());
    assert!(probe(&store, "other", &[0], &[Value::Addr(0)]).is_none());
    store.check_index_consistency().unwrap();
}

#[test]
fn register_index_backfills_existing_rows_in_insertion_order() {
    let mut store = NodeStore::new();
    for (a, b) in [(5, 1), (5, 9), (3, 1), (5, 4)] {
        put(&mut store, &link(a, b), None);
    }
    index(&mut store, "link", &[0]);
    // Idempotent re-registration.
    index(&mut store, "link", &[0]);
    let hits: Vec<Tuple> = probe(&store, "link", &[0], &[Value::Addr(5)]).unwrap();
    assert_eq!(hits, vec![link(5, 1), link(5, 9), link(5, 4)]);
    store.check_index_consistency().unwrap();
}

#[test]
fn indexes_survive_interleaved_insert_remove_expire() {
    let mut store = NodeStore::new();
    index(&mut store, "link", &[0]);
    index(&mut store, "link", &[0, 1]);

    // Interleave: inserts with mixed TTLs, removes, expiry, re-inserts.
    put(&mut store, &link(0, 1), Some(100));
    put(&mut store, &link(0, 2), None);
    store.check_index_consistency().unwrap();

    remove(&mut store, &link(0, 1));
    store.check_index_consistency().unwrap();

    put(&mut store, &link(0, 1), Some(200));
    put(&mut store, &link(1, 2), Some(50));
    store.check_index_consistency().unwrap();

    // Expire drops link(1,2) (TTL 50) and link(0,1) (TTL 200).
    let removed = store.expire(SimTime::from_micros(60));
    assert_eq!(removed, vec![link(1, 2)]);
    store.check_index_consistency().unwrap();
    let removed = store.expire(SimTime::from_micros(500));
    assert_eq!(removed, vec![link(0, 1)]);
    store.check_index_consistency().unwrap();

    // The stale keys are really gone from the probe path.
    let hits: Vec<Tuple> = probe(&store, "link", &[0], &[Value::Addr(0)]).unwrap();
    assert_eq!(hits, vec![link(0, 2)]);
    assert_eq!(
        probe(&store, "link", &[0, 1], &[Value::Addr(0), Value::Addr(1)])
            .unwrap()
            .len(),
        0
    );

    // Re-insertion after expiry shows up again.
    put(&mut store, &link(0, 1), None);
    store.check_index_consistency().unwrap();
    assert_eq!(
        probe(&store, "link", &[0, 1], &[Value::Addr(0), Value::Addr(1)])
            .unwrap()
            .len(),
        1
    );
    // Insertion order in the shared bucket reflects the re-insert.
    let hits: Vec<Tuple> = probe(&store, "link", &[0], &[Value::Addr(0)]).unwrap();
    assert_eq!(hits, vec![link(0, 2), link(0, 1)]);
}

#[test]
fn candidates_stop_at_the_seq_cap_on_either_source() {
    let mut store = NodeStore::new();
    index(&mut store, "link", &[0]);
    for (a, b) in [(0, 1), (1, 1), (0, 2), (0, 3), (1, 2)] {
        put(&mut store, &link(a, b), None);
    }
    remove(&mut store, &link(0, 2)); // a dead slot inside the prefix
    let pred = store.pred_id("link").unwrap();
    let key = [Value::Addr(0)];
    let seqs = |key, up_to| -> (bool, Vec<u64>) {
        let rows = store.candidates(pred, key, up_to);
        (rows.used_index(), rows.map(|(seq, ..)| seq).collect())
    };
    let by_index = Some((&[0usize][..], &key[..]));
    assert_eq!(seqs(by_index, u64::MAX), (true, vec![0, 3]));
    assert_eq!(seqs(by_index, 2), (true, vec![0]));
    assert_eq!(seqs(None, u64::MAX), (false, vec![0, 1, 3, 4]));
    assert_eq!(seqs(None, 3), (false, vec![0, 1, 3]));
    // A key without an installed index degrades to the capped walk.
    assert_eq!(seqs(Some((&[1][..], &key[..])), 1), (false, vec![0, 1]));
}

#[test]
fn duplicate_insert_does_not_duplicate_index_entries() {
    let mut store = NodeStore::new();
    index(&mut store, "link", &[1]);
    put(&mut store, &link(0, 7), None);
    put(&mut store, &link(0, 7), None);
    assert_eq!(
        probe(&store, "link", &[1], &[Value::Addr(7)])
            .unwrap()
            .len(),
        1
    );
    store.check_index_consistency().unwrap();
}

#[test]
fn scan_ordered_follows_insertion_sequence() {
    let mut store = NodeStore::new();
    let inserted = [(4, 0), (2, 9), (7, 7), (0, 0), (3, 3)];
    for (a, b) in inserted {
        put(&mut store, &link(a, b), None);
    }
    let got: Vec<Tuple> = ordered(&store, "link");
    let expected: Vec<Tuple> = inserted.iter().map(|&(a, b)| link(a, b)).collect();
    assert_eq!(got, expected);
    // Removal keeps relative order of the survivors.
    remove(&mut store, &link(7, 7));
    let got: Vec<Tuple> = ordered(&store, "link");
    assert_eq!(got, vec![link(4, 0), link(2, 9), link(0, 0), link(3, 3)]);
    assert!(ordered(&store, "nope").is_empty());
}

#[test]
fn seq_list_compacts_after_heavy_churn() {
    let mut store = NodeStore::new();
    for i in 0..100u32 {
        put(&mut store, &link(i, i), None);
    }
    // Remove 90 of 100: compaction must have kicked in (dead ≤ half).
    for i in 0..90u32 {
        remove(&mut store, &link(i, i));
        store.check_index_consistency().unwrap();
    }
    let got: Vec<Tuple> = ordered(&store, "link");
    let expected: Vec<Tuple> = (90..100).map(|i| link(i, i)).collect();
    assert_eq!(got, expected, "survivors keep insertion order");
}

#[test]
fn compaction_debt_is_metered_and_drained() {
    let mut store = NodeStore::new();
    for i in 0..100u32 {
        put(&mut store, &link(i, i), None);
    }
    assert_eq!(store.take_compaction_debt(), 0, "inserts never compact");
    for i in 0..90u32 {
        remove(&mut store, &link(i, i));
    }
    // 90 removals force several rebuilds; each walks the then-current
    // slot list, so the drained debt must cover at least one full rebuild
    // of the original list and be gone after draining.
    let walked = store.take_compaction_debt();
    assert!(walked >= 100, "compaction walked {walked} entries");
    assert_eq!(store.take_compaction_debt(), 0, "draining resets the debt");
}

#[test]
fn index_buckets_hold_seq_ids_not_row_copies() {
    // The byte accounting makes the layout observable: adding a second
    // index over a relation must cost bucket keys + 8 bytes per row,
    // not another full copy of every row.
    let mut store = NodeStore::new();
    for i in 0..50u32 {
        put(&mut store, &link(i % 5, i), None);
    }
    let rows_only = store.store_bytes();
    assert_eq!(store.index_bytes(), 0);
    index(&mut store, "link", &[0]);
    let one_index = store.index_bytes();
    assert!(one_index > 0);
    assert!(
        one_index < rows_only,
        "index overhead ({one_index} B) must undercut row data ({rows_only} B)"
    );
    assert_eq!(store.store_bytes(), rows_only, "rows are not re-charged");
}

#[test]
fn id_based_api_mirrors_engine_symbols() {
    let mut authority = Symbols::new();
    let link_id = authority.intern("link");
    authority.intern("reachable");
    let mut store = NodeStore::new();
    store.sync_symbols(&authority);
    assert_eq!(store.pred_id("link"), Some(link_id));
    assert_eq!(store.pred_name(link_id), Some("link"));
    store.register_index_id(link_id, &[0]);
    let row: Arc<[Value]> = Arc::from(vec![Value::Addr(0), Value::Addr(1)].as_slice());
    assert_eq!(
        store.insert_row(link_id, row.clone(), meta(ProvTag::None, None), |a, _| a
            .clone()),
        (InsertOutcome::New, 0)
    );
    assert!(store.meta_of(link_id, &row).is_some());
    assert_eq!(store.scan_ordered_rows(link_id).count(), 1);
    assert_eq!(
        store
            .probe_id(link_id, &[0], &[Value::Addr(0)])
            .unwrap()
            .count(),
        1
    );
    // Growing the authority and re-syncing keeps ids aligned.
    let sensor = authority.intern("sensor");
    store.sync_symbols(&authority);
    assert_eq!(store.pred_id("sensor"), Some(sensor));
    let seq = store.seq_of(link_id, &row).unwrap();
    assert!(store.remove_by_seq(link_id, seq).is_some());
    store.check_index_consistency().unwrap();
}

#[test]
fn take_expired_honours_ttl_extensions_and_hardening() {
    let mut store = NodeStore::new();
    let pred = store.intern("link");
    put(&mut store, &link(0, 1), Some(100));
    put(&mut store, &link(0, 2), Some(100));
    // Extend one row, harden the other: the stale heap entries at t=100
    // must not expire either of them.
    assert!(store.refresh_row_ttl(pred, &link(0, 1).values, Some(SimTime::from_micros(300))));
    put(&mut store, &link(0, 2), None);
    assert!(store.take_expired(SimTime::from_micros(150)).is_empty());
    assert_eq!(store.total_tuples(), 2);
    let expired = store.take_expired(SimTime::from_micros(300));
    assert_eq!(expired.len(), 1, "only the extended soft-state row");
    assert_eq!(&expired[0].2[..], &link(0, 1).values[..]);
    assert!(store
        .take_expired(SimTime::from_micros(1_000_000))
        .is_empty());
    assert_eq!(store.total_tuples(), 1);
    store.check_index_consistency().unwrap();
}

#[test]
fn small_tables_never_pay_compaction_debt() {
    let mut store = NodeStore::new();
    for i in 0..50u32 {
        put(&mut store, &link(i, i), None);
    }
    for i in 0..50u32 {
        remove(&mut store, &link(i, i));
        store.check_index_consistency().unwrap();
    }
    assert_eq!(
        store.take_compaction_debt(),
        0,
        "lists under the compaction threshold are never rebuilt"
    );
    assert!(ordered(&store, "link").is_empty());
    // A fully emptied table releases its slot list outright (a release, not
    // a charged rebuild): no dead residue survives the generation.
    let empty_bytes = store.store_bytes();
    for i in 0..50u32 {
        put(&mut store, &link(i, i), None);
    }
    for i in 0..50u32 {
        remove(&mut store, &link(i, i));
    }
    assert_eq!(store.store_bytes(), empty_bytes);
    assert_eq!(store.take_compaction_debt(), 0);
}

#[test]
fn an_emptied_table_gives_its_buffers_back_and_refills_consistently() {
    let mut store = NodeStore::new();
    index(&mut store, "link", &[0]);
    // Emptied by removal, then by expiry.  `check_index_consistency` rejects
    // an emptied table that keeps buffers; the refill in between files rows
    // and index entries into fresh ones.
    for emptied_by_expiry in [false, true] {
        for i in 0..50u32 {
            put(&mut store, &link(i, i % 5), Some(10));
        }
        store.check_index_consistency().unwrap();
        assert_eq!(ordered(&store, "link").len(), 50);
        let hits = probe(&store, "link", &[0], &[Value::Addr(7)]).unwrap();
        assert_eq!(hits, vec![link(7, 2)]);
        if emptied_by_expiry {
            assert_eq!(store.take_expired(SimTime::from_micros(10)).len(), 50);
            assert_eq!(store.expiry_heap.capacity(), 0, "a drained heap goes too");
        } else {
            for i in 0..50u32 {
                remove(&mut store, &link(i, i % 5));
            }
        }
        store.check_index_consistency().unwrap();
        assert!(ordered(&store, "link").is_empty());
    }
}

#[test]
fn probe_reports_whether_an_index_is_registered() {
    let mut store = NodeStore::new();
    let pred = store.intern("link");
    let key = [Value::Addr(0)];
    assert!(store.probe_id(pred, &[0], &key).is_none());
    store.register_index_id(pred, &[0]);
    assert!(store.probe_id(pred, &[0], &key).is_some());
    assert!(store.probe_id(pred, &[1], &key).is_none());
}

#[test]
fn the_consistency_check_follows_every_link() {
    // `link` rows 0..4; the index on column 0 chains slots 0 → 1 → 3 under
    // `n0` and slot 2 alone under `n1`.
    let filled = || {
        let mut store = NodeStore::new();
        index(&mut store, "link", &[0]);
        for (a, b) in [(0, 1), (0, 2), (1, 2), (0, 3)] {
            put(&mut store, &link(a, b), None);
        }
        store.check_index_consistency().unwrap();
        store
    };
    let n0 = KeyHash::of([Value::Addr(0)].iter());
    type Corruption = fn(&mut Table, KeyHash);
    let corruptions: [(&str, Corruption); 7] = [
        ("a stale tail", |t, n0| {
            t.indexes[0].chains.ends.get_mut(&n0).unwrap().1 = 1;
        }),
        ("a dropped link", |t, _| t.indexes[0].chains.next[1] = NIL),
        ("a link past the slot list", |t, _| {
            t.indexes[0].chains.next[3] = 9
        }),
        ("a cycle", |t, _| t.indexes[0].chains.next[3] = 0),
        ("a link into another key's chain", |t, _| {
            t.indexes[0].chains.next[1] = 2;
        }),
        ("links left behind by the slot list", |t, _| {
            t.indexes[0].chains.next.push(NIL);
        }),
        ("a dedup chain through another row", |t, _| {
            t.by_row.next[0] = 1
        }),
    ];
    for (fault, corrupt) in corruptions {
        let mut store = filled();
        corrupt(&mut store.tables[0], n0);
        assert!(
            store.check_index_consistency().is_err(),
            "{fault} went unnoticed"
        );
    }
    // A removal unlinks the slot from every chain it was on, so a dead slot
    // keeps no link: re-threading one is caught too.
    let mut store = filled();
    remove(&mut store, &link(0, 2));
    store.check_index_consistency().unwrap();
    let chains = &mut store.tables[0].indexes[0].chains;
    chains.next[0] = 1;
    chains.next[1] = 3;
    assert!(
        store.check_index_consistency().is_err(),
        "a dead slot on a chain went unnoticed"
    );
}

#[test]
fn row_meta_packs_the_expiry_into_one_word() {
    // Hard state is the end of time, so a lifetime extends by `max`.
    let mut row = RowMeta::from(meta(ProvTag::None, Some(100)));
    assert_eq!(row.expires_at(), Some(SimTime::from_micros(100)));
    assert_eq!(row.extend_ttl(Some(SimTime::from_micros(50))), None);
    assert_eq!(
        row.extend_ttl(Some(SimTime::from_micros(300))),
        Some(SimTime::from_micros(300))
    );
    assert_eq!(row.extend_ttl(None), None);
    assert_eq!(row.expires_at(), None);
    assert_eq!(row.extend_ttl(Some(SimTime::from_micros(900))), None);
    assert_eq!(TupleMeta::from(&row).expires_at, None);
}
