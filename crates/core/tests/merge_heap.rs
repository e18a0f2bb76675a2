//! What a merge leaves on the heap, counted exactly by a global allocator
//! that keeps each thread's live bytes.
//!
//! A merge reserves SSData for the sum of its inputs. When it sheds records
//! — versions a newer input shadows, tombstones it may drop — the table it
//! returns must not keep that reservation alive: the store holds the SSData
//! image for the table's whole life, and `space_amp` counts lengths, so
//! nothing else would see the slack.

mod heap;

use bytes::Bytes;
use papyrus_nvm::NvmStore;
use papyrus_simtime::DeviceModel;
use papyruskv::memtable::Entry;
use papyruskv::sstable::{build_at, merge_at, SstReader};

use heap::held;

/// 2000 keys, each with a value of 100 bytes — or, where `deletes` says so,
/// every other one a tombstone.
fn table(deletes: bool) -> Vec<(Vec<u8>, Entry)> {
    let value = Bytes::from(vec![b'v'; 100]);
    let entry = |i| {
        if deletes && i % 2 == 0 {
            Entry::tombstone()
        } else {
            Entry::value(value.clone())
        }
    };
    (0..2000).map(|i| (format!("key{i:06}").into_bytes(), entry(i))).collect()
}

/// Bytes of the three files of the table at `base` as the store holds them.
fn stored(store: &NvmStore, base: &str) -> i64 {
    let len = |ext| store.backend().get_all(&format!("{base}.{ext}")).map_or(0, |f| f.len());
    ["data", "index", "bloom"].map(len).iter().sum::<usize>() as i64
}

/// A merge that sheds half its input — every version of the older table
/// shadowed — and one that sheds three quarters — tombstones dropped too —
/// each keep the table they wrote and its reader's index and filter, and not
/// the SSData reservation of their inputs. One that sheds nothing keeps its
/// reservation, which is exactly its SSData.
#[test]
fn a_merge_keeps_only_the_ssdata_it_wrote() {
    let s = NvmStore::in_memory(DeviceModel::nvme_summitdev());
    // SSIDs 2, 1, 3: the newest deletes every other key.
    let tables = [(2, false), (1, false), (3, true)]
        .map(|(ssid, deletes)| build_at(&s, &format!("r/sst{ssid}"), ssid, &table(deletes), 0).0);
    // Index and filter as stored and again as the reader keeps them, the
    // reader, its paths and the store's map: a few KiB, far below SSData.
    let bound = |base: &str, merged: &SstReader| {
        merged.data_len() as i64 + 2 * (stored(&s, base) - merged.data_len() as i64) + 8192
    };
    let merge = |inputs, base, drop_tombstones| {
        held(|| merge_at(&s, inputs, base, 9, drop_tombstones, 0).unwrap().0)
    };

    let (shadowed, kept) = merge(&tables[..2], "r/m1", true);
    assert_eq!(shadowed.data_len(), tables[0].data_len());
    assert!(kept < bound("r/m1", &shadowed), "kept {kept} B of a {} B table", stored(&s, "r/m1"));

    let (dropped, kept) = merge(&tables[1..], "r/m2", true);
    assert_eq!(dropped.len(), 1000);
    assert!(kept < bound("r/m2", &dropped), "kept {kept} B of a {} B table", stored(&s, "r/m2"));

    let (whole, kept) = merge(&tables[..1], "r/m3", false);
    assert_eq!(whole.data_len(), tables[0].data_len());
    assert!(kept >= whole.data_len() as i64 && kept < bound("r/m3", &whole), "kept {kept} B");
}
