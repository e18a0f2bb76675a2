//! Property-based tests for the MDHIM baseline's local store.

use bytes::Bytes;
use mdhim::ldb::MiniLdb;
use mdhim::range_owner;
use papyrus_nvm::NvmStore;
use papyrus_simtime::{Clock, DeviceModel};
use proptest::collection::vec;
use proptest::prelude::*;

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 1..16)
}

proptest! {
    /// MiniLdb with random flush points behaves like a map: the last write
    /// (or delete) per key wins, across the MemTable/table-file boundary.
    #[test]
    fn ldb_matches_map_across_flushes(
        ops in vec((key_strategy(), any::<Option<u8>>(), any::<bool>()), 0..200),
        capacity in 64u64..512,
    ) {
        let store = NvmStore::in_memory(DeviceModel::dram());
        let mut ldb = MiniLdb::new(store, "prop", capacity);
        let clock = Clock::new();
        let mut model: std::collections::HashMap<Vec<u8>, Option<Bytes>> = Default::default();
        for (k, v, flush) in &ops {
            match v {
                Some(b) => {
                    let value = Bytes::from(vec![*b; 4]);
                    ldb.put(k, value.clone(), &clock);
                    model.insert(k.clone(), Some(value));
                }
                None => {
                    ldb.delete(k, &clock);
                    model.insert(k.clone(), None);
                }
            }
            if *flush {
                ldb.flush(&clock);
            }
        }
        for (k, want) in &model {
            prop_assert_eq!(&ldb.get(k, &clock), want, "key {:?}", k);
        }
    }

    /// The range partitioner is total, stable, and monotone in the key.
    #[test]
    fn range_owner_properties(mut keys in vec(key_strategy(), 2..50), n in 1usize..100) {
        for k in &keys {
            let o = range_owner(k, n);
            prop_assert!(o < n);
            prop_assert_eq!(o, range_owner(k, n));
        }
        keys.sort();
        let owners: Vec<usize> = keys.iter().map(|k| range_owner(k, n)).collect();
        prop_assert!(owners.windows(2).all(|w| w[0] <= w[1]), "range partition must be monotone");
    }
}
